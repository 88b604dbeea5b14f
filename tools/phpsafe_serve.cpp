// phpsafe_serve — newline-delimited JSON front end for the AnalysisService.
//
// Default mode reads one JSON request object per stdin line and writes one
// JSON response object per stdout line, one request at a time; editors/CI
// keep the process alive so consecutive scans hit the warm AST and
// result caches. The protocol lives in service/ndjson.h and
// both loops in service/server.h (drivable from tests); this binary binds
// them to streams.
//
// Multi-client mode (one or more --session IN:OUT flags) runs pipelined
// sessions instead: every IN:OUT pair — named pipes for live clients,
// regular files for scripted ones — gets its own session thread against
// ONE shared service, so all clients share the sharded cache, the priority
// queue, and admission control. Sessions end on quit or EOF of their
// input; the process exits when every session has ended.
//
//   phpsafe_serve --session /tmp/a.in:/tmp/a.out --session /tmp/b.in:/tmp/b.out
//
// Both modes take the same flags and bound a request line at 16 MiB:
// --workers N      worker threads (default: auto)
// --max-queue N    admission control: reject scans once N are queued
// --deterministic  zero wall-clock/resident-byte fields so a scripted
//                  session is byte-reproducible (used to regenerate the
//                  golden transcripts in tests/golden/)
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.h"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--deterministic] [--workers N] [--max-queue N]"
                 " [--session IN:OUT]...\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::ios::sync_with_stdio(false);
    phpsafe::service::ServerOptions options;
    std::vector<std::pair<std::string, std::string>> sessions;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--deterministic") {
            options.deterministic = true;
        } else if (arg == "--workers" && i + 1 < argc) {
            options.service.workers = std::atoi(argv[++i]);
        } else if (arg == "--max-queue" && i + 1 < argc) {
            options.service.max_queue_depth =
                static_cast<size_t>(std::atoll(argv[++i]));
        } else if (arg == "--session" && i + 1 < argc) {
            const std::string spec = argv[++i];
            const size_t colon = spec.find(':');
            if (colon == std::string::npos || colon == 0 ||
                colon + 1 >= spec.size()) {
                std::cerr << "--session needs IN:OUT, got \"" << spec
                          << "\"\n";
                return 2;
            }
            sessions.emplace_back(spec.substr(0, colon),
                                  spec.substr(colon + 1));
        } else {
            return usage(argv[0]);
        }
    }

    phpsafe::service::AnalysisServer server(options);
    if (sessions.empty()) {
        server.serve_serial(std::cin, std::cout);
        return 0;
    }

    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    threads.reserve(sessions.size());
    for (const auto& [in_path, out_path] : sessions) {
        threads.emplace_back([&, in_path, out_path] {
            // Open output first: with FIFOs, the client opens its read end
            // before writing requests, and mirroring that order avoids an
            // open/open deadlock.
            std::ofstream out(out_path, std::ios::binary);
            std::ifstream in(in_path, std::ios::binary);
            if (!in || !out) {
                std::cerr << "cannot open session " << in_path << ":"
                          << out_path << "\n";
                failed = true;
                return;
            }
            server.serve_session(in, out);
        });
    }
    for (std::thread& t : threads) t.join();
    return failed ? 1 : 0;
}
