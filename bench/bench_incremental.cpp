// Incremental-analysis bench for the AnalysisService (the editor/CI loop
// the service exists for): scan the whole corpus cold, touch ONE file of
// ONE plugin, re-scan everything warm. The warm pass answers unchanged
// plugins from the result pool and re-analyzes the touched plugin over its
// unchanged ASTs from the file pool, so it should beat a cold re-scan by
// well over the 3x acceptance floor.
//
// Correctness gate: the warm reports are compared byte-for-byte against a
// fresh cold service scanning the same mutated corpus. A cache that changes
// one byte of output is a bug, not a speedup — a mismatch fails the bench.
//
// Results go to BENCH_incremental.json at the repo root (committed, like
// BENCH_scale.json, so later PRs have a trajectory to compare against).
//
// Usage: bench_incremental [scale] [timing_reps] [output.json]
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "host.h"
#include "report/export.h"
#include "service/service.h"
#include "util/json_writer.h"
#include "util/timing.h"
#include "util/worker_pool.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

using namespace phpsafe;
using service::AnalysisService;
using service::ScanRequest;
using service::ScanResponse;

namespace {

std::vector<ScanRequest> corpus_requests(const corpus::Corpus& corpus) {
    std::vector<ScanRequest> requests;
    requests.reserve(corpus.plugins.size());
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        ScanRequest request;
        request.plugin = plugin.name;
        for (const auto& [name, text] : plugin.v2014.files)
            request.files.push_back({name, text});
        requests.push_back(std::move(request));
    }
    return requests;
}

struct PassResult {
    double wall = 0;                    ///< whole corpus, wall clock
    double mutated_wall = 0;            ///< the touched plugin's scan alone
    std::vector<std::string> reports;   ///< render_json_report per plugin
    ScanResponse mutated_response;      ///< response for the touched plugin
};

PassResult scan_all(AnalysisService& service,
                    const std::vector<ScanRequest>& requests,
                    size_t mutated_index) {
    PassResult pass;
    pass.reports.reserve(requests.size());
    const double start = wall_seconds();
    for (size_t i = 0; i < requests.size(); ++i) {
        ScanResponse response = service.scan(requests[i]);
        pass.reports.push_back(render_json_report(response.result));
        if (i == mutated_index) {
            pass.mutated_wall = response.wall_seconds;
            pass.mutated_response = std::move(response);
        }
    }
    pass.wall = wall_seconds() - start;
    return pass;
}

}  // namespace

int main(int argc, char** argv) {
    const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
    const int reps = argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;
    const std::string out_path =
        argc > 3 ? argv[3]
                 : std::string(PHPSAFE_REPO_ROOT "/BENCH_incremental.json");
    if (scale <= 0) {
        std::cerr << "usage: bench_incremental [scale] [timing_reps] "
                     "[output.json]\n";
        return 2;
    }

    corpus::CorpusOptions corpus_options;
    corpus_options.scale = scale;
    const corpus::Corpus corpus = corpus::generate_corpus(corpus_options);
    const std::vector<ScanRequest> original = corpus_requests(corpus);

    // Touch the first plugin's main file: a trailing line comment changes
    // the content hash (invalidating that file's ASTs and the summaries of
    // every function declared in it) without changing any finding.
    const size_t mutated_index = 0;

    double cold_wall = 0, warm_wall = 0;
    double cold_mutated_wall = 0, warm_mutated_wall = 0;
    ScanResponse warm_mutated_response;
    service::CacheStats warm_stats;
    bool reports_identical = true;

    for (int rep = 0; rep < reps; ++rep) {
        // A distinct revision per rep keeps every warm re-scan honest: the
        // mutated request never matches a cached result from a prior rep.
        std::vector<ScanRequest> mutated = original;
        mutated[mutated_index].files[0].text +=
            "\n// bench revision " + std::to_string(rep + 1) + "\n";

        AnalysisService warm_service;
        (void)scan_all(warm_service, original, mutated_index);  // prime caches
        const PassResult warm = scan_all(warm_service, mutated, mutated_index);

        AnalysisService cold_service;
        const PassResult cold = scan_all(cold_service, mutated, mutated_index);

        if (warm.reports != cold.reports) {
            reports_identical = false;
            for (size_t i = 0; i < warm.reports.size(); ++i) {
                if (warm.reports[i] != cold.reports[i])
                    std::cerr << "FATAL: warm report differs from cold for "
                              << mutated[i].plugin << "\n";
            }
        }

        if (rep == 0 || warm.wall < warm_wall) {
            warm_wall = warm.wall;
            warm_mutated_wall = warm.mutated_wall;
            warm_mutated_response = warm.mutated_response;
            warm_stats = warm_service.cache_stats();
        }
        if (rep == 0 || cold.wall < cold_wall) {
            cold_wall = cold.wall;
            cold_mutated_wall = cold.mutated_wall;
        }
    }

    const double total_speedup = warm_wall > 0 ? cold_wall / warm_wall : 0;
    const double mutated_speedup =
        warm_mutated_wall > 0 ? cold_mutated_wall / warm_mutated_wall : 0;

    std::ofstream out(out_path);
    JsonWriter w(out, 2);
    w.begin_object();
    w.kv("bench", "bench_incremental");
    bench::write_host(w);
    w.kv("scenario",
         "scan corpus cold, append one comment line to one file, re-scan "
         "warm; unchanged plugins hit the result pool, the touched plugin "
         "re-analyzes over cached ASTs");
    w.kv("corpus_scale", scale);
    w.kv("plugins", static_cast<int>(corpus.plugins.size()));
    w.kv("files", corpus.total_files("2014"));
    w.kv("lines", corpus.total_lines("2014"));
    w.kv("timing_reps", reps);
    w.kv("workers", WorkerPool::resolve_parallelism(0));
    w.kv("cold_wall_seconds", cold_wall);
    w.kv("warm_wall_seconds", warm_wall);
    w.kv("warm_speedup", total_speedup, 2);
    w.key("mutated_plugin").begin_object();
    w.kv("plugin", original[mutated_index].plugin);
    w.kv("cold_wall_seconds", cold_mutated_wall);
    w.kv("warm_wall_seconds", warm_mutated_wall);
    w.kv("warm_speedup", mutated_speedup, 2);
    w.kv("files_reused", warm_mutated_response.files_reused);
    w.end_object();
    w.key("cache").begin_object();
    w.kv("file_hits", warm_stats.file_hits);
    w.kv("file_misses", warm_stats.file_misses);
    w.kv("result_hits", warm_stats.result_hits);
    w.kv("evictions", warm_stats.evictions);
    w.kv("bytes_resident", warm_stats.bytes_resident);
    w.end_object();
    w.kv("warm_reports_byte_identical_to_cold", reports_identical);
    w.end_object();
    out << "\n";

    std::cout << "incremental: cold " << cold_wall << "s, warm " << warm_wall
              << "s (x" << total_speedup << "); touched plugin cold "
              << cold_mutated_wall << "s, warm " << warm_mutated_wall << "s (x"
              << mutated_speedup << ", " << warm_mutated_response.files_reused
              << " files reused)\n";
    std::cout << "wrote " << out_path << "\n";

    if (!reports_identical) return 1;
    if (total_speedup < 3.0) {
        std::cerr << "WARNING: warm speedup below the 3x floor\n";
        return 1;
    }
    return 0;
}
