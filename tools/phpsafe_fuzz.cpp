// phpsafe_fuzz — mutation-fuzzing driver for the analyzer's oracle battery
// (src/fuzz/). Replays the regression corpus, then runs `--iterations`
// mutated cases through the no-crash / determinism / preset-monotonicity /
// interpreter-agreement oracles; violations are minimized and written back
// into the corpus.
//
//   phpsafe_fuzz [--iterations N] [--seed S] [--corpus DIR]
//                [--byte-percent P] [--replay-only] [--no-write]
//                [--concurrency] [--quickfix]
//
// --concurrency additionally runs the multi-client interleaving oracle on
// every case (3 client threads against a shared 4-worker service) — slower
// per case, so it is opt-in for dedicated CI stages.
//
// --quickfix additionally runs the quickfix-soundness oracle on every case
// (full validation pipeline + an independent rescan per emitted fix) —
// likewise opt-in for dedicated CI stages.
//
// --corpus defaults to the source tree's tests/fuzz_corpus/regressions, so
// the driver replays the same corpus from any working directory. A fuzz
// run without that directory skips the replay; --replay-only fails instead,
// because a replay that replays nothing checks nothing.
//
// Exit status: 0 = clean, 1 = oracle violations or nothing replayed,
// 2 = usage error.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "fuzz/fuzzer.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--iterations N] [--seed S] [--corpus DIR]"
                 " [--byte-percent P] [--replay-only] [--no-write]"
                 " [--concurrency] [--quickfix]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace phpsafe::fuzz;

    FuzzOptions options;
    options.corpus_dir = PHPSAFE_REPO_ROOT "/tests/fuzz_corpus/regressions";
    bool replay_only = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--iterations") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.iterations = std::atoi(v);
        } else if (arg == "--seed") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--corpus") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.corpus_dir = v;
        } else if (arg == "--byte-percent") {
            const char* v = next();
            if (!v) return usage(argv[0]);
            options.byte_percent = std::atoi(v);
        } else if (arg == "--concurrency") {
            options.oracles.check_concurrency = true;
        } else if (arg == "--quickfix") {
            options.oracles.check_quickfix = true;
        } else if (arg == "--replay-only") {
            replay_only = true;
        } else if (arg == "--no-write") {
            options.write_regressions = false;
        } else {
            return usage(argv[0]);
        }
    }
    if (!std::filesystem::is_directory(options.corpus_dir)) {
        if (replay_only) {
            std::cerr << "error: corpus directory '" << options.corpus_dir
                      << "' not found\n";
            return 1;
        }
        std::cerr << "note: corpus directory '" << options.corpus_dir
                  << "' not found; replay skipped\n";
        options.corpus_dir.clear();
        options.write_regressions = false;
    }
    options.log = &std::cout;

    FuzzStats stats;
    if (replay_only) {
        stats = replay_corpus(options.corpus_dir, options.oracles);
    } else {
        stats = run_fuzz(options);
    }

    std::cout << "corpus: " << stats.corpus_replayed << " replayed, "
              << stats.corpus_violations.size() << " violation(s)\n";
    if (!replay_only) {
        char hash[17];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(stats.case_trace_hash));
        std::cout << "fuzz: " << stats.iterations_run << " case(s) ("
                  << stats.structure_cases << " structure, "
                  << stats.byte_cases << " byte), " << stats.violations.size()
                  << " violation(s), " << stats.regressions_written.size()
                  << " regression(s) written\n"
                  << "case trace hash: " << hash << "\n";
    }
    if (replay_only && stats.corpus_replayed == 0) {
        std::cerr << "error: no .case file replayed from '"
                  << options.corpus_dir << "'\n";
        return 1;
    }
    for (const auto& v : stats.corpus_violations)
        std::cout << "CORPUS VIOLATION [" << to_string(v.oracle) << "] "
                  << v.detail << "\n";
    for (const auto& v : stats.violations)
        std::cout << "VIOLATION [" << to_string(v.oracle) << "] " << v.detail
                  << "\n";
    return stats.clean() ? 0 : 1;
}
