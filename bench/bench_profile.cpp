// Profiling bench: runs the paper's 3-tool corpus evaluation with a
// force-enabled obs::Tracer and prints/exports where the CPU goes. Outputs:
//
//   BENCH_profile.json — flat stage table (per-tool stage breakdown plus
//                        the work counters) for scripted comparison.
//   trace.json         — Chrome trace-event file; load it in
//                        chrome://tracing or https://ui.perfetto.dev to see
//                        the per-(plugin, version, tool) spans on the
//                        worker-pool timeline.
//
// The tracer is armed explicitly with Tracer(true), so this works in any
// build — the PHPSAFE_TRACE CMake option only changes the default state of
// default-constructed tracers.
//
// Usage: bench_profile [corpus_scale] [parallelism] [output_dir]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "phpsafe.h"
#include "util/worker_pool.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

using namespace phpsafe;

int main(int argc, char** argv) {
    const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
    const int parallelism = argc > 2 ? std::atoi(argv[2]) : 0;  // 0 = auto
    const std::string out_dir =
        argc > 3 ? argv[3] : std::string(PHPSAFE_REPO_ROOT);
    if (scale <= 0) {
        std::cerr << "usage: bench_profile [corpus_scale] [parallelism] "
                     "[output_dir]\n";
        return 2;
    }

    obs::Tracer tracer(/*enabled=*/true);
    const std::vector<Tool> tools = paper_tool_set();

    EvaluationOptions options;
    options.corpus_scale = scale;
    options.parallelism = parallelism;
    options.tracer = &tracer;

    const Evaluation evaluation = run_corpus_evaluation(tools, options);

    // Stage table: one row per (version, tool), sourced from the
    // StageBreakdown the evaluation driver fills from the obs subsystem.
    TextTable table;
    table.add_row({"Version", "Tool", "lex s", "parse s", "include s",
                   "analyze s", "total s"});
    auto fmt = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", v);
        return std::string(buf);
    };
    for (const auto& [version, tools] : evaluation.stats) {
        for (const auto& [tool, stats] : tools) {
            const StageBreakdown& st = stats.stages;
            table.add_row({version, tool, fmt(st.lex), fmt(st.parse),
                           fmt(st.include), fmt(st.analyze), fmt(st.total())});
        }
    }
    std::cout << table.to_string() << "\n";
    std::cout << "spans recorded: " << tracer.record_count() << "\n";

    const std::string profile_path = out_dir + "/BENCH_profile.json";
    {
        std::ofstream out(profile_path);
        JsonWriter w(out, 2);
        w.begin_object();
        w.kv("bench", "bench_profile");
        w.kv("corpus_scale", scale);
        w.kv("parallelism", WorkerPool::resolve_parallelism(parallelism));
        w.kv("spans", static_cast<uint64_t>(tracer.record_count()));
        w.key("tools").begin_array();
        for (const auto& [version, tools] : evaluation.stats) {
            for (const auto& [tool, stats] : tools) {
                const StageBreakdown& st = stats.stages;
                w.begin_object();
                w.kv("version", version);
                w.kv("tool", tool);
                w.key("stages").begin_object();
                w.kv("lex_cpu_seconds", st.lex);
                w.kv("parse_cpu_seconds", st.parse);
                w.kv("include_cpu_seconds", st.include);
                w.kv("analyze_cpu_seconds", st.analyze);
                w.kv("total_cpu_seconds", st.total());
                w.end_object();
                w.key("counters").begin_object();
                stats.counters.for_each_field(
                    [&](const char* name, uint64_t value) { w.kv(name, value); });
                w.end_object();
                w.end_object();
            }
        }
        w.end_array();
        w.end_object();
        out << "\n";
    }

    const std::string trace_path = out_dir + "/trace.json";
    if (!tracer.write_chrome_trace(trace_path)) {
        std::cerr << "failed to write " << trace_path << "\n";
        return 1;
    }
    std::cout << "wrote " << profile_path << " and " << trace_path << "\n";
    return 0;
}
