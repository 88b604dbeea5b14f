// phpbench: the phpSAFE benchmark binary.
//
//   phpbench --workload corpus_audit|watch_edits|validate_batch
//            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   phpbench --host
//
// A workload run sets up once and measures one window. It prints a
// human-readable account, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. --host prints the
// host context (with a memory-bound probe) as one JSON line. run.py builds
// this binary, repeats a workload in fresh processes and reports medians.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "workloads.h"

namespace {

using namespace phpbench;

std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int usage() {
    std::cerr << "usage: phpbench --workload corpus_audit|watch_edits|"
                 "validate_batch --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n       phpbench --host\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 2 && std::string(argv[1]) == "--host") {
        std::cout << host_json() << std::endl;
        return 0;
    }
    Config config;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload") config.workload = value;
        else if (flag == "--seed") config.seed = std::strtoul(value.c_str(), nullptr, 10);
        else if (flag == "--seconds") config.seconds = std::atof(value.c_str());
        else if (flag == "--trace") config.trace = value == "1";
        else if (flag == "--out-dir") config.out_dir = value;
        else return usage();
    }
    if (argc % 2 == 0 || config.seconds <= 0) return usage();

    RunResult (*run_workload)(const Config&) = nullptr;
    if (config.workload == "corpus_audit") run_workload = run_corpus_audit;
    else if (config.workload == "watch_edits") run_workload = run_watch_edits;
    else if (config.workload == "validate_batch") run_workload = run_validate_batch;
    else return usage();

    const RunResult run = run_workload(config);
    std::cout << "# " << config.workload << ": " << run.summary << "\n";

    const Window& w = run.window;
    long attempted = w.attempted + run.traced.attempted;
    long failed = w.failed + run.traced.failed;
    std::vector<std::string> errors;
    if (!run.error.empty()) errors.push_back(run.error);
    for (const Window* win : {&run.window, &run.traced})
        if (!win->first_failure.empty()) errors.push_back(win->first_failure);
    if (attempted == 0) {
        attempted = 1;  // a set-up failure is one failed attempt
        failed = 1;
    }
    const bool correct = errors.empty() && failed == 0;
    for (const std::string& e : errors) std::cout << "# FAILED: " << e << "\n";

    std::vector<Metric> metrics;
    std::cout << "# untraced window: " << w.latencies_ms.size() << " ops in "
              << w.wall_seconds << " s\n";
    if (!config.trace) {
        metrics = {
            {"setup_s", run.setup_seconds, "s"},
            {"ops_per_s", w.ops_per_s(), "1/s"},
            {"kloc_per_s", w.kloc_per_s(), "KLOC/s"},
            {"p50_ms", quantile(w.latencies_ms, 0.5), "ms"},
            {"p90_ms", quantile(w.latencies_ms, 0.9), "ms"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
    } else {
        const Window& t = run.traced;
        std::cout << "# traced window: " << t.latencies_ms.size() << " ops in "
                  << t.wall_seconds << " s; tracing overhead: ops/s "
                  << w.ops_per_s() << " untraced vs " << t.ops_per_s()
                  << " traced, p50 " << quantile(w.latencies_ms, 0.5)
                  << " vs " << quantile(t.latencies_ms, 0.5) << " ms\n";
        // Span self times: a layer span has no children, so its duration
        // is its self time; op.self is each root span minus its children.
        for (const auto& [name, ms] : run.spans) {
            double total = 0;
            for (double v : ms) total += v;
            std::cout << "# span " << name << ": n=" << ms.size()
                      << " p50=" << median(ms) << " ms total=" << total
                      << " ms\n";
        }
        LayerValues values = run.layers;
        values["trace.slowdown"] =
            t.ops_per_s() > 0 ? w.ops_per_s() / t.ops_per_s() : 0;
        for (const auto& [name, unit] : layer_metric_names()) {
            auto it = values.find(name);
            metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
        }
    }
    for (const Metric& m : metrics)
        std::cout << "# " << m.name << " = " << m.value << " " << m.unit << "\n";

    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        line << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << number(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    line << "}}";
    std::cout << line.str() << std::endl;
    return 0;
}
