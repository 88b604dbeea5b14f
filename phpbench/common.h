// Shared machinery of the phpSAFE benchmark: the closed-loop window
// runner, statistics, the metric line, host context and the traced-run
// span summary. The three workloads (corpus_audit.cpp, watch_edits.cpp,
// validate_batch.cpp) plug into drive<W>() below; see NOTES.md for what
// each one measures and why.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace phpbench {

namespace obs = phpsafe::obs;

/// Command-line settings of one run.
struct Config {
    std::string workload;
    unsigned seed = 2015;
    double seconds = 10;
    bool trace = false;
    std::string out_dir = "phpbench-out";  ///< trace files land here
};

/// One named metric of the result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Steady-clock seconds.
double now();

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// the sample is empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

/// ru_maxrss of this process, MiB.
double peak_rss_mb();

/// What the checker of one op reports to the window runner.
struct Sample {
    bool ok = false;
    double kloc = 0;  ///< source lines the op covered, thousands
};

/// The outcome of one closed-loop window.
struct Window {
    std::vector<double> latencies_ms;  ///< completed ops (checked or not)
    double wall_seconds = 0;
    double kloc = 0;
    long attempted = 0;
    long failed = 0;
    std::string first_failure;

    double ops_per_s() const {
        return wall_seconds > 0 ? latencies_ms.size() / wall_seconds : 0;
    }
    double kloc_per_s() const {
        return wall_seconds > 0 ? kloc / wall_seconds : 0;
    }
};

/// Runs `clients` threads in a closed loop over one shared op sequence:
/// each client takes the next index, builds its input untimed
/// (W::prepare), times W::op and checks its output untimed (W::check).
/// Indexes are handed out until `seconds` have passed, and only at a
/// multiple of W::cycle(), so every window covers whole passes of the
/// workload's items.
template <class W>
Window run_window(W& w, obs::Tracer& tracer, double seconds) {
    const size_t cycle = w.cycle();
    std::mutex mutex;
    size_t next = 0;
    bool closed = false;
    Window window;
    const double start = now();
    auto take = [&](size_t& index) {
        std::lock_guard lock(mutex);
        if (closed) return false;
        if (next % cycle == 0 && next > 0 && now() - start >= seconds) {
            closed = true;
            return false;
        }
        index = next++;
        return true;
    };
    auto client = [&] {
        std::vector<double> latencies;
        double kloc = 0;
        long attempted = 0, failed = 0;
        std::string failure;
        size_t index = 0;
        while (take(index)) {
            ++attempted;
            Sample sample;
            try {
                auto input = w.prepare(index);
                const double t0 = now();
                auto output = w.op(index, std::move(input), tracer);
                latencies.push_back((now() - t0) * 1e3);
                sample = w.check(index, output, failure);
            } catch (const std::exception& e) {
                failure = std::string("op threw: ") + e.what();
            }
            if (!sample.ok) ++failed;
            kloc += sample.kloc;
        }
        std::lock_guard lock(mutex);
        window.latencies_ms.insert(window.latencies_ms.end(),
                                   latencies.begin(), latencies.end());
        window.kloc += kloc;
        window.attempted += attempted;
        window.failed += failed;
        if (window.first_failure.empty()) window.first_failure = failure;
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < w.clients(); ++c) threads.emplace_back(client);
    client();
    for (std::thread& t : threads) t.join();
    window.wall_seconds = now() - start;
    return window;
}

/// Opens a span labelled with the op id when the tracer records, an inert
/// one otherwise (formats nothing on the untraced path).
obs::Tracer::Span span(obs::Tracer& tracer, std::string_view name,
                       size_t op);
/// The root span of one op, additionally labelled with its item.
obs::Tracer::Span root_span(obs::Tracer& tracer, size_t op,
                            const std::string& item);

/// Per span name, the wall durations (ms) of every recorded span; the
/// "op.self" entry holds each root span minus its children.
std::map<std::string, std::vector<double>> span_durations(
    const std::vector<obs::SpanRecord>& records);

/// p50 of the spans named `name`, 0 when there are none.
double span_p50(const std::map<std::string, std::vector<double>>& spans,
                const std::string& name);

/// The fixed set of per-layer metric names, in BENCHMARK.json order, with
/// their units. A workload fills the ones on its path; the rest read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// Name → value map a workload fills in its traced run.
using LayerValues = std::map<std::string, double>;

/// Exact php- and core-layer counts of one op: model construction from
/// the build's counter delta, taint work from the scan's.
struct EngineCounts {
    uint64_t tokens = 0, ast_nodes = 0, arena_bytes = 0;
    uint64_t propagations = 0, summaries = 0, sink_checks = 0;

    EngineCounts() = default;
    EngineCounts(const obs::Counters& build, const obs::Counters& scan);
    EngineCounts& operator+=(const EngineCounts& other);
    bool operator==(const EngineCounts&) const = default;
    /// php.tokens .. core.sink_checks, each divided by `per`.
    void fill(LayerValues& values, double per = 1) const;
};

/// A fixed memory-bound probe: ns per dependent load over a 32 MiB
/// pointer chain. Context only, never a gated metric.
double memory_probe_ns();
/// Host context: cores, compiler, build type and one memory probe.
std::string host_json();

/// Writes `text` to out_dir/name (creating out_dir); false on I/O error.
bool write_file(const Config& config, const std::string& name,
                const std::string& text);

/// Everything one workload run produced.
struct RunResult {
    double setup_seconds = 0;
    Window window;        ///< the untraced window (the end-to-end numbers)
    Window traced;        ///< trace runs only
    LayerValues layers;   ///< trace runs only
    std::map<std::string, std::vector<double>> spans;  ///< trace runs only
    std::string summary;  ///< the workload's one-line account of its pass
    std::string error;    ///< set-up failure
};

/// Builds W once (its constructor is the whole set-up, warm-up included),
/// then runs the closed loop: one untraced window, and for a trace run a
/// second, traced window whose spans give the per-layer numbers. run.py
/// repeats this in fresh processes and reports medians.
template <class W>
RunResult drive(const Config& config) {
    RunResult run;
    const double t0 = now();
    W w(config.seed);
    run.setup_seconds = now() - t0;
    run.error = w.setup_error();
    if (!run.error.empty()) return run;
    run.summary = w.summary();
    obs::Tracer off(false);
    if (!config.trace) {
        run.window = run_window(w, off, config.seconds);
        return run;
    }
    run.window = run_window(w, off, config.seconds / 2);
    obs::Tracer on(true);
    w.begin_window();  // layer accumulators cover the traced window only
    run.traced = run_window(w, on, config.seconds / 2);
    run.spans = span_durations(on.records());
    run.layers = w.layer_values(run.spans);
    if (!write_file(config, config.workload + ".trace.json",
                    on.chrome_trace_json()) ||
        !write_file(config, config.workload + ".spans.json", on.flat_json()))
        run.error = "could not write the trace files";
    return run;
}

}  // namespace phpbench
