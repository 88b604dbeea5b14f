#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/json_writer.h"

#ifndef PHPBENCH_BUILD_TYPE
#define PHPBENCH_BUILD_TYPE "unknown"
#endif

namespace phpbench {

double now() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;  // Linux reports KiB
}

obs::Tracer::Span span(obs::Tracer& tracer, std::string_view name,
                       size_t op) {
    if (!tracer.enabled()) return {};
    const std::string id = std::to_string(op);
    return tracer.span(name, {{"op", id}});
}

obs::Tracer::Span root_span(obs::Tracer& tracer, size_t op,
                            const std::string& item) {
    if (!tracer.enabled()) return {};
    const std::string id = std::to_string(op);
    return tracer.span("op", {{"op", id}, {"item", item}});
}

std::map<std::string, std::vector<double>> span_durations(
    const std::vector<obs::SpanRecord>& records) {
    std::map<std::string, std::vector<double>> out;
    std::map<std::string, double> root_ms, child_ms;  // by op id
    for (const obs::SpanRecord& r : records) {
        const double ms = r.wall_seconds * 1e3;
        out[r.name].push_back(ms);
        std::string op;
        for (const auto& [key, value] : r.args)
            if (key == "op") op = value;
        (r.name == "op" ? root_ms : child_ms)[op] += ms;
    }
    for (const auto& [op, ms] : root_ms)
        out["op.self"].push_back(ms - child_ms[op]);
    return out;
}

double span_p50(const std::map<std::string, std::vector<double>>& spans,
                const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second);
}

EngineCounts::EngineCounts(const obs::Counters& build,
                           const obs::Counters& scan)
    : tokens(build.tokens_lexed),
      ast_nodes(build.ast_nodes),
      arena_bytes(build.alloc_arena_bytes),
      propagations(scan.taint_propagations),
      summaries(scan.summaries_computed),
      sink_checks(scan.sink_checks) {}

EngineCounts& EngineCounts::operator+=(const EngineCounts& other) {
    tokens += other.tokens;
    ast_nodes += other.ast_nodes;
    arena_bytes += other.arena_bytes;
    propagations += other.propagations;
    summaries += other.summaries;
    sink_checks += other.sink_checks;
    return *this;
}

void EngineCounts::fill(LayerValues& values, double per) const {
    values["php.tokens"] = tokens / per;
    values["php.ast_nodes"] = ast_nodes / per;
    values["php.arena_bytes"] = arena_bytes / per;
    values["core.taint_propagations"] = propagations / per;
    values["core.summaries_computed"] = summaries / per;
    values["core.sink_checks"] = sink_checks / per;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"php.build_ms", "ms"},
        {"php.lex_mb_per_s", "MB/s"},
        {"php.parse_nodes_per_s", "1/s"},
        {"php.tokens", "count"},
        {"php.ast_nodes", "count"},
        {"php.arena_bytes", "bytes"},
        {"core.scan_ms", "ms"},
        {"core.taint_propagations", "count"},
        {"core.summaries_computed", "count"},
        {"core.sink_checks", "count"},
        {"service.scan_ms", "ms"},
        {"service.watch_overhead_ms", "ms"},
        {"service.ndjson_parse_ms", "ms"},
        {"service.files_reused", "count"},
        {"service.summaries_seeded", "count"},
        {"service.dep_memo_hits", "count"},
        {"service.summary_hit_ratio", "ratio"},
        {"graph.cone_files", "count"},
        {"graph.cone_functions", "count"},
        {"graph.seeded_per_cone_function", "ratio"},
        {"validate.validate_ms", "ms"},
        {"validate.cases", "count"},
        {"validate.executions", "count"},
        {"validate.fixes_proposed", "count"},
        {"validate.fixes_verified", "count"},
        {"validate.validated", "count"},
        {"validate.unvalidated", "count"},
        {"validate.inconclusive", "count"},
        {"validate.dedup_ratio", "ratio"},
        {"validate.fix_verified_share", "ratio"},
        {"report.render_ms", "ms"},
        {"trace.slowdown", "ratio"},
    };
    return names;
}

double memory_probe_ns() {
    // One random cycle (Sattolo's shuffle) through 8M slots (32 MiB): every
    // load depends on the previous one and misses the caches, so the probe
    // tracks the host's memory latency, not its ALU.
    constexpr uint32_t kSlots = uint32_t{1} << 23;
    std::vector<uint32_t> next(kSlots);
    std::iota(next.begin(), next.end(), 0);
    uint64_t state = 0x9e3779b97f4a7c15ull;  // splitmix64, fixed seed
    for (uint32_t i = kSlots - 1; i > 0; --i) {
        state += 0x9e3779b97f4a7c15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::swap(next[i], next[z % i]);
    }
    constexpr size_t kSteps = size_t{1} << 20;
    uint32_t at = 0;
    const double t0 = now();
    for (size_t i = 0; i < kSteps; ++i) at = next[at];
    const double dt = now() - t0;
    volatile uint32_t sink = at;  // keep the chain live
    (void)sink;
    return dt * 1e9 / kSteps;
}

std::string host_json() {
    const double probe_ns = memory_probe_ns();
    std::ostringstream os;
    phpsafe::JsonWriter w(os, 0);
    w.begin_object();
    w.kv("cores", static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.kv("compiler", std::string("g++ ") + __VERSION__);
    w.kv("build_type", std::string(PHPBENCH_BUILD_TYPE));
    w.kv("memory_probe_ns", probe_ns, 3);
    w.end_object();
    return os.str();
}

bool write_file(const Config& config, const std::string& name,
                const std::string& text) {
    std::error_code ec;
    std::filesystem::create_directories(config.out_dir, ec);
    std::ofstream out(std::filesystem::path(config.out_dir) / name);
    out << text << "\n";
    return static_cast<bool>(out);
}

}  // namespace phpbench
