// watch_edits: one client streams NDJSON edit lines into a WatchSession
// opened over the generated vendored monorepo. One op is
// parse_ndjson_request -> WatchSession::edit -> render_edit_line; the
// lines are built untimed. Each edit touches one leaf include part; every
// fourth edit plants or removes an `echo $_GET[...]`, so some deltas are
// non-empty and every delta can be checked exactly.
#include "workloads.h"

#include <algorithm>
#include <array>
#include <random>
#include <sstream>

#include "corpus/generator.h"
#include "service/ndjson.h"
#include "service/watch.h"
#include "util/json_writer.h"

namespace phpbench {
namespace {

using namespace phpsafe;
using service::WatchDelta;

/// Edits per cycle: positions 3 and 11 plant, 7 and 15 remove the plant,
/// the rest revise a comment. The tree's plant state is the same at every
/// cycle boundary, so position k of every cycle repeats its counts.
constexpr size_t kCycle = 16;

/// Exact per-edit counts; every edit must repeat its cycle position's
/// warm-up counts.
struct Counts {
    EngineCounts engine;  ///< the re-parse of the edit and the re-scan
    uint64_t files_reused = 0, seeded = 0, memo_hits = 0;
    uint64_t summary_hits = 0, summary_misses = 0;
    uint64_t cone_files = 0, cone_functions = 0;
    bool operator==(const Counts&) const = default;
};

struct Input {
    std::string line;          ///< the NDJSON edit request
    std::string file;          ///< edited file
    int plant_line = 0;        ///< line of the plant in the new text
    int expect = 0;            ///< +1 plant added, -1 removed, 0 no change
};

struct Output {
    Input in;
    service::NdjsonRequest request;
    WatchDelta delta;
    std::string rendered;
    double edit_ms = 0;
};

int line_count(const std::string& text) {
    return 1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

class WatchEdits {
public:
    explicit WatchEdits(unsigned seed) {
        corpus::MonorepoOptions options;
        options.seed = seed;
        corpus::MonorepoSource source = corpus::generate_monorepo(options);
        kloc_ = source.total_lines / 1000.0;

        service::ScanRequest request;
        request.plugin = "monorepo";
        std::vector<std::string> leaves;
        for (auto& [name, text] : source.files) {
            const bool leaf = name.rfind("plugin-", 0) == 0 &&
                              name.find("/inc/part-") != std::string::npos &&
                              name.size() > 4 &&
                              name.compare(name.size() - 4, 4, ".php") == 0;
            if (leaf) {
                leaves.push_back(name);
                std::string base = text;
                while (!base.empty() && base.back() == '\n') base.pop_back();
                files_[name] = {std::move(base), 0, false};
            }
            request.files.emplace_back(name, std::move(text));
        }

        service::ServiceOptions service_options;
        service_options.workers = 1;  // fixed: never PHPSAFE_JOBS / auto
        service_ = std::make_unique<service::AnalysisService>(service_options);
        watch_ = std::make_unique<service::WatchSession>(*service_);
        const service::ScanResponse open = watch_->open(std::move(request));
        if (open.cancelled || open.rejected || !watch_->active()) {
            error_ = "watch open failed";
            return;
        }

        // The cycle's targets, drawn once from the seed.
        std::mt19937 rng(seed);
        std::uniform_int_distribution<size_t> pick(0, leaves.size() - 1);
        for (size_t k = 0; k < kCycle; ++k) targets_[k] = leaves[pick(rng)];
        targets_[7] = targets_[3];  // removals undo the cycle's plants
        targets_[15] = targets_[11];

        // Warm-up cycle: untimed, records each position's counts.
        obs::Tracer off(false);
        std::string failure;
        for (size_t k = 0; k < kCycle; ++k) {
            const Output out = op(k, prepare(k), off);
            if (!delta_ok(k, out, failure)) {
                error_ = "warm-up edit failed: " + failure;
                return;
            }
            expected_[k] = counts_of(out);
        }
    }

    const std::string& setup_error() const { return error_; }
    size_t cycle() const { return kCycle; }
    int clients() const { return 1; }

    /// Builds edit `index`'s request line (single client, so edits apply
    /// in index order and the tree's state follows the cycle).
    Input prepare(size_t index) {
        const size_t k = index % kCycle;
        Input in;
        in.file = targets_[k];
        FileState& f = files_.at(in.file);
        if (k % 4 == 3) {
            f.planted = (k % 8 == 3);
            in.expect = f.planted ? 1 : -1;
        }
        ++f.revision;
        char rev[48];
        std::snprintf(rev, sizeof rev, "\n// phpbench rev %08d\n", f.revision);
        std::string text = f.base + rev;
        if (f.planted) text += "echo $_GET['phpbench'];\n";
        in.plant_line = line_count(f.base) + 2;

        std::ostringstream os;
        JsonWriter w(os, 0);
        w.begin_object();
        w.kv("op", "edit");
        w.key("files").begin_array();
        w.begin_object();
        w.kv("name", in.file);
        w.kv("text", text);
        w.end_object();
        w.end_array();
        w.end_object();
        in.line = os.str();
        return in;
    }

    Output op(size_t index, Input in, obs::Tracer& tracer) {
        auto root = root_span(tracer, index, "edit-" + std::to_string(index));
        Output out;
        out.in = std::move(in);
        {
            auto s = span(tracer, "service.ndjson_parse", index);
            out.request = service::parse_ndjson_request(out.in.line);
        }
        {
            auto s = span(tracer, "service.edit", index);
            const double t0 = now();
            out.delta = watch_->edit(out.request.edit);
            out.edit_ms = (now() - t0) * 1e3;
        }
        {
            auto s = span(tracer, "report.render", index);
            out.rendered = service::render_edit_line(out.delta, false);
        }
        return out;
    }

    Sample check(size_t index, const Output& out, std::string& failure) {
        const size_t k = index % kCycle;
        Sample sample{false, kloc_};
        if (!delta_ok(k, out, failure)) return sample;
        if (counts_of(out) != expected_[k]) {
            failure = "edit " + std::to_string(index) +
                      ": counts differ from the warm-up cycle";
            return sample;
        }
        sample.ok = true;
        scan_ms_.push_back(out.delta.response.wall_seconds * 1e3);
        overhead_ms_.push_back(out.edit_ms -
                               out.delta.response.wall_seconds * 1e3);
        return sample;
    }

    void begin_window() {
        scan_ms_.clear();
        overhead_ms_.clear();
    }

    LayerValues layer_values(
        const std::map<std::string, std::vector<double>>& spans) const {
        Counts sum;
        for (const Counts& c : expected_) {
            sum.engine += c.engine;
            sum.files_reused += c.files_reused;
            sum.seeded += c.seeded;
            sum.memo_hits += c.memo_hits;
            sum.summary_hits += c.summary_hits;
            sum.summary_misses += c.summary_misses;
            sum.cone_files += c.cone_files;
            sum.cone_functions += c.cone_functions;
        }
        auto per_edit = [](uint64_t total) { return double(total) / kCycle; };
        const double probes = double(sum.summary_hits + sum.summary_misses);
        LayerValues values = {
            {"service.scan_ms", median(scan_ms_)},
            {"service.watch_overhead_ms", median(overhead_ms_)},
            {"service.ndjson_parse_ms",
             span_p50(spans, "service.ndjson_parse")},
            {"service.files_reused", per_edit(sum.files_reused)},
            {"service.summaries_seeded", per_edit(sum.seeded)},
            {"service.dep_memo_hits", per_edit(sum.memo_hits)},
            {"service.summary_hit_ratio",
             probes > 0 ? sum.summary_hits / probes : 0},
            {"graph.cone_files", per_edit(sum.cone_files)},
            {"graph.cone_functions", per_edit(sum.cone_functions)},
            {"graph.seeded_per_cone_function",
             sum.cone_functions > 0 ? double(sum.seeded) / sum.cone_functions
                                    : 0},
            {"report.render_ms", span_p50(spans, "report.render")},
        };
        sum.engine.fill(values, kCycle);
        return values;
    }

    std::string summary() const {
        return "monorepo " + std::to_string(watch_->file_count()) +
               " files, " + std::to_string(kloc_) + " KLOC; cycle of " +
               std::to_string(kCycle) + " edits, 4 of them plant/remove";
    }

private:
    struct FileState {
        std::string base;  ///< generated text, trailing newlines stripped
        int revision = 0;
        bool planted = false;
    };

    /// The delta must be exactly the planted finding added or removed, or
    /// empty for a comment revision.
    bool delta_ok(size_t k, const Output& out, std::string& failure) const {
        const Input& in = out.in;
        const WatchDelta& d = out.delta;
        const std::string tag = "edit " + std::to_string(k) + " (" + in.file + ")";
        if (out.request.op != service::NdjsonRequest::Op::kEdit) {
            failure = tag + ": request did not parse: " + out.request.error;
            return false;
        }
        if (!d.ok || out.rendered.rfind("{\"ok\":true", 0) != 0) {
            failure = tag + ": edit failed: " + d.error;
            return false;
        }
        const std::vector<Finding>& changed = in.expect > 0 ? d.added : d.removed;
        const std::vector<Finding>& other = in.expect > 0 ? d.removed : d.added;
        const bool ok =
            in.expect == 0
                ? d.added.empty() && d.removed.empty()
                : changed.size() == 1 && other.empty() &&
                      changed[0].location.file == in.file &&
                      changed[0].location.line == in.plant_line;
        if (!ok)
            failure = tag + ": delta has " + std::to_string(d.added.size()) +
                      " added / " + std::to_string(d.removed.size()) +
                      " removed findings, expected " +
                      std::to_string(in.expect);
        return ok;
    }

    static Counts counts_of(const Output& out) {
        const service::ScanResponse& r = out.delta.response;
        const obs::Counters& c = r.counters;
        return {EngineCounts(c, c),
                static_cast<uint64_t>(r.files_reused),
                static_cast<uint64_t>(r.summaries_seeded),
                c.cache_dep_walk_memo_hits,
                c.cache_summary_hits,
                c.cache_summary_misses,
                static_cast<uint64_t>(out.delta.cone_files),
                static_cast<uint64_t>(out.delta.cone_functions)};
    }

    double kloc_ = 0;
    std::map<std::string, FileState> files_;
    std::array<std::string, kCycle> targets_;
    std::unique_ptr<service::AnalysisService> service_;
    std::unique_ptr<service::WatchSession> watch_;
    std::array<Counts, kCycle> expected_{};
    std::vector<double> scan_ms_, overhead_ms_;
    std::string error_;
};

}  // namespace

RunResult run_watch_edits(const Config& config) {
    return drive<WatchEdits>(config);
}

}  // namespace phpbench
