// corpus_audit: the paper's own workload. One op is the cold audit of one
// plugin-version of the generated 35-plugin x 2-version corpus — model
// construction (Project::add_file + parse_all), the phpSAFE scan, and the
// JSON report — with two clients in a closed loop over one shared queue.
#include "workloads.h"

#include <array>

#include "core/analyzer.h"
#include "corpus_items.h"
#include "report/export.h"
#include "report/matching.h"

namespace phpbench {
namespace {

using namespace phpsafe;

/// Exact per-op counts; every op must repeat its warm-up counts.
struct Counts {
    EngineCounts engine;
    int tp = 0, fp = 0;   ///< match_findings against the seeded truth
    uint64_t digest = 0;  ///< hash of the canonical (finding_json) findings
    bool operator==(const Counts&) const = default;
};

struct Output {
    Build build;
    AnalysisResult result;
    std::string report;
};

class CorpusAudit {
public:
    explicit CorpusAudit(unsigned seed) {
        corpus::CorpusOptions options;
        options.seed = seed;
        corpus_ = corpus::generate_corpus(options);
        items_ = corpus_items(corpus_);

        // Warm-up pass: untimed, it records every op's expected counts and
        // findings digest, which later ops must repeat exactly.
        obs::Tracer off(false);
        for (size_t i = 0; i < items_.size(); ++i) {
            expected_.push_back(counts_of(i, op(i, i, off)));
            const int v = items_[i].version->version == "2014";
            tp_[v] += expected_.back().tp;
            fp_[v] += expected_.back().fp;
        }
        // At the paper seed the pass must reproduce the phpSAFE row of
        // EXPERIMENTS.md Table I.
        if (seed == 2015 && (tp_ != std::array{315, 387} ||
                             fp_ != std::array{63, 62}))
            error_ = "warm-up pass does not reproduce Table I: " + summary();
    }

    const std::string& setup_error() const { return error_; }
    size_t cycle() const { return items_.size(); }
    int clients() const { return 2; }

    size_t prepare(size_t index) const { return index; }

    Output op(size_t index, size_t, obs::Tracer& tracer) const {
        const CorpusItem& item = items_[index % items_.size()];
        auto root = root_span(tracer, index, item.label);
        Output out{build_item(item, tracer, index), {}, {}};
        {
            auto s = span(tracer, "core.scan", index);
            out.result = analyzer_.scan(out.build.project).result;
        }
        {
            auto s = span(tracer, "report.render", index);
            out.report = render_json_report(out.result);
        }
        return out;
    }

    Sample check(size_t index, const Output& out, std::string& failure) {
        const size_t i = index % items_.size();
        rates_.add(out.build, items_[i]);
        if (out.report.empty()) {
            failure = items_[i].label + ": empty report";
            return {false, items_[i].kloc};
        }
        if (counts_of(i, out) != expected_[i]) {
            failure = items_[i].label +
                      ": findings or counts differ from the warm-up pass";
            return {false, items_[i].kloc};
        }
        return {true, items_[i].kloc};
    }

    void begin_window() { rates_.reset(); }

    LayerValues layer_values(
        const std::map<std::string, std::vector<double>>& spans) const {
        EngineCounts pass;
        for (const Counts& c : expected_) pass += c.engine;
        LayerValues values = {
            {"php.build_ms", span_p50(spans, "php.build")},
            {"core.scan_ms", span_p50(spans, "core.scan")},
            {"report.render_ms", span_p50(spans, "report.render")},
        };
        pass.fill(values);
        rates_.fill(values);
        return values;
    }

    std::string summary() const {
        return "Table I phpSAFE TP " + std::to_string(tp_[0]) + "/" +
               std::to_string(tp_[1]) + " FP " + std::to_string(fp_[0]) +
               "/" + std::to_string(fp_[1]) + " (2012/2014) over " +
               std::to_string(items_.size()) + " plugin-versions";
    }

private:
    Counts counts_of(size_t i, const Output& out) const {
        const MatchResult m =
            match_findings(out.result.findings, items_[i].version->truth);
        std::string canon;
        for (const Finding& f : out.result.findings)
            canon += finding_json(f) + "\n";
        return {EngineCounts(out.build.counters, out.result.counters), m.tp(),
                m.fp(), php::content_hash(canon)};
    }

    corpus::Corpus corpus_;
    Analyzer analyzer_;  // the phpSAFE preset, shared by both clients
    std::vector<CorpusItem> items_;
    std::vector<Counts> expected_;
    std::array<int, 2> tp_{}, fp_{};  ///< warm-up totals, 2012 and 2014
    std::string error_;
    PhpRates rates_;
};

}  // namespace

RunResult run_corpus_audit(const Config& config) {
    return drive<CorpusAudit>(config);
}

}  // namespace phpbench
