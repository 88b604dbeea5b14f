// validate_batch: one client in a closed loop over the corpus_audit
// corpus. One op builds and scans one plugin-version, batch-validates
// every finding (interpreter replay plus quickfix verification, two
// fixed workers), stamps the confidence tiers and renders the tiered
// report.
#include "workloads.h"

#include "core/analyzer.h"
#include "corpus_items.h"
#include "report/export.h"
#include "validate/validate.h"

namespace phpbench {
namespace {

using namespace phpsafe;

/// Exact per-op counts; every op must repeat its warm-up counts.
struct Counts {
    EngineCounts engine;
    uint64_t cases = 0, executions = 0, proposed = 0, verified = 0;
    uint64_t validated = 0, unvalidated = 0, inconclusive = 0;
    uint64_t signature = 0;  ///< hash of validate::validation_signature
    bool operator==(const Counts&) const = default;
};

struct Output {
    Build build;
    AnalysisResult result;  ///< tiered (confidence applied)
    validate::ValidationReport report;
    std::string rendered;
};

class ValidateBatch {
public:
    explicit ValidateBatch(unsigned seed) {
        corpus::CorpusOptions options;
        options.seed = seed;
        corpus_ = corpus::generate_corpus(options);
        items_ = corpus_items(corpus_);
        vopts_.workers = 2;  // fixed: never PHPSAFE_JOBS / auto
        vopts_.propose_fixes = true;

        // Warm-up pass: untimed, records every op's expected counts and
        // validation signature.
        obs::Tracer off(false);
        for (size_t i = 0; i < items_.size(); ++i)
            expected_.push_back(counts_of(op(i, i, off)));
    }

    const std::string& setup_error() const { return error_; }
    size_t cycle() const { return items_.size(); }
    int clients() const { return 1; }

    size_t prepare(size_t index) const { return index; }

    Output op(size_t index, size_t, obs::Tracer& tracer) const {
        const CorpusItem& item = items_[index % items_.size()];
        auto root = root_span(tracer, index, item.label);
        Output out{build_item(item, tracer, index), {}, {}, {}};
        {
            auto s = span(tracer, "core.scan", index);
            out.result = analyzer_.scan(out.build.project).result;
        }
        {
            auto s = span(tracer, "validate.validate", index);
            out.report = validate::validate_result(
                out.build.project, analyzer_.kb(), analyzer_.options(),
                out.result, vopts_);
            validate::apply_confidence(out.result, out.report);
        }
        {
            auto s = span(tracer, "report.render", index);
            out.rendered = render_json_report(out.result);
        }
        return out;
    }

    Sample check(size_t index, const Output& out, std::string& failure) {
        const size_t i = index % items_.size();
        rates_.add(out.build, items_[i]);
        if (out.rendered.empty()) {
            failure = items_[i].label + ": empty report";
            return {false, items_[i].kloc};
        }
        if (counts_of(out) != expected_[i]) {
            failure = items_[i].label +
                      ": validation signature or counts differ from the "
                      "warm-up pass";
            return {false, items_[i].kloc};
        }
        return {true, items_[i].kloc};
    }

    void begin_window() { rates_.reset(); }

    LayerValues layer_values(
        const std::map<std::string, std::vector<double>>& spans) const {
        Counts pass;
        for (const Counts& c : expected_) {
            pass.engine += c.engine;
            pass.cases += c.cases;
            pass.executions += c.executions;
            pass.proposed += c.proposed;
            pass.verified += c.verified;
            pass.validated += c.validated;
            pass.unvalidated += c.unvalidated;
            pass.inconclusive += c.inconclusive;
        }
        LayerValues values = {
            {"php.build_ms", span_p50(spans, "php.build")},
            {"core.scan_ms", span_p50(spans, "core.scan")},
            {"validate.validate_ms", span_p50(spans, "validate.validate")},
            {"validate.cases", double(pass.cases)},
            {"validate.executions", double(pass.executions)},
            {"validate.fixes_proposed", double(pass.proposed)},
            {"validate.fixes_verified", double(pass.verified)},
            {"validate.validated", double(pass.validated)},
            {"validate.unvalidated", double(pass.unvalidated)},
            {"validate.inconclusive", double(pass.inconclusive)},
            {"validate.dedup_ratio",
             pass.executions > 0 ? double(pass.cases) / pass.executions : 0},
            {"validate.fix_verified_share",
             pass.proposed > 0 ? double(pass.verified) / pass.proposed : 0},
            {"report.render_ms", span_p50(spans, "report.render")},
        };
        pass.engine.fill(values);
        rates_.fill(values);
        return values;
    }

    std::string summary() const {
        uint64_t cases = 0, executions = 0, verified = 0;
        for (const Counts& c : expected_) {
            cases += c.cases;
            executions += c.executions;
            verified += c.verified;
        }
        return std::to_string(items_.size()) + " plugin-versions, " +
               std::to_string(cases) + " cases in " +
               std::to_string(executions) + " executions, " +
               std::to_string(verified) + " verified fixes per pass";
    }

private:
    static Counts counts_of(const Output& out) {
        const validate::ValidationReport& r = out.report;
        return {EngineCounts(out.build.counters, out.result.counters),
                r.cases.size(),
                static_cast<uint64_t>(r.executions),
                static_cast<uint64_t>(r.fixes_proposed),
                static_cast<uint64_t>(r.fixes_verified),
                static_cast<uint64_t>(r.validated),
                static_cast<uint64_t>(r.unvalidated),
                static_cast<uint64_t>(r.inconclusive),
                php::content_hash(
                    validate::validation_signature(out.result, r))};
    }

    corpus::Corpus corpus_;
    Analyzer analyzer_;
    validate::ValidateOptions vopts_;
    std::vector<CorpusItem> items_;
    std::vector<Counts> expected_;
    std::string error_;
    PhpRates rates_;
};

}  // namespace

RunResult run_validate_batch(const Config& config) {
    return drive<ValidateBatch>(config);
}

}  // namespace phpbench
