// Batch validation benchmark: what does exploit-confirming EVERY finding
// AND verifying every proposed quickfix cost, sequentially vs through the
// batch pipeline?
//
// Two paths produce the same tiered verdicts and the same verified fixes:
//
//   sequential — the pre-pipeline composition (and what a per-finding
//                script around the standalone tool would pay): one
//                dynamic::Validator::validate call per finding, each
//                constructing and seeding its own interpreter run; then,
//                per proposed quickfix, write the patched file set, rebuild
//                the project model from text, re-run the analyzer cold and
//                replay the finding.
//   batched    — validate/validate.h: findings grouped by execution key
//                (entry file, payload, seed class) share one interpreter
//                run each; fix verification re-parses only the patched file
//                (php::Project::fork_with_replacements shares every other
//                AST and the declaration tables) and replays the finding
//                before it pays for a rescan.
//
// Both judge with the same Validator::judge on deterministic executions
// and hold verified fixes to the same gates, so their outcomes agree
// byte-for-byte; the speedup is execution dedup plus the amortized model
// construction. The bench also reports the paper-facing precision
// composition the old bench_validation printed (how much precision does
// keeping only confirmed reports buy) — all into BENCH_validate.json
// (committed).
//
// Correctness gates (always a hard fail):
//   - batched tiers/replays AND per-case fix verdicts equal the sequential
//     ones case-by-case (this pins the fork fast path to the from-scratch
//     rebuild),
//   - validation_signature (tiers + verified fixes) is byte-identical at
//     workers 1 and 4.
//
// Usage: bench_validate [reps] [output.json]
//        bench_validate --smoke [baseline.json]
//
// --smoke is the CI gate: the identity gates plus the machine-independent
// batched-over-sequential speedup on a small fixed workload; >20%
// regression against the committed baseline's smoke block fails (the
// bench_graph precedent). The gate and the recorded smoke block read the
// same statistic, the median of five best-of-3 measurements, so one run
// disturbed by host contention moves neither.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "corpus/generator.h"
#include "dynamic/validator.h"
#include "host.h"
#include "report/matching.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/timing.h"
#include "validate/quickfix.h"
#include "validate/validate.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

using namespace phpsafe;
using dynamic::ValidationResult;
using dynamic::Validator;
using validate::CaseOutcome;
using validate::Tier;
using validate::ValidateOptions;
using validate::ValidationReport;

namespace {

/// One corpus plugin's static pre-work (untimed: both paths start from the
/// same scan result).
struct PluginRun {
    php::Project project;
    AnalysisResult result;
    std::vector<corpus::SeededVuln> truth;
};

std::vector<PluginRun> scan_corpus(double scale, const Tool& tool) {
    corpus::CorpusOptions options;
    options.scale = scale;
    options.filler_lines_2012 = static_cast<int>(20000 * scale);
    options.filler_lines_2014 = static_cast<int>(40000 * scale);
    const corpus::Corpus corpus = corpus::generate_corpus(options);

    std::vector<PluginRun> runs;
    runs.reserve(corpus.plugins.size());
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        DiagnosticSink sink;
        PluginRun run{corpus::build_project(plugin, plugin.v2014, sink), {},
                      plugin.v2014.truth};
        run.result = run_tool(tool, run.project);
        runs.push_back(std::move(run));
    }
    return runs;
}

/// Byte rendering of one finding (identity + full trace) for the
/// nothing-else-regressed gate — the bench-local mirror of the pipeline's
/// internal finding signature.
std::string finding_signature(const Finding& finding) {
    std::string sig = to_string(finding);
    sig += '\n';
    for (const TaintStep& step : finding.trace)
        sig += "  " + to_string(step.location) + ' ' + step.description + '\n';
    return sig;
}

struct SequentialOutcome {
    ValidationResult replay;
    bool proposed = false;
    bool verified = false;
};

/// The sequential fix verification: write the patched file set, rebuild the
/// whole project model from text, re-run the analyzer cold, replay. The
/// gates are validate.cpp's verify_fix gates in their original order —
/// rescan and compare first, replay last — on purpose: this is the
/// reference that verify_fix's fork and its replay-first order are checked
/// against, so the verdicts must match case by case.
bool verify_sequentially(const Tool& tool, const php::Project& project,
                         const AnalysisResult& result, size_t target,
                         const validate::Quickfix& fix) {
    const std::optional<std::string> patched_text =
        validate::apply_quickfix(project, fix);
    if (!patched_text) return false;
    php::Project patched(project.name());
    for (const auto& file : project.files())
        patched.add_file(std::string(file->source->name()),
                         file->source->name() == fix.file
                             ? *patched_text
                             : std::string(file->source->text()));
    DiagnosticSink sink;
    patched.parse_all(sink);
    const php::ParsedFile* parsed = patched.file_named(fix.file);
    if (!parsed || parsed->parse_failed) return false;

    const AnalysisResult after = run_tool(tool, patched);
    if (after.files_failed != result.files_failed) return false;
    const Finding& finding = result.findings[target];
    const std::string target_key = finding.dedup_key();
    if (after.findings.size() + 1 != result.findings.size()) return false;
    size_t j = 0;
    for (size_t i = 0; i < result.findings.size(); ++i) {
        if (i == target) continue;
        const Finding& kept = after.findings[j++];
        if (kept.dedup_key() == target_key) return false;
        if (finding_signature(kept) != finding_signature(result.findings[i]))
            return false;
    }
    Validator validator(patched);
    return !validator.validate(finding).confirmed;
}

/// The sequential baseline: one Validator::validate per finding, then one
/// propose + from-scratch verification per quickfix. Returns the per-case
/// outcomes so the identity gate can compare them.
std::vector<std::vector<SequentialOutcome>> run_sequential(
    const std::vector<PluginRun>& runs, const Tool& tool, double& seconds) {
    std::vector<std::vector<SequentialOutcome>> outcomes(runs.size());
    const double t0 = wall_seconds();
    for (size_t p = 0; p < runs.size(); ++p) {
        Validator validator(runs[p].project);
        const std::vector<Finding>& findings = runs[p].result.findings;
        outcomes[p].resize(findings.size());
        for (size_t i = 0; i < findings.size(); ++i) {
            SequentialOutcome& out = outcomes[p][i];
            out.replay = validator.validate(findings[i]);
            const std::optional<validate::Quickfix> fix =
                validate::propose_quickfix(runs[p].project, tool.kb,
                                           findings[i]);
            if (!fix) continue;
            out.proposed = true;
            out.verified = verify_sequentially(tool, runs[p].project,
                                               runs[p].result, i, *fix);
        }
    }
    seconds = wall_seconds() - t0;
    return outcomes;
}

std::vector<ValidationReport> run_batched(const std::vector<PluginRun>& runs,
                                          const Tool& tool,
                                          const ValidateOptions& vopts,
                                          double& seconds) {
    std::vector<ValidationReport> reports;
    reports.reserve(runs.size());
    const double t0 = wall_seconds();
    for (const PluginRun& run : runs)
        reports.push_back(validate::validate_result(
            run.project, tool.kb, tool.options, run.result, vopts));
    seconds = wall_seconds() - t0;
    return reports;
}

/// The tier the sequential replay implies — the same mapping step 3 of the
/// pipeline applies to a shared execution.
Tier tier_of(const ValidationResult& replay) {
    if (replay.confirmed) return Tier::kValidated;
    if (replay.executed) return Tier::kUnvalidated;
    return Tier::kInconclusive;
}

/// Gate 1: every batched case must equal its sequential counterpart — same
/// tier, verdict, payload and evidence for the replay, and the same
/// proposed/verified outcome for the quickfix.
bool batched_equals_sequential(
    const std::vector<PluginRun>& runs,
    const std::vector<ValidationReport>& reports,
    const std::vector<std::vector<SequentialOutcome>>& sequential,
    std::string& detail) {
    for (size_t p = 0; p < runs.size(); ++p) {
        const std::vector<CaseOutcome>& cases = reports[p].cases;
        if (cases.size() != sequential[p].size()) {
            detail = "case count mismatch on plugin " + std::to_string(p);
            return false;
        }
        for (size_t i = 0; i < cases.size(); ++i) {
            const ValidationResult& batch = cases[i].replay;
            const SequentialOutcome& seq = sequential[p][i];
            if (cases[i].tier != tier_of(seq.replay) ||
                batch.confirmed != seq.replay.confirmed ||
                batch.executed != seq.replay.executed ||
                batch.evidence != seq.replay.evidence ||
                batch.payload_used != seq.replay.payload_used) {
                detail = "case " + std::to_string(i) + " of plugin " +
                         std::to_string(p) +
                         " differs between batched and sequential replay";
                return false;
            }
            const bool batch_verified = static_cast<bool>(cases[i].fix);
            if (batch_verified != seq.verified) {
                detail = "fix verdict for case " + std::to_string(i) +
                         " of plugin " + std::to_string(p) +
                         " differs between the incremental and from-scratch "
                         "verification";
                return false;
            }
        }
    }
    return true;
}

/// Gate 2: the full pipeline (tiers + verified fixes) must render the same
/// validation_signature at workers 1 vs 4.
bool verify_workers_identity(double scale, std::string& detail) {
    const Tool tool = make_phpsafe_tool();
    const std::vector<PluginRun> runs = scan_corpus(scale, tool);
    for (const PluginRun& run : runs) {
        ValidateOptions one;
        one.workers = 1;
        ValidateOptions four;
        four.workers = 4;
        const ValidationReport a = validate::validate_result(
            run.project, tool.kb, tool.options, run.result, one);
        const ValidationReport b = validate::validate_result(
            run.project, tool.kb, tool.options, run.result, four);
        if (validate::validation_signature(run.result, a) !=
            validate::validation_signature(run.result, b)) {
            detail = "signatures differ between 1 and 4 workers on plugin " +
                     run.result.plugin;
            return false;
        }
    }
    return true;
}

struct Measurement {
    size_t plugins = 0;
    int findings = 0;
    int executions = 0;
    int validated = 0;
    int unvalidated = 0;
    int inconclusive = 0;
    int tp_total = 0, tp_confirmed = 0;
    int fp_total = 0, fp_confirmed = 0;
    int fixes_proposed = 0;
    int fixes_verified = 0;
    double sequential_seconds = 0;
    double batched_seconds = 0;
    bool identical = false;
    std::string detail;

    double speedup() const {
        return batched_seconds > 0 ? sequential_seconds / batched_seconds : 0;
    }
    double dedup_factor() const {
        return executions > 0 ? static_cast<double>(findings) / executions : 0;
    }
};

/// Full measurement at one corpus scale: best-of-`reps` timings for both
/// full pipelines (replay + propose + verify), the batched-vs-sequential
/// identity gate, and the precision composition.
Measurement measure(double scale, int reps) {
    const Tool tool = make_phpsafe_tool();
    const std::vector<PluginRun> runs = scan_corpus(scale, tool);

    Measurement m;
    m.plugins = runs.size();
    for (const PluginRun& run : runs)
        m.findings += static_cast<int>(run.result.findings.size());

    std::vector<std::vector<SequentialOutcome>> sequential;
    std::vector<ValidationReport> batched;
    ValidateOptions timing;
    timing.workers = 1;  // single-core box: the speedup must be algorithmic
    timing.propose_fixes = true;
    for (int rep = 0; rep < reps; ++rep) {
        double seq_dt = 0, batch_dt = 0;
        auto seq = run_sequential(runs, tool, seq_dt);
        auto batch = run_batched(runs, tool, timing, batch_dt);
        if (rep == 0 || seq_dt < m.sequential_seconds)
            m.sequential_seconds = seq_dt;
        if (rep == 0 || batch_dt < m.batched_seconds)
            m.batched_seconds = batch_dt;
        sequential = std::move(seq);
        batched = std::move(batch);
    }

    m.identical =
        batched_equals_sequential(runs, batched, sequential, m.detail);
    for (const ValidationReport& report : batched) {
        m.executions += report.executions;
        m.validated += report.validated;
        m.unvalidated += report.unvalidated;
        m.inconclusive += report.inconclusive;
        m.fixes_proposed += report.fixes_proposed;
        m.fixes_verified += report.fixes_verified;
    }

    // Precision composition (the old bench_validation table): confirmed
    // rates over ground-truth-matched vs false-positive findings.
    for (size_t p = 0; p < runs.size(); ++p) {
        const MatchResult match =
            match_findings(runs[p].result.findings, runs[p].truth);
        const std::vector<Finding>& findings = runs[p].result.findings;
        for (const Finding* finding : match.true_positives) {
            const size_t i = static_cast<size_t>(finding - findings.data());
            ++m.tp_total;
            if (batched[p].cases[i].replay.confirmed) ++m.tp_confirmed;
        }
        for (const Finding* finding : match.false_positives) {
            const size_t i = static_cast<size_t>(finding - findings.data());
            ++m.fp_total;
            if (batched[p].cases[i].replay.confirmed) ++m.fp_confirmed;
        }
    }

    return m;
}

/// The smoke statistic: of five best-of-3 measurements at corpus scale
/// 0.25, the one with the median speedup — or the first that diverged
/// from the sequential replay, so its detail reaches the caller.
Measurement smoke_measurement() {
    std::vector<Measurement> samples;
    for (int sample = 0; sample < 5; ++sample) {
        samples.push_back(measure(0.25, 3));
        if (!samples.back().identical) return samples.back();
    }
    std::sort(samples.begin(), samples.end(),
              [](const Measurement& a, const Measurement& b) {
                  return a.speedup() < b.speedup();
              });
    return samples[samples.size() / 2];
}

int run_smoke(const std::string& baseline_path) {
    std::string detail;
    if (!verify_workers_identity(0.25, detail)) {
        std::cerr << "SMOKE FAIL: " << detail << "\n";
        return 1;
    }
    const Measurement small = smoke_measurement();
    if (!small.identical) {
        std::cerr << "SMOKE FAIL: " << small.detail << "\n";
        return 1;
    }

    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "SMOKE FAIL: cannot read baseline " << baseline_path
                  << "\n";
        return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonValue baseline;
    std::string error;
    if (!JsonReader::parse(text, baseline, &error)) {
        std::cerr << "SMOKE FAIL: bad baseline JSON: " << error << "\n";
        return 1;
    }
    const JsonValue* smoke = baseline.get("smoke");
    const JsonValue* base = smoke ? smoke->get("speedup") : nullptr;
    if (!base || !base->is_number() || base->number <= 0) {
        std::cerr << "SMOKE FAIL: baseline has no smoke.speedup\n";
        return 1;
    }
    const double floor = base->number * 0.8;
    std::cout << "validate smoke: sequential "
              << small.sequential_seconds * 1e3 << "ms batched "
              << small.batched_seconds * 1e3 << "ms speedup x"
              << small.speedup() << " (baseline x" << base->number
              << ", floor x" << floor << ")\n";
    if (small.speedup() < floor) {
        std::cerr << "SMOKE FAIL: batched speedup x" << small.speedup()
                  << " fell more than 20% below baseline x" << base->number
                  << "\n";
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::string(argv[1]) == "--smoke") {
        const std::string baseline =
            argc > 2 ? argv[2]
                     : std::string(PHPSAFE_REPO_ROOT "/BENCH_validate.json");
        return run_smoke(baseline);
    }

    const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
    const std::string out_path =
        argc > 2 ? argv[2]
                 : std::string(PHPSAFE_REPO_ROOT "/BENCH_validate.json");
    if (reps <= 0) {
        std::cerr << "usage: bench_validate [reps] [output.json] | "
                     "bench_validate --smoke [baseline.json]\n";
        return 2;
    }

    std::string workers_detail;
    const bool workers_ok = verify_workers_identity(0.25, workers_detail);
    std::cout << "byte-identity (workers 1 vs 4): "
              << (workers_ok ? "ok" : "FAIL — " + workers_detail) << "\n";

    const Measurement full = measure(1.0, reps);
    std::cout << "corpus scale 1: " << full.plugins << " plugins, "
              << full.findings << " findings, " << full.executions
              << " deduplicated executions (factor x" << full.dedup_factor()
              << ")\n"
              << "sequential " << full.sequential_seconds * 1e3
              << "ms batched " << full.batched_seconds * 1e3 << "ms (x"
              << full.speedup() << ")\n"
              << "tiers: " << full.validated << " validated, "
              << full.unvalidated << " unvalidated, " << full.inconclusive
              << " inconclusive\n"
              << "fixes: " << full.fixes_verified << " verified of "
              << full.fixes_proposed << " proposed\n";
    if (!full.identical)
        std::cout << "IDENTITY FAIL: " << full.detail << "\n";

    const Measurement smoke = smoke_measurement();

    std::ofstream out(out_path);
    JsonWriter w(out, 2);
    w.begin_object();
    w.kv("bench", "bench_validate");
    w.kv("scenario",
         "exploit-confirming every corpus finding AND verifying every "
         "proposed quickfix: sequential replay (one seeded interpreter run "
         "per finding, then per fix a from-text project rebuild + cold "
         "analyzer rescan + replay) vs the batch pipeline (findings sharing "
         "an execution key share one run; each fix forks the project "
         "re-parsing only the patched file (fork_with_replacements), "
         "replays the finding first and rescans only when the replay no "
         "longer confirms it). Outcomes byte-identical case by case, "
         "best-of-reps, single worker so the speedup is algorithmic");
    w.kv("timing_reps", reps);
    w.kv("corpus_scale", 1.0, 2);
    w.kv("plugins", static_cast<uint64_t>(full.plugins));
    w.kv("findings", full.findings);
    w.kv("executions", full.executions);
    w.kv("dedup_factor", full.dedup_factor(), 2);
    w.kv("sequential_ms", full.sequential_seconds * 1e3, 3);
    w.kv("batched_ms", full.batched_seconds * 1e3, 3);
    w.kv("speedup", full.speedup(), 2);
    w.key("tiers").begin_object();
    w.kv("validated", full.validated);
    w.kv("unvalidated", full.unvalidated);
    w.kv("inconclusive", full.inconclusive);
    w.end_object();
    w.key("precision").begin_object();
    w.kv("true_positives", full.tp_total);
    w.kv("true_positives_confirmed", full.tp_confirmed);
    w.kv("false_positives", full.fp_total);
    w.kv("false_positives_confirmed", full.fp_confirmed);
    w.end_object();
    w.key("quickfixes").begin_object();
    w.kv("proposed", full.fixes_proposed);
    w.kv("verified", full.fixes_verified);
    w.end_object();
    w.key("byte_identity").begin_array();
    w.begin_object();
    w.kv("gate", "batched_equals_sequential");
    w.kv("ok", full.identical);
    w.end_object();
    w.begin_object();
    w.kv("gate", "workers_1_vs_4");
    w.kv("ok", workers_ok);
    w.end_object();
    w.end_array();
    w.key("smoke").begin_object();
    w.kv("corpus_scale", 0.25, 2);
    w.kv("sequential_ms", smoke.sequential_seconds * 1e3, 3);
    w.kv("batched_ms", smoke.batched_seconds * 1e3, 3);
    w.kv("speedup", smoke.speedup(), 2);
    w.end_object();
    bench::write_host(w);
    w.end_object();
    out << "\n";
    std::cout << "wrote " << out_path << "\n";

    if (!full.identical || !smoke.identical || !workers_ok) {
        std::cerr << "FATAL: batched validation diverged from sequential "
                     "replay\n";
        return 1;
    }
    return 0;
}
