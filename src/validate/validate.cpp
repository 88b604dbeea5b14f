#include "validate/validate.h"

#include <chrono>
#include <map>
#include <sstream>

namespace phpsafe::validate {

namespace {

using dynamic::Validator;

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// One deduplicated interpreter execution: every member finding shares the
/// same entry file, attack payload and seeding, so one run serves all.
struct ExecGroup {
    std::string file;
    InputVector vector = InputVector::kUnknown;  ///< first member's vector
    std::string payload;
};

/// Appends the byte rendering of one finding for the fix-verification
/// "nothing else regressed" gate: identity plus the full trace.
void append_signature(std::string& out, const Finding& finding) {
    out += to_string(finding);
    out += '\n';
    for (const TaintStep& step : finding.trace) {
        out += "  ";
        out += to_string(step.location);
        out += ' ';
        out += step.description;
        out += '\n';
    }
}

/// What verifying one proposed fix did and decided.
struct FixCheck {
    bool forked = false;     ///< the patched project was built
    bool rescanned = false;  ///< the analyzer re-ran on it
    bool verified = false;   ///< every gate held
};

/// Verification loop for one proposed fix: apply the edit, re-parse the one
/// patched file (php::Project::fork_with_replacements shares every other
/// file's AST and the declaration tables), replay the targeted finding on
/// the patched unit, and only then re-run the analyzer with the
/// configuration that produced the original result. Every gate must hold:
///   - the patched file reparses clean,
///   - the interpreter replay no longer confirms the flow,
///   - the analyzer no longer reports the targeted finding,
///   - every OTHER finding is byte-identical (same order, same trace) to
///     its rendering in `signatures`.
/// Each gate is a pure function of (project, fix) and the verdict is their
/// AND, so the order decides only the cost: one replay is far cheaper than
/// a whole-project rescan and rejects most failing fixes on its own.
///
/// The kQuickfixSoundness fuzz oracle independently re-verifies accepted
/// fixes against a from-scratch rebuild, so any divergence between the
/// fork and a rebuild surfaces as an oracle violation.
FixCheck verify_fix(const php::Project& project, const KnowledgeBase& kb,
                    const AnalysisOptions& options, const AnalysisResult& result,
                    const std::vector<std::string>& signatures, size_t target,
                    const Quickfix& fix, const dynamic::ExecOptions& exec) {
    FixCheck check;
    const std::optional<std::string> patched_text = apply_quickfix(project, fix);
    if (!patched_text) return check;

    DiagnosticSink sink;
    const std::optional<php::Project> patched =
        project.fork_with_replacements({{fix.file, *patched_text, nullptr}}, sink);
    if (!patched) return check;
    check.forked = true;
    const php::ParsedFile* parsed = patched->file_named(fix.file);
    if (!parsed || parsed->parse_failed) return check;

    const Finding& finding = result.findings[target];
    const std::string payload = Validator::payload_for(finding.kind);
    dynamic::Interpreter interpreter(*patched, exec);
    Validator::seed_vector(interpreter, finding.vector, payload);
    const dynamic::ExecResult run = interpreter.run_file(finding.location.file);
    if (Validator::judge(finding, run, payload).confirmed) return check;

    check.rescanned = true;
    const ScanResult rescan = Analyzer::borrowing(kb, options).scan(*patched);
    if (rescan.result.files_failed != result.files_failed) return check;
    if (rescan.result.findings.size() + 1 != result.findings.size())
        return check;
    const std::string target_key = finding.dedup_key();
    std::string signature;
    size_t j = 0;
    for (size_t i = 0; i < result.findings.size(); ++i) {
        if (i == target) continue;
        const Finding& after = rescan.result.findings[j++];
        if (after.dedup_key() == target_key) return check;
        signature.clear();
        append_signature(signature, after);
        if (signature != signatures[i]) return check;
    }
    check.verified = true;
    return check;
}

}  // namespace

std::string to_string(Tier tier) {
    switch (tier) {
        case Tier::kValidated: return "validated";
        case Tier::kUnvalidated: return "unvalidated";
        case Tier::kInconclusive: return "inconclusive";
    }
    return "?";
}

Confidence to_confidence(Tier tier) {
    switch (tier) {
        case Tier::kValidated: return Confidence::kValidated;
        case Tier::kUnvalidated: return Confidence::kUnvalidated;
        case Tier::kInconclusive: return Confidence::kInconclusive;
    }
    return Confidence::kUnchecked;
}

ValidationReport validate_result(const php::Project& project,
                                 const KnowledgeBase& kb,
                                 const AnalysisOptions& options,
                                 const AnalysisResult& result,
                                 const ValidateOptions& vopts) {
    TaskTeam team(resolve_parallelism(vopts.workers) - 1);
    return validate_result(project, kb, options, result, vopts, team);
}

ValidationReport validate_result(const php::Project& project,
                                 const KnowledgeBase& kb,
                                 const AnalysisOptions& options,
                                 const AnalysisResult& result,
                                 const ValidateOptions& vopts,
                                 TaskTeam& team) {
    const double start = now_seconds();
    ValidationReport report;
    report.tool = result.tool;
    report.plugin = result.plugin;
    const size_t n = result.findings.size();
    report.cases.resize(n);

    // ---- 1. group findings by execution key -------------------------------
    // Key = (entry file, payload, seed class): replays with equal keys seed
    // the interpreter identically and run the same file, so they share one
    // execution. Group order is first-appearance order — deterministic in
    // the findings' total order, independent of map iteration.
    std::vector<ExecGroup> groups;
    std::vector<size_t> slot(n);
    std::map<std::string, size_t> group_index;
    for (size_t i = 0; i < n; ++i) {
        const Finding& finding = result.findings[i];
        const std::string payload = Validator::payload_for(finding.kind);
        const std::string key =
            finding.location.file + '\x1f' + payload + '\x1f' +
            to_string(Validator::seed_class(finding.vector));
        const auto [it, inserted] =
            group_index.emplace(key, groups.size());
        if (inserted) {
            ExecGroup group;
            group.file = finding.location.file;
            group.vector = finding.vector;
            group.payload = payload;
            groups.push_back(std::move(group));
        }
        slot[i] = it->second;
    }
    report.executions = static_cast<int>(groups.size());

    // ---- 2. fan executions across the team, merge by index ----------------
    std::vector<dynamic::ExecResult> runs(groups.size());
    team.run(groups.size(), [&](size_t g) {
        dynamic::Interpreter interpreter(project, vopts.exec);
        Validator::seed_vector(interpreter, groups[g].vector,
                               groups[g].payload);
        runs[g] = interpreter.run_file(groups[g].file);
    });

    // ---- 3. judge each finding against its shared execution ---------------
    for (size_t i = 0; i < n; ++i) {
        const Finding& finding = result.findings[i];
        CaseOutcome& outcome = report.cases[i];
        outcome.replay = Validator::judge(finding, runs[slot[i]],
                                          groups[slot[i]].payload);
        if (outcome.replay.confirmed) {
            outcome.tier = Tier::kValidated;
            ++report.validated;
        } else if (outcome.replay.executed) {
            outcome.tier = Tier::kUnvalidated;
            ++report.unvalidated;
        } else {
            outcome.tier = Tier::kInconclusive;
            ++report.inconclusive;
        }
    }

    // ---- 4. remediation: propose serially (cheap), verify in parallel ----
    if (vopts.propose_fixes) {
        std::vector<std::optional<Quickfix>> proposals(n);
        for (size_t i = 0; i < n; ++i) {
            proposals[i] = propose_quickfix(project, kb, result.findings[i]);
            if (proposals[i]) ++report.fixes_proposed;
        }
        // Every rescan compares against these, so render each once.
        std::vector<std::string> signatures(report.fixes_proposed > 0 ? n : 0);
        for (size_t i = 0; i < signatures.size(); ++i)
            append_signature(signatures[i], result.findings[i]);

        std::vector<FixCheck> checks(n);
        team.run(n, [&](size_t i) {
            if (!proposals[i]) return;
            checks[i] = verify_fix(project, kb, options, result, signatures, i,
                                   *proposals[i], vopts.exec);
            if (checks[i].verified) {
                proposals[i]->verified = true;
                report.cases[i].fix = std::move(proposals[i]);
            }
        });
        for (const FixCheck& check : checks) {
            report.forks += check.forked;
            report.rescans += check.rescanned;
            report.fixes_verified += check.verified;
        }
    }

    report.wall_seconds = now_seconds() - start;
    return report;
}

void apply_confidence(AnalysisResult& result, const ValidationReport& report) {
    const size_t n =
        std::min(result.findings.size(), report.cases.size());
    for (size_t i = 0; i < n; ++i)
        result.findings[i].confidence = to_confidence(report.cases[i].tier);
}

std::string validation_signature(const AnalysisResult& result,
                                 const ValidationReport& report) {
    std::ostringstream os;
    os << "tool=" << report.tool << " plugin=" << report.plugin
       << " cases=" << report.cases.size()
       << " executions=" << report.executions << " tiers=" << report.validated
       << "/" << report.unvalidated << "/" << report.inconclusive
       << " fixes=" << report.fixes_proposed << "/" << report.fixes_verified
       << '\n';
    const size_t n =
        std::min(result.findings.size(), report.cases.size());
    for (size_t i = 0; i < n; ++i) {
        const CaseOutcome& outcome = report.cases[i];
        os << to_string(result.findings[i]) << " => "
           << to_string(outcome.tier)
           << " confirmed=" << outcome.replay.confirmed
           << " executed=" << outcome.replay.executed
           << " payload=" << outcome.replay.payload_used
           << " evidence=" << outcome.replay.evidence << '\n';
        if (outcome.fix)
            os << "  fix[" << to_string(outcome.fix->kind) << "] "
               << outcome.fix->file << ":" << outcome.fix->line << " {"
               << outcome.fix->before << "} -> {" << outcome.fix->after
               << "}\n";
    }
    return os.str();
}

}  // namespace phpsafe::validate
