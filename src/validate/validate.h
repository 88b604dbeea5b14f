// Batch exploit-confirmation + verified auto-remediation pipeline — the
// productionized form of the paper's §III.E exploit-confirmation step.
// Runs after a scan:
//
//   1. Candidate findings are grouped by *execution key* — (entry file,
//      payload kind, seed class): two findings whose replays would seed the
//      interpreter identically and execute the same file share ONE bounded
//      interpreter run (dynamic::Validator::seed_class). This is where the
//      batch speedup over one-at-a-time replay comes from, and it is exact:
//      the interpreter is deterministic, so judging a shared ExecResult per
//      finding is byte-identical to replaying each finding alone.
//   2. Execution groups fan out across a TaskTeam (util/worker_pool.h):
//      the caller's own, or a private one sized by ValidateOptions::workers
//      (PHPSAFE_JOBS aware). A served validate runs on the service's team,
//      so it shares the `--workers` threads and starts none. Results merge
//      by group index, so the tiered output is byte-identical at any
//      worker count.
//   3. Every finding is tiered: validated (payload broke out at the sink),
//      unvalidated (replay ran, payload never surfaced) or inconclusive
//      (replay could not run). Tiers thread into Finding::confidence via
//      apply_confidence and from there into the JSON/HTML reports.
//   4. With fixes enabled, the remediation engine (validate/quickfix.h)
//      proposes a textual fix per finding and *verifies* each one on the
//      patched unit, cheapest deciding gate first — reparse clean, then the
//      interpreter replay no longer confirms the flow, then an analyzer
//      re-scan kills exactly the targeted finding with every other finding
//      byte-identical. Only fixes passing all gates are emitted; a fix the
//      replay rejects costs no re-scan.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/finding.h"
#include "dynamic/validator.h"
#include "php/project.h"
#include "util/worker_pool.h"
#include "validate/quickfix.h"

namespace phpsafe::validate {

/// Confidence tier of one validated finding (maps 1:1 onto the non-default
/// Confidence values; a separate enum so the pipeline cannot produce
/// kUnchecked).
enum class Tier : uint8_t { kValidated, kUnvalidated, kInconclusive };

std::string to_string(Tier tier);
Confidence to_confidence(Tier tier);

/// Outcome for one finding, index-aligned with the input findings.
struct CaseOutcome {
    Tier tier = Tier::kInconclusive;
    dynamic::ValidationResult replay;
    /// Present only when a proposed fix passed every verification gate.
    std::optional<Quickfix> fix;
};

struct ValidateOptions {
    dynamic::ExecOptions exec;  ///< per-case interpreter budgets
    /// Threads for the replay/verification fan-out, the caller included;
    /// <= 0 means auto (PHPSAFE_JOBS or hardware concurrency). Unused when
    /// validate_result is handed a TaskTeam. The tiered output is
    /// byte-identical at any value.
    int workers = 0;
    /// Run the remediation engine (propose + verify quickfixes).
    bool propose_fixes = true;
};

struct ValidationReport {
    std::string tool;
    std::string plugin;
    std::vector<CaseOutcome> cases;  ///< aligned with result.findings
    int validated = 0;
    int unvalidated = 0;
    int inconclusive = 0;
    /// Deduplicated interpreter runs the batch actually executed — the
    /// sequential replay would have run cases.size() of them.
    int executions = 0;
    int fixes_proposed = 0;  ///< proposals the remediation engine produced
    int fixes_verified = 0;  ///< proposals that passed every gate (emitted)
    /// Verification work: patched projects forked and analyzer re-scans
    /// run. Cost only, like wall_seconds: never part of the identity.
    int forks = 0;
    int rescans = 0;
    double wall_seconds = 0.0;  ///< measured; never part of the identity
};

/// Runs the pipeline over a scan result. `project` must be built (every
/// added file parsed by parse_all()): fix verification forks it, and a fix
/// whose file it cannot fork is not verified. `kb`/`options` must be the
/// configuration that produced `result` (fix verification re-runs the
/// analyzer with them).
ValidationReport validate_result(const php::Project& project,
                                 const KnowledgeBase& kb,
                                 const AnalysisOptions& options,
                                 const AnalysisResult& result,
                                 const ValidateOptions& vopts = {});

/// The same pipeline, fanned out on `team` (the caller takes part) instead
/// of a private team of `vopts.workers - 1` threads.
ValidationReport validate_result(const php::Project& project,
                                 const KnowledgeBase& kb,
                                 const AnalysisOptions& options,
                                 const AnalysisResult& result,
                                 const ValidateOptions& vopts, TaskTeam& team);

/// Stamps each finding's confidence from the report's tiers.
void apply_confidence(AnalysisResult& result, const ValidationReport& report);

/// Canonical byte rendering of everything the pipeline's semantics
/// determine (per-case finding identity, tier, replay verdict + evidence,
/// verified fix edits; wall time excluded) — the string the determinism
/// tests and the bench identity gates compare.
std::string validation_signature(const AnalysisResult& result,
                                 const ValidationReport& report);

}  // namespace phpsafe::validate
