// Vulnerability findings and per-run analysis results (paper §III.D:
// results-processing stage). A Finding carries everything phpSAFE's report
// page shows: the vulnerable variable, the sink, the entry point, and the
// variable-to-variable flow of the malicious data.
#pragma once

#include <string>
#include <vector>

#include "config/knowledge.h"
#include "core/taint.h"
#include "obs/counters.h"
#include "util/diagnostics.h"
#include "util/source.h"

namespace phpsafe {

/// Dynamic-confirmation tier of a finding (paper §III.E / §IV.B.5: the
/// authors confirmed reports by executing the attack; validate/ automates
/// that). kUnchecked means the validation pipeline never ran — the state
/// every engine-produced finding starts in. Deliberately NOT part of a
/// finding's analysis identity: dedup_key() and the deduplicate() total
/// order ignore it, so tiering a result never changes
/// which findings it contains or their order.
enum class Confidence : uint8_t {
    kUnchecked = 0,   ///< dynamic validation was not attempted
    kValidated,       ///< the replayed payload broke out at the sink
    kUnvalidated,     ///< the replay ran but the payload never surfaced
    kInconclusive,    ///< the replay could not run (error, missing entry)
};

std::string to_string(Confidence confidence);

struct Finding {
    VulnKind kind = VulnKind::kXss;
    SourceLocation location;   ///< where the sink fires
    std::string sink;          ///< "echo", "mysql_query", "wpdb::get_results", ...
    std::string variable;      ///< source text of the vulnerable expression
    InputVector vector = InputVector::kUnknown;
    bool via_oop = false;      ///< flow involved OOP constructs (paper §V.A)
    Confidence confidence = Confidence::kUnchecked;  ///< validate/ tier
    std::vector<TaintStep> trace;

    /// Two findings are the same vulnerability when kind, sink location and
    /// vulnerable variable agree (normalized report matching, paper §IV.B.5).
    std::string dedup_key() const;
};

std::string to_string(const Finding& finding);

/// Run statistics — the reproduction of the reviewer-facing data phpSAFE's
/// results-processing stage exposes besides the findings themselves
/// (§III.D: variables, functions, files included, debug information).
struct AnalysisStats {
    int functions_summarized = 0;  ///< distinct user functions/methods analyzed
    int uncalled_functions = 0;    ///< functions never called from plugin code
    int includes_followed = 0;     ///< include/require edges resolved in-project
    int sink_checks = 0;           ///< sensitive-argument checks performed
    int sources_seen = 0;          ///< taint introductions (superglobals, APIs)
    int variables_tracked = 0;     ///< peak variable slots across scopes
};

/// Result of analyzing one plugin with one tool.
struct AnalysisResult {
    std::string tool;
    std::string plugin;
    std::vector<Finding> findings;
    int files_total = 0;
    int files_failed = 0;     ///< robustness: files the tool could not analyze
    int error_messages = 0;   ///< error diagnostics raised during the run
    double cpu_seconds = 0.0; ///< filled by the harness
    /// CPU spent inside included files (subset of cpu_seconds; filled by the
    /// engine so the evaluation driver can attribute the include stage).
    double include_cpu_seconds = 0.0;
    AnalysisStats stats;
    /// Observability counters captured around the run (filled by run_tool).
    obs::Counters counters;
    std::vector<Diagnostic> diagnostics;

    int count(VulnKind kind) const noexcept;
};

/// Sorts findings into a total order (every field participates, so the
/// result is independent of discovery order) and removes duplicates.
void deduplicate(std::vector<Finding>& findings);

}  // namespace phpsafe
