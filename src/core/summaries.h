// Function summaries (paper §III.C: "every function is analyzed only the
// first time it is called; the data flow of this analysis is used to
// process future calls"). A summary records, per parameter, which
// vulnerability kinds pass unsanitized to the return value and to each
// sensitive sink inside the function, plus any taint the function produces
// on its own (internal sources). Recursive calls are cut by the
// `in_progress` marker, matching the paper's endless-loop guard.
#pragma once

#include <string>
#include <vector>

#include "config/knowledge.h"
#include "core/finding.h"
#include "core/taint.h"
#include "util/source.h"

namespace phpsafe {

/// A sink inside a summarized function reachable from a parameter.
struct ParamSinkFlow {
    int param = 0;
    VulnSet kinds;              ///< kinds that reach the sink unsanitized
    VulnKind vuln = VulnKind::kXss;
    SourceLocation location;    ///< sink location inside the callee
    std::string sink_name;
    std::string variable;       ///< vulnerable expression at the sink
    bool via_oop = false;
};

struct FunctionSummary {
    bool analyzed = false;
    bool in_progress = false;   ///< recursion guard

    /// Return-value taint independent of arguments (internal sources).
    TaintValue return_base;

    /// Per-parameter kinds that flow into the return value unsanitized.
    std::vector<ParamFlow> param_to_return;

    /// Kinds the function sanitizes on flows from parameter to return (the
    /// paper's inter-procedural check "if the function is able to sanitize
    /// the tainted data"). Derived: a kind missing from param_to_return for
    /// a parameter that does reach the return was sanitized en route.
    std::vector<ParamSinkFlow> param_sinks;

    /// True when the summarized body writes taint into globals/properties;
    /// those writes happen against the live stores during summarization.
    bool has_side_effects = false;

    /// Final taint of by-reference parameters (PHP `function f(&$x)`): the
    /// callee's writes flow back into the caller's argument variable.
    struct ParamOut {
        int param = 0;
        TaintValue value;
    };
    std::vector<ParamOut> param_outputs;
};

/// One run's summaries, indexed by php::FunctionRef::summary_slot: every
/// declaration of one folded qualified name ("function" or
/// "class::method") shares a summary.
class SummaryStore {
public:
    /// Drops every summary and makes room for `slots` (the project's
    /// php::Project::summary_slots()).
    void reset(size_t slots);
    FunctionSummary& slot(uint32_t index) { return summaries_[index]; }
    const FunctionSummary& at(uint32_t index) const { return summaries_[index]; }

    /// Number of summaries whose body was analyzed (engine statistics).
    size_t analyzed_count() const noexcept;

private:
    std::vector<FunctionSummary> summaries_;
};

}  // namespace phpsafe
