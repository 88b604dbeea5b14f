// Taint domain for the analysis engine. A TaintValue is the abstract value
// of one PHP expression/variable: which vulnerability kinds it can carry
// (active), which were neutralized by sanitizers but could be revived by
// revert functions (latent — paper §III.A "revert functions"), where the
// data originally entered (input vector, for the Table II root-cause
// analysis), and the data-flow trace phpSAFE shows the reviewer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/knowledge.h"
#include "util/source.h"

namespace phpsafe {

/// One hop in a data-flow trace (source → assignments → sink).
struct TaintStep {
    SourceLocation location;
    std::string description;
};

/// Copy-on-write data-flow trace. The engine copies TaintValues on every
/// assignment, merge and argument pass; with an eager std::vector<TaintStep>
/// each copy duplicated up to kMaxTraceSteps location strings. A Trace is
/// instead an immutable cons list (each node holds one step and a shared
/// pointer to its parent), so copying a trace — and therefore a TaintValue —
/// is one refcount increment, and extending it never touches the copies
/// already handed out. The flat step vector is materialized only when a
/// finding is reported.
class Trace {
public:
    bool empty() const noexcept { return head_ == nullptr; }
    size_t size() const noexcept { return head_ ? head_->depth : 0; }
    void clear() noexcept { head_.reset(); }

    /// Appends a step. Shared suffixes are untouched: values that copied
    /// this trace earlier keep their version.
    void push(SourceLocation loc, std::string description);

    /// The most recent step; trace must be non-empty.
    const TaintStep& back() const noexcept { return head_->step; }

    /// Materializes the steps in source order (oldest first).
    std::vector<TaintStep> steps() const;

private:
    struct Node {
        TaintStep step;
        std::shared_ptr<const Node> parent;
        uint32_t depth = 0;  ///< number of steps up to and including this one
    };
    std::shared_ptr<const Node> head_;
};

/// During function summarization, marks that a value depends on parameter
/// `param`: if the caller passes taint of a kind in `kinds`, it arrives here.
struct ParamFlow {
    int param = 0;
    VulnSet kinds = kBothVulns;
};

class TaintValue {
public:
    VulnSet active;                ///< exploitable kinds right now
    VulnSet latent;                ///< sanitized away; revivable by reverts
    InputVector vector = InputVector::kUnknown;
    bool user_input = false;       ///< directly from GET/POST/COOKIE/REQUEST
    bool via_oop = false;          ///< flowed through an OOP construct
    std::string object_class;      ///< inferred class when the value is an object
    Trace trace;
    std::vector<ParamFlow> param_flows;

    /// Traces are capped so merges in loops cannot grow without bound.
    static constexpr size_t kMaxTraceSteps = 24;

    static TaintValue clean() { return TaintValue{}; }

    static TaintValue source(VulnSet kinds, InputVector vec, SourceLocation loc,
                             std::string what);

    bool tainted(VulnKind kind) const noexcept { return active.contains(kind); }
    bool tainted_any() const noexcept { return active.any(); }
    bool depends_on_params() const noexcept { return !param_flows.empty(); }

    /// Control-flow join / concatenation: union of everything.
    void merge(const TaintValue& other);

    void add_step(SourceLocation loc, std::string description);

    /// Applies a sanitizer: `kinds` move from active to latent; parameter
    /// flows lose those kinds.
    void apply_sanitizer(VulnSet kinds, SourceLocation loc, std::string_view fn);

    /// Applies a revert function: latent kinds in `kinds` become active
    /// again; parameter flows conservatively regain them.
    void apply_revert(VulnSet kinds, SourceLocation loc, std::string_view fn);

    /// Adds/unions a parameter dependency.
    void add_param_flow(int param, VulnSet kinds);

    /// Drops everything (PHP unset(): paper marks the variable untainted).
    void reset() { *this = TaintValue{}; }
};

}  // namespace phpsafe
