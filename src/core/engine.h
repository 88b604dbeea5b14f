// The phpSAFE analysis engine (paper §III): flow-sensitive, inter- and
// intra-procedural taint analysis over the AST, with function summaries
// ("a function is parsed only once; the summary is reused"), OOP member
// resolution, include following, analysis of functions never called from
// plugin code, and configurable feature degradation so the RIPS-like and
// Pixy-like baselines can run on the same substrate.
//
// Statement processing follows the paper's semantics: conditionals and
// loops "do not change the data flow — the blocks of code are parsed
// normally", i.e. branches are processed sequentially in the same
// environment; unset() marks a variable untainted; assignment recomputes
// the variable's classification from the right-hand side.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "config/knowledge.h"
#include "core/finding.h"
#include "core/oop.h"
#include "core/summaries.h"
#include "core/taint.h"
#include "php/project.h"
#include "util/flat_map.h"
#include "util/interner.h"

namespace phpsafe {

struct AnalysisOptions {
    std::string tool_name = "phpSAFE";

    /// Resolve OOP constructs (methods, properties, `new`, `$this`). When
    /// off (RIPS-like), method calls are opaque and never match configured
    /// sources/sinks — the paper's explanation for why RIPS and Pixy miss
    /// every vulnerability that flows through WordPress objects.
    bool oop_support = true;

    /// Abort a file when it contains OOP constructs (Pixy predates PHP 5
    /// OOP; the paper reports it failed on 32 files and raised errors).
    bool fail_on_oop_file = false;

    /// Analyze functions never called from plugin code (paper §III.C; the
    /// paper observes Pixy lacks this ability).
    bool analyze_uncalled_functions = true;

    /// When analyzing an uncalled function, also report parameter-derived
    /// sink flows as findings (the CMS may pass attacker data in).
    bool assume_params_tainted_in_uncalled = false;

    /// Number of times loop bodies are processed (1 = paper-faithful single
    /// pass; 2 catches loop-carried flows — used by the ablation bench).
    int loop_iterations = 1;

    /// Include-chain depth limit; exceeding it aborts the file with a fatal
    /// diagnostic (models the paper's report that phpSAFE failed to analyze
    /// files "with many includes requiring a lot of memory").
    int max_include_depth = 8;

    /// Call-depth guard for deeply nested user-function chains.
    int max_call_depth = 48;

    /// Track object classes through `new` / known globals; required for
    /// class-specific method configuration ($wpdb).
    bool track_object_types = true;

    /// Analyze closure bodies at their creation point (treats hooks
    /// registered as anonymous functions as reachable).
    bool analyze_closures = true;

    /// Stable key of every field that changes analysis semantics. Two
    /// engines with equal fingerprints produce identical results on equal
    /// input — the analysis-preset component of the service's cache keys.
    std::string fingerprint() const;

    /// Fluent construction (see Builder below). `AnalysisOptions` values
    /// are treated as immutable once an Engine/Analyzer holds them; the
    /// builder is the supported way to derive a modified copy.
    class Builder;
    static Builder builder();
    Builder to_builder() const;

    // -- named presets (paper §IV.B.3 tool envelopes) -------------------------
    // The single source of truth for each tool's capability envelope;
    // baselines, benches, and tests all start from these instead of wiring
    // individual flags by hand.

    /// phpSAFE: OOP-aware, analyzes uncalled functions, include-depth
    /// limited (paper §V.E: failed on very deep include chains).
    static AnalysisOptions phpsafe();

    /// RIPS-like: strong procedural analysis, no OOP member resolution;
    /// robust on all files (the paper reports RIPS completed every file).
    static AnalysisOptions rips_like();

    /// Pixy-like: predates PHP 5 OOP (files using OOP fail), no analysis of
    /// functions never called from plugin code.
    static AnalysisOptions pixy_like();
};

/// Immutable-style builder over AnalysisOptions: each setter returns the
/// builder, build() yields the finished value. Start from defaults
/// (AnalysisOptions::builder()), from a preset
/// (AnalysisOptions::phpsafe().to_builder()) or from any existing options
/// value.
class AnalysisOptions::Builder {
public:
    Builder() = default;
    explicit Builder(AnalysisOptions base) : options_(std::move(base)) {}

    Builder& tool_name(std::string v) { options_.tool_name = std::move(v); return *this; }
    Builder& oop_support(bool v) { options_.oop_support = v; return *this; }
    Builder& fail_on_oop_file(bool v) { options_.fail_on_oop_file = v; return *this; }
    Builder& analyze_uncalled_functions(bool v) { options_.analyze_uncalled_functions = v; return *this; }
    Builder& assume_params_tainted_in_uncalled(bool v) { options_.assume_params_tainted_in_uncalled = v; return *this; }
    Builder& loop_iterations(int v) { options_.loop_iterations = v; return *this; }
    Builder& max_include_depth(int v) { options_.max_include_depth = v; return *this; }
    Builder& max_call_depth(int v) { options_.max_call_depth = v; return *this; }
    Builder& track_object_types(bool v) { options_.track_object_types = v; return *this; }
    Builder& analyze_closures(bool v) { options_.analyze_closures = v; return *this; }

    AnalysisOptions build() const { return options_; }

private:
    AnalysisOptions options_;
};

inline AnalysisOptions::Builder AnalysisOptions::builder() { return Builder(); }
inline AnalysisOptions::Builder AnalysisOptions::to_builder() const {
    return Builder(*this);
}

class Engine {
public:
    /// Instrumentation hook interface — the supported way to watch a run
    /// from outside (the obs tracer, progress UIs, and tests all plug in
    /// here instead of patching private engine code). Callbacks fire on the
    /// thread running analyze(), in deterministic order for a fixed
    /// (project, options) pair. The default implementations do nothing, so
    /// an Engine without an observer pays one null check per event.
    class Observer {
    public:
        virtual ~Observer() = default;
        /// The engine starts flow analysis of an entry file. Fired for
        /// every project file, including ones that immediately fail.
        virtual void on_file_begin(const php::ParsedFile&) {}
        /// The entry file is done; `failed` is true when it counts toward
        /// AnalysisResult::files_failed (parse failure, unsupported OOP,
        /// include-depth abort).
        virtual void on_file_end(const php::ParsedFile&, bool /*failed*/) {}
        /// A function summary was computed (its body was just analyzed).
        virtual void on_function_summary(const php::FunctionRef&,
                                         const FunctionSummary&) {}
        /// A finding was reported (before deduplication).
        virtual void on_finding(const Finding&) {}
    };

    Engine(const KnowledgeBase& kb, AnalysisOptions options = {});

    /// Analyzes a whole plugin. Repeatable: all run state is reset.
    AnalysisResult analyze(const php::Project& project);

    const AnalysisOptions& options() const noexcept { return options_; }

    /// Installs an observer for subsequent analyze() calls (null detaches).
    /// Not owned; must outlive the runs it observes.
    void set_observer(Observer* observer) noexcept { observer_ = observer; }
    Observer* observer() const noexcept { return observer_; }

private:
    /// Scopes key their variable maps by interned Symbols (see
    /// util/interner.h): one hash + flat probe per lookup instead of the
    /// seed's O(log n) string-comparing std::map walk.
    struct Scope {
        SymbolMap<TaintValue> vars;
        SymbolSet global_aliases;  ///< names bound by `global`
        /// Reference aliases ($a =& $b): alias name → canonical name. The
        /// paper runs Pixy with "-A" to enable exactly this handling.
        SymbolMap<Symbol> ref_aliases;
        /// Set after extract($tainted): reads of variables never assigned
        /// in this scope yield this taint (extract() can define any name).
        TaintValue extract_taint;
        const php::ClassDecl* current_class = nullptr;
        FunctionSummary* summary = nullptr;  ///< set while summarizing a body
        bool is_global = false;
        std::string file;
    };

    // -- drivers -------------------------------------------------------------
    void analyze_entry_file(const php::ParsedFile& file);
    void summarize_uncalled(const std::vector<php::FunctionRef>& uncalled);

    // -- statements ----------------------------------------------------------
    void exec_stmts(const ArenaVector<php::StmtPtr>& stmts, Scope& scope);
    void exec_stmt(const php::Stmt& stmt, Scope& scope);
    void exec_unset(const php::UnsetStmt& stmt, Scope& scope);
    /// Folds a return (or __yield) value into the enclosing summary.
    void finish_return(const TaintValue& value, Scope& scope);

    // -- expressions ---------------------------------------------------------
    TaintValue eval(const php::Expr& expr, Scope& scope);
    TaintValue eval_variable(const php::Variable& var, Scope& scope);
    TaintValue eval_array_access(const php::ArrayAccess& access, Scope& scope);
    TaintValue eval_property_access(const php::PropertyAccess& access, Scope& scope);
    TaintValue read_static_property(const php::StaticPropertyAccess& access,
                                    Scope& scope);
    TaintValue eval_function_call(const php::FunctionCall& call, Scope& scope);
    TaintValue eval_method_call(const php::MethodCall& call, Scope& scope);
    TaintValue eval_static_call(const php::StaticCall& call, Scope& scope);
    TaintValue eval_new(const php::New& expr, Scope& scope);
    TaintValue eval_assign(const php::Assign& assign, Scope& scope);
    TaintValue eval_include(const php::IncludeExpr& inc, Scope& scope);
    void eval_closure_body(const php::Closure& closure, Scope& scope);
    /// Taint introduction for a superglobal read ($_GET or $_GET['k']).
    TaintValue superglobal_source(const SuperglobalInfo& sg, SourceLocation loc,
                                  std::string_view name, const php::Expr* index);

    // -- calls ---------------------------------------------------------------
    std::vector<TaintValue> eval_args(const ArenaVector<php::Argument>& args,
                                      Scope& scope);
    TaintValue apply_builtin(const FunctionInfo& info, std::string_view name,
                             const ArenaVector<php::Argument>& arg_exprs,
                             std::vector<TaintValue>& args, SourceLocation loc,
                             Scope& scope, bool via_oop);
    TaintValue apply_user_function(const php::FunctionRef& ref,
                                   const std::vector<TaintValue>& args,
                                   SourceLocation loc, Scope& scope,
                                   std::string_view display_name,
                                   const ArenaVector<php::Argument>* arg_exprs =
                                       nullptr);
    /// Computes the function's summary on first use. When `first_call_args`
    /// is provided (a real call site), parameters carry the caller's actual
    /// taint in addition to the symbolic parameter markers — the paper's
    /// "analyzed the first time it is called, taking into account the
    /// context of the call" — so side effects on properties and globals are
    /// materialized with real taint.
    FunctionSummary& summarize(const php::FunctionRef& ref,
                               const std::vector<TaintValue>* first_call_args = nullptr);

    /// Variable lookup honoring global scope (used by closure capture).
    TaintValue lookup_var(std::string_view name, Scope& scope);

    /// Interns a (case-sensitive) variable or path name for this run.
    Symbol sym(std::string_view name) { return symbols_.intern(name); }

    /// Interns the "$obj->prop" path slot for a property access without a
    /// per-call allocation (the composite is built into a reused buffer).
    Symbol path_sym(std::string_view base, std::string_view prop) {
        path_buf_.clear();
        path_buf_ += base;
        path_buf_ += "->";
        path_buf_ += prop;
        return symbols_.intern(path_buf_);
    }

    /// Resolves $a =& $b reference aliases to the canonical variable symbol.
    Symbol resolve_alias(Symbol name, const Scope& scope) const;

    // -- lvalues / stores ------------------------------------------------------
    void assign_to(const php::Expr& target, TaintValue value, Scope& scope,
                   bool weak = false);
    TaintValue read_global(std::string_view name, SourceLocation loc);
    TaintValue& global_slot(std::string_view name);
    TaintValue& global_slot(Symbol name);

    // -- sinks / findings -----------------------------------------------------
    void check_sink(VulnSet sink_kinds, const TaintValue& value,
                    SourceLocation loc, std::string_view sink_name,
                    const std::string& variable, Scope& scope, bool via_oop);
    void report(VulnKind kind, SourceLocation loc, std::string_view sink_name,
                const std::string& variable, const TaintValue& value);

    SourceLocation loc_of(const php::Node& node, const Scope& scope) const {
        return {scope.file, node.line};
    }

    // -- configuration ---------------------------------------------------------
    const KnowledgeBase& kb_;
    AnalysisOptions options_;
    Observer* observer_ = nullptr;

    // -- per-run state -----------------------------------------------------------
    const php::Project* project_ = nullptr;
    SymbolTable symbols_;
    Symbol this_sym_;     ///< interned "$this" (re-interned per run)
    std::string path_buf_;  ///< scratch for path_sym() composite keys
    DiagnosticSink diagnostics_;
    std::vector<Finding> findings_;
    Scope globals_;
    PropertyStore properties_;
    SummaryStore summaries_;
    /// Names of the files entered by this entry file's run, viewing the
    /// names the project's files own. An entry includes few files, so a
    /// flat list beats a node per insert.
    std::vector<std::string_view> included_once_;
    std::vector<const php::ParsedFile*> include_stack_;
    std::set<const php::Closure*> analyzed_closures_;
    /// Classes whose `new` is currently being evaluated. A property default
    /// may itself `new` the same class (directly or via a cycle), which
    /// would re-enter default initialization forever; re-entrant
    /// construction is skipped instead.
    std::set<std::string> constructing_classes_;
    int call_depth_ = 0;
    /// Expression-nesting depth across eval(). The parser bounds nesting per
    /// file, but engine stack frames are far larger than parser ones
    /// (sanitizer builds especially), so eval() truncates well before the
    /// process stack is at risk.
    int eval_depth_ = 0;
    bool current_file_failed_ = false;
    AnalysisStats stats_;
    double include_cpu_seconds_ = 0;  ///< CPU spent executing included files
};

}  // namespace phpsafe
