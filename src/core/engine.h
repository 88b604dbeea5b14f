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

#include <map>
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

    /// Hermetic summaries (the analysis service's presets, fix verification's
    /// rescans): every declared function is summarized context-free, in
    /// declaration order, before any entry file runs, and first-call
    /// argument context is ignored. This makes a summary a pure function of
    /// the project content reachable from it — the property that lets fix
    /// verification seed summaries across rescans —
    /// at the cost of the paper's "context of the first call" side-effect
    /// materialization. Requires analyze_uncalled_functions to change stage
    /// order; without it the flag only disables call-context sensitivity.
    bool hermetic_summaries = false;

    /// Capture/seed each entry file's top-level walk (its "main function",
    /// paper §III.C) as an artifact alongside the function summaries, keyed
    /// "file:<name>". The artifact stores the final value of every shared
    /// slot (global, class-level or static property) the walk wrote, replayed
    /// on seeding so later entry files see the state a fresh walk would have
    /// left, and the fingerprint of every slot it read before writing; a
    /// seed applies only while each of those still matches the live stores
    /// (foreign reads). State a replay cannot reproduce (truncation
    /// diagnostics, whole-scope captures) makes the artifact non-reusable.
    /// Off by default; only the validation pipeline's
    /// fix-verification rescans opt in. Requires
    /// hermetic_summaries (stage-1' ordering is what makes the walk a pure
    /// function of file content + replayed globals).
    bool capture_entry_files = false;

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
    Builder& hermetic_summaries(bool v) { options_.hermetic_summaries = v; return *this; }
    Builder& capture_entry_files(bool v) { options_.capture_entry_files = v; return *this; }

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

    /// Analyze with cross-run summary exchange (see core/summaries.h).
    /// Seeded summaries are installed instead of analyzing their bodies and
    /// their recorded findings are replayed; computed summaries are captured
    /// with their dependency records. Findings are identical to an
    /// exchange-free run for any valid seed set — fix verification relies
    /// on it (tests/validate_test.cpp, bench_validate's identity gate).
    AnalysisResult analyze(const php::Project& project,
                           const SummaryExchange& exchange);

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
    void summarize_uncalled();
    void summarize_all_declared();

    // -- cross-run summary capture ---------------------------------------------
    /// Records a project observation on every active capture (no-op when the
    /// capture stack is empty — the default-mode cost is one empty() check).
    void note_dep(SummaryDep::Kind kind, std::string_view name,
                  std::string_view file);
    /// Marks every active capture non-reusable: the summarization touched
    /// state a seed replay cannot reproduce and the shared-slot machinery
    /// below cannot pin (truncation diagnostics, whole-scope captures).
    void touch_shared_state();
    /// Records a read of a shared slot — a plain global ("$x"), a
    /// class-level property ("cls::prop") or a static property
    /// ("cls::$prop"), all interned into one keyspace (variables carry the
    /// '$' sigil, class names cannot). Function frames die (a summary
    /// replay cannot reproduce shared state); an entry frame records the
    /// observed value's signature unless it wrote the slot first, and the
    /// artifact seeds later only while the slot still matches.
    void note_shared_read(Symbol name);
    /// Records a write to a shared slot. Function frames die as above; an
    /// entry frame tracks the write (the final value is captured and
    /// replayed on seeding), a weak write to a slot it does not own also
    /// observing the prior state like a read (the merge consumes it).
    void note_shared_write(Symbol name, bool strong);
    /// The current value of a shared slot by interned key, or null when the
    /// slot is absent from its store.
    const TaintValue* find_shared_slot(Symbol name);
    /// Installs a seeded artifact for `key`; true when a seed was applied.
    bool apply_summary_seed(const std::string& key, FunctionSummary& slot);
    /// Replays a seeded entry-file artifact (findings + final shared-slot
    /// writes); true when a seed was applied and the walk can be skipped.
    bool apply_entry_seed(const std::string& key);
    /// Pops the innermost capture frame and stores its artifact.
    void finish_capture(const std::string& key, const FunctionSummary& summary);

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

    /// Interns the shared-slot key of a class-level ("cls::prop") or static
    /// ("cls::$prop") property — byte-identical to the PropertyStore's own
    /// key, class lowercased, so every call site maps one store slot to one
    /// symbol. One keyspace with plain globals: variable names carry the
    /// '$' sigil, class names cannot, so the forms never collide.
    Symbol slot_sym(std::string_view cls, bool is_static, std::string_view prop) {
        path_buf_.clear();
        for (const char c : cls)
            path_buf_ += (c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32) : c;
        path_buf_ += is_static ? "::$" : "::";
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
    std::set<std::string> included_once_;
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

    // -- cross-run summary exchange state ---------------------------------------
    /// One frame per summarize() call currently on the stack while capture is
    /// active. The innermost frame records findings and dependency
    /// observations; when it pops, both propagate to the enclosing frame (a
    /// caller transitively depends on everything its callees observed).
    struct CaptureFrame {
        std::string key;              ///< lowercased qualified name
        SummaryArtifact artifact;     ///< deps + findings accumulate here
        bool reusable = true;
        bool entry = false;           ///< entry-file frame (stack bottom)
        /// Entry frames: diagnostics_ size at frame push — everything the
        /// sink accumulates past this mark was emitted by the walk and is
        /// captured into the artifact for replay.
        size_t diag_mark = 0;
        /// Shared slots this entry wrote (see note_shared_read for the
        /// keyspace); reads of these slots stay self-contained.
        std::set<Symbol> slots_written;
        /// Shared slots read (or weak-merged) before any own write, with
        /// the value_fingerprint observed at first touch (0 = absent slot).
        /// Becomes the artifact's seed-time validity check.
        std::map<Symbol, uint64_t> foreign_observed;
    };
    SummaryExchange exchange_;
    std::vector<CaptureFrame> capture_stack_;
    /// Every summary this run installed (computed or seeded), so a later
    /// reuse of it can absorb its dependency record into the active frame.
    std::map<std::string, const SummaryArtifact*> run_artifacts_;
};

}  // namespace phpsafe
