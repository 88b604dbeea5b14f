#include "core/engine.h"

#include <algorithm>

#include "obs/counters.h"
#include "util/strings.h"
#include "util/timing.h"

namespace phpsafe {

using php::NodeKind;

namespace {

/// Expression-nesting limit for eval(). The parser admits ~500 nested
/// expressions per file; each level costs two engine frames, which are an
/// order of magnitude larger than parser frames under sanitizer builds, so
/// taint evaluation truncates (returns clean) before the stack is at risk.
constexpr int kMaxEvalDepth = 400;

struct EvalDepthScope {
    explicit EvalDepthScope(int& depth) : depth_(depth) { ++depth_; }
    ~EvalDepthScope() { --depth_; }
    int& depth_;
};

/// Best-effort static reconstruction of an include path: concatenates the
/// literal fragments of concat chains / interpolated strings and ignores
/// dynamic parts (dirname(__FILE__), constants, ...).
std::string static_path_hint(const php::Expr& expr) {
    switch (expr.kind) {
        case NodeKind::kLiteral: {
            const auto& lit = static_cast<const php::Literal&>(expr);
            return lit.type == php::Literal::Type::kString ? std::string(lit.value)
                                                           : std::string();
        }
        case NodeKind::kInterpString: {
            std::string out;
            for (const php::ExprPtr& part :
                 static_cast<const php::InterpString&>(expr).parts)
                if (part) out += static_path_hint(*part);
            return out;
        }
        case NodeKind::kBinary: {
            const auto& bin = static_cast<const php::Binary&>(expr);
            if (bin.op != php::BinaryOp::kConcat) return {};
            return static_path_hint(*bin.lhs) + static_path_hint(*bin.rhs);
        }
        default:
            return {};
    }
}

/// Extracts "$_GET['key']"-style display text for a superglobal access.
std::string superglobal_display(std::string_view name, const php::Expr* index) {
    std::string out(name);
    if (!index) return out;
    if (index->kind == NodeKind::kLiteral) {
        const auto& lit = static_cast<const php::Literal&>(*index);
        out += "['";
        out += lit.value;
        out += "']";
        return out;
    }
    out += "[...]";
    return out;
}

}  // namespace

AnalysisOptions AnalysisOptions::phpsafe() {
    AnalysisOptions options;
    options.tool_name = "phpSAFE";
    options.oop_support = true;
    options.analyze_uncalled_functions = true;
    options.max_include_depth = 8;
    return options;
}

AnalysisOptions AnalysisOptions::rips_like() {
    AnalysisOptions options;
    options.tool_name = "RIPS";
    options.oop_support = false;
    options.analyze_uncalled_functions = true;
    options.max_include_depth = 64;  // completed every file in the paper
    options.analyze_closures = true;
    return options;
}

AnalysisOptions AnalysisOptions::pixy_like() {
    AnalysisOptions options;
    options.tool_name = "Pixy";
    options.oop_support = false;
    options.fail_on_oop_file = true;  // predates PHP 5 OOP
    options.analyze_uncalled_functions = false;  // paper §V.A observation
    options.analyze_closures = false;            // closures are PHP 5.3
    options.max_include_depth = 16;
    return options;
}

std::string AnalysisOptions::fingerprint() const {
    std::string fp = tool_name;
    const auto flag = [&fp](bool value) { fp += value ? "|1" : "|0"; };
    flag(oop_support);
    flag(fail_on_oop_file);
    flag(analyze_uncalled_functions);
    flag(assume_params_tainted_in_uncalled);
    flag(track_object_types);
    flag(analyze_closures);
    fp += '|' + std::to_string(loop_iterations);
    fp += '|' + std::to_string(max_include_depth);
    fp += '|' + std::to_string(max_call_depth);
    return fp;
}

Engine::Engine(const KnowledgeBase& kb, AnalysisOptions options)
    : kb_(kb), options_(std::move(options)) {}

AnalysisResult Engine::analyze(const php::Project& project) {
    project_ = &project;
    symbols_.clear();
    this_sym_ = symbols_.intern("$this");
    diagnostics_.clear();
    findings_.clear();
    globals_ = Scope{};
    globals_.is_global = true;
    properties_.clear();
    summaries_.reset(project.summary_slots());
    included_once_.clear();
    include_stack_.clear();
    analyzed_closures_.clear();
    constructing_classes_.clear();
    call_depth_ = 0;
    eval_depth_ = 0;
    stats_ = AnalysisStats{};
    include_cpu_seconds_ = 0;

    AnalysisResult result;
    result.tool = options_.tool_name;
    result.plugin = project.name();
    result.files_total = static_cast<int>(project.files().size());

    // Stage 1 (paper §III.C): inter-procedural parsing of the functions that
    // are not called from the source code of the plugin.
    const std::vector<php::FunctionRef> uncalled = project.uncalled_functions();
    if (options_.analyze_uncalled_functions) summarize_uncalled(uncalled);

    // Stage 2: inter-procedural analysis starting from each file's "main
    // function", following the program flow (calls, includes) from there.
    std::set<std::string> failed_files;
    for (const std::shared_ptr<const php::ParsedFile>& file_ptr : project.files()) {
        const php::ParsedFile& file = *file_ptr;
        if (observer_) observer_->on_file_begin(file);
        if (file.parse_failed) {
            failed_files.insert(file.source->name());
            if (observer_) observer_->on_file_end(file, /*failed=*/true);
            continue;
        }
        if (options_.fail_on_oop_file && file.facts.uses_oop) {
            diagnostics_.add(Severity::kFatal, {file.source->name(), 1},
                             "cannot analyze file: object-oriented constructs "
                             "are not supported by this tool");
            failed_files.insert(file.source->name());
            if (observer_) observer_->on_file_end(file, /*failed=*/true);
            continue;
        }
        current_file_failed_ = false;
        analyze_entry_file(file);
        if (current_file_failed_) failed_files.insert(file.source->name());
        if (observer_) observer_->on_file_end(file, current_file_failed_);
    }

    // Stage 3: any function still without a summary (reached only through
    // dynamic calls) is analyzed for 100% code coverage.
    if (options_.analyze_uncalled_functions) {
        for (const php::FunctionRef& ref : project.all_functions()) {
            if (ref.decl && !summaries_.at(ref.summary_slot).analyzed)
                summarize(ref);
        }
    }

    stats_.uncalled_functions = static_cast<int>(uncalled.size());
    stats_.functions_summarized = static_cast<int>(summaries_.analyzed_count());
    result.stats = stats_;

    deduplicate(findings_);
    result.findings = std::move(findings_);
    result.include_cpu_seconds = include_cpu_seconds_;
    result.files_failed = static_cast<int>(failed_files.size());
    result.error_messages =
        diagnostics_.count(Severity::kError) + diagnostics_.count(Severity::kFatal);
    result.diagnostics = diagnostics_.diagnostics();
    findings_.clear();
    return result;
}

void Engine::summarize_uncalled(const std::vector<php::FunctionRef>& uncalled) {
    for (const php::FunctionRef& ref : uncalled) {
        if (!ref.decl) continue;
        FunctionSummary& summary = summarize(ref);
        if (!options_.assume_params_tainted_in_uncalled) continue;
        // The CMS can call these directly with attacker-controlled
        // arguments; report their parameter-derived sink flows.
        for (const ParamSinkFlow& psf : summary.param_sinks) {
            TaintValue value;
            value.active = VulnSet::of(psf.vuln);
            value.vector = InputVector::kFunction;
            value.via_oop = psf.via_oop;
            value.add_step(psf.location,
                           "parameter of uncalled function " + ref.qualified_name());
            report(psf.vuln, psf.location, psf.sink_name, psf.variable, value);
        }
    }
}

void Engine::analyze_entry_file(const php::ParsedFile& file) {
    Scope scope;
    scope.is_global = true;
    scope.file = file.source->name();
    include_stack_.clear();
    include_stack_.push_back(&file);
    included_once_.clear();
    included_once_.push_back(file.source->name());
    exec_stmts(file.unit.statements, scope);
    // The file-level scope dies here, but `global $x` statements alias into
    // globals_, which persists across entry files: taint written to a plain
    // global by one entry is visible to every later entry in the run.
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Engine::exec_stmts(const ArenaVector<php::StmtPtr>& stmts, Scope& scope) {
    for (const php::StmtPtr& stmt : stmts) {
        if (current_file_failed_) return;
        if (stmt) exec_stmt(*stmt, scope);
    }
}

void Engine::exec_stmt(const php::Stmt& stmt, Scope& scope) {
    switch (stmt.kind) {
        case NodeKind::kExprStmt:
            if (const auto& n = static_cast<const php::ExprStmt&>(stmt); n.expr)
                eval(*n.expr, scope);
            break;
        case NodeKind::kEchoStmt: {
            const auto& n = static_cast<const php::EchoStmt&>(stmt);
            for (const php::ExprPtr& arg : n.args) {
                if (!arg) continue;
                const TaintValue value = eval(*arg, scope);
                check_sink(kXssOnly, value, loc_of(*arg, scope),
                           n.from_open_tag ? "<?=" : "echo", to_php_source(*arg),
                           scope, value.via_oop);
            }
            break;
        }
        case NodeKind::kBlock:
            exec_stmts(static_cast<const php::Block&>(stmt).statements, scope);
            break;
        case NodeKind::kIfStmt: {
            // Paper §III.C: conditional jumps do not change the data flow;
            // the blocks of code are parsed normally (sequentially).
            const auto& n = static_cast<const php::IfStmt&>(stmt);
            if (n.cond) eval(*n.cond, scope);
            if (n.then_branch) exec_stmt(*n.then_branch, scope);
            if (n.else_branch) exec_stmt(*n.else_branch, scope);
            break;
        }
        case NodeKind::kWhileStmt: {
            const auto& n = static_cast<const php::WhileStmt&>(stmt);
            for (int i = 0; i < std::max(1, options_.loop_iterations); ++i) {
                if (n.cond) eval(*n.cond, scope);
                if (n.body) exec_stmt(*n.body, scope);
            }
            break;
        }
        case NodeKind::kDoWhileStmt: {
            const auto& n = static_cast<const php::DoWhileStmt&>(stmt);
            for (int i = 0; i < std::max(1, options_.loop_iterations); ++i) {
                if (n.body) exec_stmt(*n.body, scope);
                if (n.cond) eval(*n.cond, scope);
            }
            break;
        }
        case NodeKind::kForStmt: {
            const auto& n = static_cast<const php::ForStmt&>(stmt);
            for (const php::ExprPtr& e : n.init)
                if (e) eval(*e, scope);
            for (int i = 0; i < std::max(1, options_.loop_iterations); ++i) {
                for (const php::ExprPtr& e : n.cond)
                    if (e) eval(*e, scope);
                if (n.body) exec_stmt(*n.body, scope);
                for (const php::ExprPtr& e : n.update)
                    if (e) eval(*e, scope);
            }
            break;
        }
        case NodeKind::kForeachStmt: {
            const auto& n = static_cast<const php::ForeachStmt&>(stmt);
            TaintValue iterable =
                n.iterable ? eval(*n.iterable, scope) : TaintValue::clean();
            if (iterable.tainted_any())
                iterable.add_step(loc_of(n, scope), "iterated by foreach");
            for (int i = 0; i < std::max(1, options_.loop_iterations); ++i) {
                if (n.key_var) assign_to(*n.key_var, iterable, scope);
                if (n.value_var) assign_to(*n.value_var, iterable, scope);
                if (n.body) exec_stmt(*n.body, scope);
            }
            break;
        }
        case NodeKind::kSwitchStmt: {
            const auto& n = static_cast<const php::SwitchStmt&>(stmt);
            if (n.subject) eval(*n.subject, scope);
            for (const php::SwitchCase& c : n.cases) {
                if (c.match) eval(*c.match, scope);
                exec_stmts(c.body, scope);
            }
            break;
        }
        case NodeKind::kBreakStmt:
        case NodeKind::kContinueStmt:
        case NodeKind::kInlineHtmlStmt:
        case NodeKind::kFunctionDecl:  // indexed during model construction
        case NodeKind::kUseStmt:
            break;
        case NodeKind::kReturnStmt: {
            const auto& n = static_cast<const php::ReturnStmt&>(stmt);
            const TaintValue value =
                n.value ? eval(*n.value, scope) : TaintValue::clean();
            finish_return(value, scope);
            break;
        }
        case NodeKind::kGlobalStmt:
            for (const std::string_view name :
                 static_cast<const php::GlobalStmt&>(stmt).names)
                scope.global_aliases.insert(sym(name));
            break;
        case NodeKind::kStaticVarStmt: {
            const auto& n = static_cast<const php::StaticVarStmt&>(stmt);
            for (const auto& [name, init] : n.vars) {
                if (!init) continue;
                TaintValue value = eval(*init, scope);
                scope.vars[sym(name)] = std::move(value);
            }
            break;
        }
        case NodeKind::kUnsetStmt:
            exec_unset(static_cast<const php::UnsetStmt&>(stmt), scope);
            break;
        case NodeKind::kClassDecl: {
            const auto& n = static_cast<const php::ClassDecl&>(stmt);
            Scope* outer = &scope;
            for (const php::PropertyDecl& prop : n.properties) {
                if (!prop.default_value) continue;
                TaintValue value = eval(*prop.default_value, *outer);
                // Defaults merge into the persistent store (weak write).
                if (prop.is_static)
                    properties_.static_slot(n.name, prop.name).merge(value);
                else
                    properties_.class_slot(n.name, prop.name).merge(value);
            }
            break;
        }
        case NodeKind::kTryStmt: {
            const auto& n = static_cast<const php::TryStmt&>(stmt);
            exec_stmts(n.body, scope);
            for (const php::CatchClause& c : n.catches) {
                if (!c.var.empty()) scope.vars[sym(c.var)] = TaintValue::clean();
                exec_stmts(c.body, scope);
            }
            exec_stmts(n.finally_body, scope);
            break;
        }
        case NodeKind::kThrowStmt:
            if (const auto& n = static_cast<const php::ThrowStmt&>(stmt); n.value)
                eval(*n.value, scope);
            break;
        case NodeKind::kNamespaceStmt:
            exec_stmts(static_cast<const php::NamespaceStmt&>(stmt).body, scope);
            break;
        case NodeKind::kConstStmt: {
            const auto& n = static_cast<const php::ConstStmt&>(stmt);
            for (const auto& [name, value] : n.constants)
                if (value) eval(*value, scope);
            break;
        }
        default:
            break;
    }
}

void Engine::finish_return(const TaintValue& value, Scope& scope) {
    if (!scope.summary) return;
    // Split the value into parameter-dependent flows and base taint.
    for (const ParamFlow& pf : value.param_flows) {
        bool merged = false;
        for (ParamFlow& existing : scope.summary->param_to_return) {
            if (existing.param == pf.param) {
                existing.kinds |= pf.kinds;
                merged = true;
            }
        }
        if (!merged) scope.summary->param_to_return.push_back(pf);
    }
    TaintValue base = value;
    base.param_flows.clear();
    scope.summary->return_base.merge(base);
}

void Engine::exec_unset(const php::UnsetStmt& stmt, Scope& scope) {
    // Paper: unsetting destroys the variable; it becomes untainted and
    // non-vulnerable.
    for (const php::ExprPtr& var : stmt.vars) {
        if (!var) continue;
        if (var->kind == NodeKind::kVariable) {
            const auto& v = static_cast<const php::Variable&>(*var);
            const Symbol name_sym = sym(v.name);
            if (scope.global_aliases.contains(name_sym) || scope.is_global)
                global_slot(name_sym).reset();
            if (!scope.is_global) scope.vars[name_sym].reset();
        } else if (var->kind == NodeKind::kPropertyAccess) {
            // Weak store: resetting a property of one instance must not
            // clear the merged class slot; drop the path slot.
            const auto& p = static_cast<const php::PropertyAccess&>(*var);
            if (p.object && p.object->kind == NodeKind::kVariable &&
                !p.property.empty()) {
                const auto& base = static_cast<const php::Variable&>(*p.object);
                scope.vars.erase(path_sym(base.name, p.property));
            }
        }
        // unset($a['k']) leaves the whole-array taint untouched.
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TaintValue Engine::eval(const php::Expr& expr, Scope& scope) {
    if (eval_depth_ >= kMaxEvalDepth) {
        diagnostics_.add(Severity::kWarning, loc_of(expr, scope),
                         "expression nesting exceeds " +
                             std::to_string(kMaxEvalDepth) +
                             " levels; taint evaluation truncated");
        return TaintValue::clean();
    }
    const EvalDepthScope depth_scope(eval_depth_);
    switch (expr.kind) {
        case NodeKind::kLiteral:
        case NodeKind::kClassConstAccess:
            return TaintValue::clean();
        case NodeKind::kInterpString: {
            const auto& n = static_cast<const php::InterpString&>(expr);
            TaintValue out;
            for (const php::ExprPtr& part : n.parts)
                if (part) out.merge(eval(*part, scope));
            return out;
        }
        case NodeKind::kVariable:
            return eval_variable(static_cast<const php::Variable&>(expr), scope);
        case NodeKind::kArrayAccess:
            return eval_array_access(static_cast<const php::ArrayAccess&>(expr), scope);
        case NodeKind::kPropertyAccess:
            return eval_property_access(static_cast<const php::PropertyAccess&>(expr),
                                        scope);
        case NodeKind::kStaticPropertyAccess:
            if (!options_.oop_support) return TaintValue::clean();
            return read_static_property(
                static_cast<const php::StaticPropertyAccess&>(expr), scope);
        case NodeKind::kFunctionCall:
            return eval_function_call(static_cast<const php::FunctionCall&>(expr), scope);
        case NodeKind::kMethodCall:
            return eval_method_call(static_cast<const php::MethodCall&>(expr), scope);
        case NodeKind::kStaticCall:
            return eval_static_call(static_cast<const php::StaticCall&>(expr), scope);
        case NodeKind::kNew:
            return eval_new(static_cast<const php::New&>(expr), scope);
        case NodeKind::kAssign:
            return eval_assign(static_cast<const php::Assign&>(expr), scope);
        case NodeKind::kBinary: {
            // The parser builds N-term operator chains left-deep, so
            // recursing on lhs costs one frame per term — a 2000-part
            // concatenation must not consume 2000 stack frames (or the
            // eval-depth budget). Walk the left spine iteratively and fold
            // operands in source order instead.
            std::vector<const php::Binary*> spine;
            const php::Expr* leftmost = &expr;
            while (leftmost->kind == NodeKind::kBinary) {
                const auto& b = static_cast<const php::Binary&>(*leftmost);
                spine.push_back(&b);
                if (!b.lhs) break;
                leftmost = b.lhs;
            }
            TaintValue acc = leftmost->kind == NodeKind::kBinary
                                 ? TaintValue::clean()
                                 : eval(*leftmost, scope);
            for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
                const php::Binary& b = **it;
                TaintValue rhs = b.rhs ? eval(*b.rhs, scope) : TaintValue::clean();
                // String concatenation and null-coalescing keep taint;
                // numeric, comparison and logical operators produce
                // harmless values.
                if (b.op == php::BinaryOp::kConcat ||
                    b.op == php::BinaryOp::kCoalesce) {
                    acc.merge(rhs);
                } else {
                    acc = TaintValue::clean();
                }
            }
            return acc;
        }
        case NodeKind::kUnary: {
            const auto& n = static_cast<const php::Unary&>(expr);
            TaintValue v = n.operand ? eval(*n.operand, scope) : TaintValue::clean();
            // Error suppression (@) passes the value through untouched.
            if (n.op == php::UnaryOp::kSuppress) return v;
            return TaintValue::clean();
        }
        case NodeKind::kCast: {
            const auto& n = static_cast<const php::Cast&>(expr);
            TaintValue v = n.operand ? eval(*n.operand, scope) : TaintValue::clean();
            // Numeric/bool casts are sanitizers for both vulnerability kinds.
            if (n.type == "int" || n.type == "integer" || n.type == "float" ||
                n.type == "double" || n.type == "real" || n.type == "bool" ||
                n.type == "boolean" || n.type == "unset") {
                std::string label = "(";
                label += n.type;
                label += ") cast";
                v.apply_sanitizer(kBothVulns, loc_of(n, scope), label);
            }
            return v;
        }
        case NodeKind::kTernary: {
            const auto& n = static_cast<const php::Ternary&>(expr);
            TaintValue cond = n.cond ? eval(*n.cond, scope) : TaintValue::clean();
            TaintValue out;
            if (n.then_expr) {
                out = eval(*n.then_expr, scope);
            } else {
                out = cond;  // elvis `?:` yields the condition value
            }
            if (n.else_expr) out.merge(eval(*n.else_expr, scope));
            return out;
        }
        case NodeKind::kArrayLiteral: {
            const auto& n = static_cast<const php::ArrayLiteral&>(expr);
            TaintValue out;
            for (const php::ArrayItem& item : n.items) {
                if (item.key) out.merge(eval(*item.key, scope));
                if (item.value) out.merge(eval(*item.value, scope));
            }
            return out;
        }
        case NodeKind::kIssetExpr: {
            const auto& n = static_cast<const php::IssetExpr&>(expr);
            for (const php::ExprPtr& v : n.vars)
                if (v) eval(*v, scope);
            return TaintValue::clean();
        }
        case NodeKind::kEmptyExpr: {
            if (const auto& n = static_cast<const php::EmptyExpr&>(expr); n.operand)
                eval(*n.operand, scope);
            return TaintValue::clean();
        }
        case NodeKind::kIncDec: {
            if (const auto& n = static_cast<const php::IncDec&>(expr); n.operand)
                eval(*n.operand, scope);
            return TaintValue::clean();
        }
        case NodeKind::kClosure: {
            if (options_.analyze_closures)
                eval_closure_body(static_cast<const php::Closure&>(expr), scope);
            TaintValue out;
            out.object_class = "closure";
            return out;
        }
        case NodeKind::kIncludeExpr:
            return eval_include(static_cast<const php::IncludeExpr&>(expr), scope);
        case NodeKind::kListExpr:
            return TaintValue::clean();
        case NodeKind::kInstanceOf: {
            if (const auto& n = static_cast<const php::InstanceOf&>(expr); n.object)
                eval(*n.object, scope);
            return TaintValue::clean();
        }
        case NodeKind::kPrintExpr: {
            const auto& n = static_cast<const php::PrintExpr&>(expr);
            if (n.operand) {
                const TaintValue value = eval(*n.operand, scope);
                check_sink(kXssOnly, value, loc_of(expr, scope), "print",
                           to_php_source(*n.operand), scope, value.via_oop);
            }
            return TaintValue::clean();
        }
        case NodeKind::kExitExpr: {
            const auto& n = static_cast<const php::ExitExpr&>(expr);
            if (n.operand) {
                const TaintValue value = eval(*n.operand, scope);
                check_sink(kXssOnly, value, loc_of(expr, scope), "exit",
                           to_php_source(*n.operand), scope, value.via_oop);
            }
            return TaintValue::clean();
        }
        default:
            return TaintValue::clean();
    }
}

TaintValue Engine::eval_variable(const php::Variable& var, Scope& scope) {
    const std::string_view name = var.name;
    ++obs::tls().scope_lookups;

    if (name == "$this") {
        TaintValue v;
        if (scope.current_class) v.object_class = ascii_lower(scope.current_class->name);
        return v;
    }

    if (const SuperglobalInfo* sg = kb_.superglobal(name))
        return superglobal_source(*sg, loc_of(var, scope), name, nullptr);

    const Symbol name_sym = sym(name);
    const bool is_global_var =
        scope.is_global || scope.global_aliases.contains(name_sym);
    if (is_global_var) {
        TaintValue v = read_global(name, loc_of(var, scope));
        if (v.object_class.empty() && options_.track_object_types) {
            if (const std::string* cls = kb_.known_global_class(name))
                v.object_class = *cls;
        }
        if (!v.tainted_any() && v.object_class.empty() &&
            kb_.model_register_globals && scope.is_global &&
            !globals_.vars.contains(name_sym)) {
            // register_globals=1 era: any unassigned global can be supplied
            // from the request (Pixy's signature detection class).
            std::string what = "register_globals variable ";
            what += name;
            TaintValue src = TaintValue::source(
                kBothVulns, InputVector::kGet, loc_of(var, scope), std::move(what));
            globals_.vars[name_sym] = src;
            return src;
        }
        return v;
    }

    if (const TaintValue* found = scope.vars.find(resolve_alias(name_sym, scope)))
        return *found;
    if (scope.extract_taint.tainted_any() || scope.extract_taint.depends_on_params()) {
        TaintValue injected = scope.extract_taint;
        std::string step = "variable ";
        step += name;
        step += " injectable via extract()";
        injected.add_step(loc_of(var, scope), std::move(step));
        return injected;
    }
    return TaintValue::clean();
}

TaintValue Engine::eval_array_access(const php::ArrayAccess& access, Scope& scope) {
    if (!access.base) return TaintValue::clean();

    if (access.base->kind == NodeKind::kVariable) {
        const auto& base = static_cast<const php::Variable&>(*access.base);
        if (const SuperglobalInfo* sg = kb_.superglobal(base.name)) {
            if (access.index) eval(*access.index, scope);
            return superglobal_source(*sg, loc_of(access, scope), base.name,
                                      access.index);
        }
        if (base.name == "$GLOBALS" && access.index &&
            access.index->kind == NodeKind::kLiteral) {
            const auto& lit = static_cast<const php::Literal&>(*access.index);
            std::string gname = "$";
            gname += lit.value;
            return read_global(gname, loc_of(access, scope));
        }
    }

    TaintValue v = eval(*access.base, scope);
    if (access.index) eval(*access.index, scope);
    // Whole-array taint granularity: reading an element yields the array's
    // merged taint.
    return v;
}

TaintValue Engine::eval_property_access(const php::PropertyAccess& access,
                                        Scope& scope) {
    if (!access.object) return TaintValue::clean();
    if (!options_.oop_support) {
        eval(*access.object, scope);
        return TaintValue::clean();  // OOP constructs are opaque to this tool
    }

    TaintValue object = eval(*access.object, scope);
    if (access.property_expr) eval(*access.property_expr, scope);
    if (access.property.empty()) return TaintValue::clean();

    TaintValue out;
    // A property of a tainted value (e.g. a row object fetched from the
    // database) carries the value's taint — the paper's mail-subscribe-list
    // example ($row->sml_name from $wpdb->get_results).
    out.merge(object);
    out.object_class.clear();

    // Path-keyed slot: "$obj->prop" tracked like a variable.
    if (access.object->kind == NodeKind::kVariable) {
        const auto& base = static_cast<const php::Variable&>(*access.object);
        if (const TaintValue* slot =
                scope.vars.find(path_sym(base.name, access.property)))
            out.merge(*slot);
    }

    // Class-level slot when the receiver class is known.
    if (!object.object_class.empty()) {
        if (const TaintValue* slot =
                properties_.find_class_slot(object.object_class, access.property))
            out.merge(*slot);
    }

    if (out.tainted_any() || out.depends_on_params()) {
        out.via_oop = true;
        out.add_step(loc_of(access, scope),
                     "read property " + to_php_source(access));
    }
    return out;
}

TaintValue Engine::read_static_property(const php::StaticPropertyAccess& access,
                                        Scope& scope) {
    const std::string cls =
        resolve_class_name(access.class_name, scope.current_class, *project_);
    if (cls.empty()) return TaintValue::clean();
    if (const TaintValue* slot = properties_.find_static_slot(cls, access.property)) {
        TaintValue out = *slot;
        if (out.tainted_any()) out.via_oop = true;
        return out;
    }
    return TaintValue::clean();
}

TaintValue Engine::superglobal_source(const SuperglobalInfo& sg,
                                      SourceLocation loc, std::string_view name,
                                      const php::Expr* index) {
    ++stats_.sources_seen;
    ++obs::tls().sources_seen;
    return TaintValue::source(sg.taint, sg.vector, std::move(loc),
                              superglobal_display(name, index));
}

Symbol Engine::resolve_alias(Symbol name, const Scope& scope) const {
    Symbol current = name;
    for (int depth = 0; depth < 8; ++depth) {
        const Symbol* next = scope.ref_aliases.find(current);
        if (!next) return current;
        current = *next;
    }
    return current;
}

TaintValue Engine::eval_assign(const php::Assign& assign, Scope& scope) {
    if (!assign.target || !assign.value) return TaintValue::clean();

    // Reference assignment $a =& $b: both names share one slot from now on.
    if (assign.by_ref && assign.target->kind == NodeKind::kVariable &&
        assign.value->kind == NodeKind::kVariable) {
        const auto& target = static_cast<const php::Variable&>(*assign.target);
        const auto& source = static_cast<const php::Variable&>(*assign.value);
        const Symbol canonical = resolve_alias(sym(source.name), scope);
        const Symbol target_sym = sym(target.name);
        if (canonical != target_sym) {
            scope.ref_aliases[target_sym] = canonical;
            scope.vars.erase(target_sym);
        }
        return eval(*assign.value, scope);
    }

    TaintValue value = eval(*assign.value, scope);

    switch (assign.op) {
        case php::AssignOp::kAssign:
            break;
        case php::AssignOp::kConcat:
        case php::AssignOp::kCoalesce: {
            TaintValue current = eval(*assign.target, scope);
            value.merge(current);
            break;
        }
        default: {
            // Arithmetic compound assignment produces a number.
            eval(*assign.target, scope);
            value = TaintValue::clean();
            break;
        }
    }

    assign_to(*assign.target, value, scope);
    return value;
}

void Engine::assign_to(const php::Expr& target, TaintValue value, Scope& scope,
                       bool weak) {
    switch (target.kind) {
        case NodeKind::kVariable: {
            const auto& var = static_cast<const php::Variable&>(target);
            if (kb_.superglobal(var.name)) return;  // writing into $_GET: ignore
            if (value.tainted_any() || value.depends_on_params()) {
                std::string step = "assigned to ";
                step += var.name;
                value.add_step(loc_of(target, scope), std::move(step));
            }
            const Symbol name_sym = sym(var.name);
            const bool is_global_var =
                scope.is_global || scope.global_aliases.contains(name_sym);
            TaintValue& slot = is_global_var
                                   ? global_slot(name_sym)
                                   : scope.vars[resolve_alias(name_sym, scope)];
            if (weak)
                slot.merge(value);
            else
                slot = std::move(value);
            stats_.variables_tracked =
                std::max(stats_.variables_tracked,
                         static_cast<int>(scope.vars.size() + globals_.vars.size()));
            break;
        }
        case NodeKind::kArrayAccess: {
            const auto& access = static_cast<const php::ArrayAccess&>(target);
            if (!access.base) return;
            if (access.index) eval(*access.index, scope);
            if (access.base->kind == NodeKind::kVariable) {
                const auto& base = static_cast<const php::Variable&>(*access.base);
                if (base.name == "$GLOBALS" && access.index &&
                    access.index->kind == NodeKind::kLiteral) {
                    const auto& lit = static_cast<const php::Literal&>(*access.index);
                    std::string gname = "$";
                    gname += lit.value;
                    global_slot(gname).merge(value);
                    return;
                }
            }
            // Element writes are weak: the array keeps its previous taint.
            assign_to(*access.base, std::move(value), scope, /*weak=*/true);
            break;
        }
        case NodeKind::kPropertyAccess: {
            const auto& access = static_cast<const php::PropertyAccess&>(target);
            if (!access.object) return;
            if (!options_.oop_support) {
                eval(*access.object, scope);
                return;
            }
            TaintValue object = eval(*access.object, scope);
            if (access.property.empty()) return;
            if (value.tainted_any())
                value.add_step(loc_of(target, scope),
                               "assigned to property " + to_php_source(access));
            value.via_oop = value.via_oop || value.tainted_any();
            if (access.object->kind == NodeKind::kVariable) {
                const auto& base = static_cast<const php::Variable&>(*access.object);
                TaintValue& slot =
                    scope.vars[path_sym(base.name, access.property)];
                if (weak)
                    slot.merge(value);
                else
                    slot = value;
            }
            if (!object.object_class.empty()) {
                // Class-level store is always weak (merged over instances).
                properties_.class_slot(object.object_class, access.property)
                    .merge(value);
            }
            break;
        }
        case NodeKind::kStaticPropertyAccess: {
            if (!options_.oop_support) return;
            const auto& access = static_cast<const php::StaticPropertyAccess&>(target);
            const std::string cls =
                resolve_class_name(access.class_name, scope.current_class, *project_);
            if (cls.empty()) return;
            value.via_oop = value.via_oop || value.tainted_any();
            TaintValue& slot = properties_.static_slot(cls, access.property);
            if (weak)
                slot.merge(value);
            else
                slot = std::move(value);
            break;
        }
        case NodeKind::kListExpr: {
            const auto& list = static_cast<const php::ListExpr&>(target);
            for (const php::ExprPtr& element : list.elements)
                if (element) assign_to(*element, value, scope, weak);
            break;
        }
        case NodeKind::kArrayLiteral: {
            // PHP 7.1 short list syntax: [$a, $b] = ...
            const auto& arr = static_cast<const php::ArrayLiteral&>(target);
            for (const php::ArrayItem& item : arr.items)
                if (item.value) assign_to(*item.value, value, scope, weak);
            break;
        }
        default:
            break;
    }
}

TaintValue Engine::read_global(std::string_view name, SourceLocation loc) {
    (void)loc;
    if (const TaintValue* found = globals_.vars.find(sym(name))) return *found;
    TaintValue v;
    if (const std::string* cls = kb_.known_global_class(name)) {
        if (options_.track_object_types && options_.oop_support) v.object_class = *cls;
    }
    return v;
}

TaintValue& Engine::global_slot(std::string_view name) {
    return globals_.vars[sym(name)];
}

TaintValue& Engine::global_slot(Symbol name) {
    return globals_.vars[name];
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

std::vector<TaintValue> Engine::eval_args(const ArenaVector<php::Argument>& args,
                                          Scope& scope) {
    std::vector<TaintValue> values;
    values.reserve(args.size());
    for (const php::Argument& arg : args)
        values.push_back(arg.value ? eval(*arg.value, scope) : TaintValue::clean());
    return values;
}

TaintValue Engine::eval_function_call(const php::FunctionCall& call, Scope& scope) {
    // Dynamic call through an expression: evaluate everything; the result
    // conservatively carries the arguments' taint.
    if (call.name.empty()) {
        if (call.callee) eval(*call.callee, scope);
        std::vector<TaintValue> args = eval_args(call.args, scope);
        TaintValue out;
        for (TaintValue& a : args) out.merge(a);
        return out;
    }

    std::vector<TaintValue> args = eval_args(call.args, scope);
    const SourceLocation loc = loc_of(call, scope);

    // extract($arr) defines a variable for every array key: any name read
    // later in this scope may carry the array's taint.
    if (iequals(call.name, "extract") && !args.empty()) {
        scope.extract_taint.merge(args[0]);
        return TaintValue::clean();
    }

    // Generator yield: the yielded value reaches whoever iterates the
    // generator — fold it into the enclosing function's return flow.
    if (call.name == "__yield") {
        for (const TaintValue& arg : args) finish_return(arg, scope);
        return TaintValue::clean();
    }

    // User-defined functions take priority (PHP forbids redefining
    // built-ins, and plugins guard declarations with function_exists).
    if (const php::FunctionRef* ref = project_->find_function(call.name))
        return apply_user_function(*ref, args, loc, scope, call.name, &call.args);

    if (const FunctionInfo* info = kb_.function(call.name))
        return apply_builtin(*info, call.name, call.args, args, loc, scope,
                             /*via_oop=*/false);

    // Unknown built-in: propagate argument taint through the result.
    TaintValue out;
    for (TaintValue& a : args) out.merge(a);
    return out;
}

TaintValue Engine::eval_method_call(const php::MethodCall& call, Scope& scope) {
    if (!call.object) return TaintValue::clean();
    if (!options_.oop_support) {
        // OOP-blind tool: evaluate operands for completeness, but the call
        // itself is opaque — no sink/source/sanitizer matching, clean result.
        eval(*call.object, scope);
        eval_args(call.args, scope);
        return TaintValue::clean();
    }

    TaintValue object = eval(*call.object, scope);
    if (call.method_expr) eval(*call.method_expr, scope);
    std::vector<TaintValue> args = eval_args(call.args, scope);
    const SourceLocation loc = loc_of(call, scope);

    if (call.method.empty()) {  // dynamic method name
        TaintValue out = object;
        for (TaintValue& a : args) out.merge(a);
        out.object_class.clear();
        return out;
    }

    const std::string& cls = object.object_class;

    // Lookup order (paper §III.E: configured CMS methods are matched by
    // name; plugin-defined methods are located inside their class):
    //   1. configured method with a class-exact entry,
    //   2. plugin-defined method resolved through the class hierarchy,
    //   3. configured method by name alone (the original tool has no type
    //      inference — $wpdb->get_results matches even when the receiver
    //      class was not tracked),
    //   4. plugin-defined method by unique name.
    const FunctionInfo* exact =
        cls.empty() ? nullptr : kb_.method(cls, call.method);
    // kb_.method falls back to the wildcard internally; only accept the
    // class-exact match at this step.
    if (exact && kb_.method("", call.method) == exact) exact = nullptr;
    if (exact) {
        std::string display = cls;
        display += "::";
        display += call.method;
        return apply_builtin(*exact, display, call.args, args, loc, scope,
                             /*via_oop=*/true);
    }

    const php::FunctionRef* ref =
        cls.empty() ? nullptr : project_->find_method(cls, call.method);
    if (!ref) {
        if (const FunctionInfo* wildcard = kb_.method("", call.method))
            return apply_builtin(*wildcard, call.method, call.args, args, loc,
                                 scope, /*via_oop=*/true);
        ref = project_->find_method_any(call.method);
    }
    if (ref) {
        TaintValue out = apply_user_function(*ref, args, loc, scope,
                                             ref->qualified_name(), &call.args);
        if (out.tainted_any()) out.via_oop = true;
        return out;
    }

    // Unknown method on unknown class: propagate receiver + argument taint.
    TaintValue out = object;
    out.object_class.clear();
    for (TaintValue& a : args) out.merge(a);
    if (out.tainted_any()) out.via_oop = true;
    return out;
}

TaintValue Engine::eval_static_call(const php::StaticCall& call, Scope& scope) {
    std::vector<TaintValue> args = eval_args(call.args, scope);
    if (!options_.oop_support) return TaintValue::clean();
    const SourceLocation loc = loc_of(call, scope);
    const std::string cls =
        resolve_class_name(call.class_name, scope.current_class, *project_);

    if (const FunctionInfo* info = kb_.method(cls, call.method)) {
        std::string display = cls;
        display += "::";
        display += call.method;
        return apply_builtin(*info, display, call.args, args, loc, scope,
                             /*via_oop=*/true);
    }

    if (const php::FunctionRef* ref = project_->find_method(cls, call.method)) {
        TaintValue out = apply_user_function(*ref, args, loc, scope,
                                             ref->qualified_name(), &call.args);
        if (out.tainted_any()) out.via_oop = true;
        return out;
    }

    TaintValue out;
    for (TaintValue& a : args) out.merge(a);
    if (out.tainted_any()) out.via_oop = true;
    return out;
}

TaintValue Engine::eval_new(const php::New& expr, Scope& scope) {
    if (expr.class_expr) eval(*expr.class_expr, scope);
    std::vector<TaintValue> args = eval_args(expr.args, scope);
    if (!options_.oop_support) return TaintValue::clean();
    TaintValue out;
    if (expr.class_name.empty()) return out;
    const std::string cls =
        resolve_class_name(expr.class_name, scope.current_class, *project_);
    if (options_.track_object_types) out.object_class = cls;

    const php::ClassDecl* decl = project_->find_class(cls);
    // A property default can itself `new` this class (directly or through a
    // cycle of classes); evaluating defaults re-entrantly would never
    // terminate, so construction of a class already being constructed skips
    // initialization.
    if (decl && constructing_classes_.insert(cls).second) {
        // Initialize property defaults (lazily, merged — weak store).
        for (const php::PropertyDecl& prop : decl->properties) {
            if (!prop.default_value) continue;
            TaintValue dv = eval(*prop.default_value, scope);
            if (prop.is_static)
                properties_.static_slot(cls, prop.name).merge(dv);
            else
                properties_.class_slot(cls, prop.name).merge(dv);
        }
        if (const php::FunctionRef* ctor =
                project_->find_method(cls, "__construct"))
            apply_user_function(*ctor, args, loc_of(expr, scope), scope,
                                cls + "::__construct");
        constructing_classes_.erase(cls);
    }
    return out;
}

TaintValue Engine::apply_builtin(const FunctionInfo& info, std::string_view name,
                                 const ArenaVector<php::Argument>& arg_exprs,
                                 std::vector<TaintValue>& args, SourceLocation loc,
                                 Scope& scope, bool via_oop) {
    // Sink role: check the sensitive argument positions.
    if (info.is_sink()) {
        std::vector<int> positions = info.sink_args;
        if (positions.empty())
            for (size_t i = 0; i < args.size(); ++i)
                positions.push_back(static_cast<int>(i));
        for (int pos : positions) {
            if (pos < 0 || static_cast<size_t>(pos) >= args.size()) continue;
            const std::string variable =
                arg_exprs[pos].value ? to_php_source(*arg_exprs[pos].value) : "";
            check_sink(info.sink_kinds, args[pos], loc, name, variable, scope,
                       via_oop || args[pos].via_oop);
        }
    }

    // By-reference flows (preg_match match array, parse_str, ...).
    for (const auto& [from, to] : info.ref_flows) {
        if (from < 0 || static_cast<size_t>(from) >= args.size()) continue;
        if (to < 0 || static_cast<size_t>(to) >= arg_exprs.size()) continue;
        if (!arg_exprs[to].value) continue;
        TaintValue flowed = args[from];
        if (flowed.tainted_any()) {
            std::string step = "written by ";
            step += name;
            step += " into by-ref argument";
            flowed.add_step(loc, std::move(step));
        }
        assign_to(*arg_exprs[to].value, std::move(flowed), scope);
    }

    // Result value.
    if (info.is_source) {
        ++stats_.sources_seen;
        ++obs::tls().sources_seen;
        std::string what(name);
        what += "()";
        TaintValue out = TaintValue::source(info.source_taint, info.source_vector,
                                            loc, std::move(what));
        out.via_oop = via_oop;
        out.object_class = info.returns_class;
        return out;
    }
    if (!info.returns_class.empty()) {
        TaintValue out;
        out.object_class = info.returns_class;
        return out;
    }
    if (info.is_sanitizer()) {
        TaintValue out = args.empty() ? TaintValue::clean() : args[0];
        out.apply_sanitizer(info.sanitizes, loc, name);
        return out;
    }
    if (info.is_revert()) {
        TaintValue out = args.empty() ? TaintValue::clean() : args[0];
        out.apply_revert(info.reverts, loc, name);
        return out;
    }
    switch (info.ret) {
        case FunctionInfo::Return::kSafe:
            return TaintValue::clean();
        case FunctionInfo::Return::kTainted: {
            std::string what(name);
            what += "()";
            TaintValue out = TaintValue::source(kBothVulns, InputVector::kFunction,
                                                loc, std::move(what));
            out.via_oop = via_oop;
            return out;
        }
        case FunctionInfo::Return::kPropagate:
        default: {
            TaintValue out;
            for (TaintValue& a : args) out.merge(a);
            out.via_oop = out.via_oop || (via_oop && out.tainted_any());
            return out;
        }
    }
}

TaintValue Engine::apply_user_function(const php::FunctionRef& ref,
                                       const std::vector<TaintValue>& args,
                                       SourceLocation loc, Scope& scope,
                                       std::string_view display_name,
                                       const ArenaVector<php::Argument>* arg_exprs) {
    if (call_depth_ >= options_.max_call_depth) {
        TaintValue out;
        for (const TaintValue& a : args) out.merge(a);
        return out;
    }

    FunctionSummary& summary = summarize(ref, &args);
    if (summary.in_progress) {
        // Recursive call (paper: parsed only once to avoid endless loops).
        TaintValue out;
        for (const TaintValue& a : args) out.merge(a);
        return out;
    }

    // Parameter-to-sink flows recorded inside the callee.
    for (const ParamSinkFlow& psf : summary.param_sinks) {
        if (psf.param < 0 || static_cast<size_t>(psf.param) >= args.size()) continue;
        const TaintValue& arg = args[psf.param];
        if (arg.tainted(psf.vuln) && psf.kinds.contains(psf.vuln)) {
            TaintValue value = arg;
            std::string step = "passed to ";
            step += display_name;
            step += "() argument #";
            step += std::to_string(psf.param + 1);
            value.add_step(loc, std::move(step));
            // report() appends the closing "reaches sink" step itself.
            value.via_oop = value.via_oop || psf.via_oop;
            report(psf.vuln, psf.location, psf.sink_name, psf.variable, value);
        }
        if (scope.summary) {
            // Transitive: our own parameters may feed this callee's sink.
            for (const ParamFlow& pf : arg.param_flows) {
                if (!pf.kinds.contains(psf.vuln)) continue;
                ParamSinkFlow up = psf;
                up.param = pf.param;
                up.kinds = VulnSet::of(psf.vuln);
                scope.summary->param_sinks.push_back(up);
            }
        }
    }

    // By-reference parameter write-back (function f(&$x) { $x = ... }).
    if (arg_exprs) {
        for (const FunctionSummary::ParamOut& po : summary.param_outputs) {
            if (po.param < 0 ||
                static_cast<size_t>(po.param) >= arg_exprs->size())
                continue;
            const php::Argument& argument = (*arg_exprs)[po.param];
            if (!argument.value) continue;
            TaintValue written = po.value;
            // Resolve flows from other parameters through the caller's args.
            for (const ParamFlow& pf : po.value.param_flows) {
                if (pf.param < 0 || static_cast<size_t>(pf.param) >= args.size())
                    continue;
                TaintValue filtered = args[pf.param];
                filtered.active &= pf.kinds;
                filtered.latent &= pf.kinds;
                filtered.param_flows.clear();
                written.merge(filtered);
            }
            written.param_flows.clear();
            if (written.tainted_any()) {
                std::string step = "written back by ";
                step += display_name;
                step += "() through by-ref parameter";
                written.add_step(loc, std::move(step));
                assign_to(*argument.value, std::move(written), scope);
            }
        }
    }

    // Return value: internal taint plus filtered per-parameter flows.
    TaintValue out = summary.return_base;
    if (out.tainted_any()) {
        std::string step = "returned from ";
        step += display_name;
        step += "()";
        out.add_step(loc, std::move(step));
    }
    for (const ParamFlow& pf : summary.param_to_return) {
        if (pf.param < 0 || static_cast<size_t>(pf.param) >= args.size()) continue;
        TaintValue filtered = args[pf.param];
        filtered.active &= pf.kinds;
        filtered.latent &= pf.kinds;
        for (ParamFlow& nested : filtered.param_flows) nested.kinds &= pf.kinds;
        filtered.param_flows.erase(
            std::remove_if(filtered.param_flows.begin(), filtered.param_flows.end(),
                           [](const ParamFlow& n) { return n.kinds.empty(); }),
            filtered.param_flows.end());
        if (filtered.active.any() || filtered.latent.any() ||
            !filtered.param_flows.empty()) {
            std::string step = "through ";
            step += display_name;
            step += "()";
            filtered.add_step(loc, std::move(step));
            out.merge(filtered);
        }
    }
    return out;
}

FunctionSummary& Engine::summarize(const php::FunctionRef& ref,
                                   const std::vector<TaintValue>* first_call_args) {
    FunctionSummary& summary = summaries_.slot(ref.summary_slot);
    if (summary.analyzed || summary.in_progress) {
        ++obs::tls().summaries_reused;
        return summary;
    }

    if (!ref.decl || ref.decl->is_abstract) {
        summary.analyzed = true;
        return summary;
    }
    ++obs::tls().summaries_computed;

    summary.in_progress = true;
    ++call_depth_;

    Scope fn_scope;
    fn_scope.file = ref.file;
    fn_scope.current_class = ref.owner;
    fn_scope.summary = &summary;

    for (size_t i = 0; i < ref.decl->params.size(); ++i) {
        const php::Param& param = ref.decl->params[i];
        TaintValue v;
        v.add_param_flow(static_cast<int>(i), kBothVulns);
        std::string step = "parameter ";
        step += param.name;
        step += " of ";
        step += ref.qualified_name();
        v.add_step({std::string(ref.file), ref.decl->line}, std::move(step));
        if (!param.type_hint.empty() && options_.track_object_types)
            v.object_class = ascii_lower(param.type_hint);
        // First-call context (paper §III.C): the body is analyzed with the
        // arguments of the call that triggered it, so taint written into
        // properties and globals materializes.
        if (first_call_args && i < first_call_args->size())
            v.merge((*first_call_args)[i]);
        fn_scope.vars[sym(param.name)] = std::move(v);
    }
    if (ref.owner) {
        TaintValue self;
        self.object_class = ascii_lower(ref.owner->name);
        fn_scope.vars[this_sym_] = std::move(self);
    }

    exec_stmts(ref.decl->body, fn_scope);

    // Capture the final taint of by-reference parameters for write-back at
    // call sites.
    for (size_t i = 0; i < ref.decl->params.size(); ++i) {
        const php::Param& param = ref.decl->params[i];
        if (!param.by_ref) continue;
        const TaintValue* final_value = fn_scope.vars.find(sym(param.name));
        if (!final_value) continue;
        FunctionSummary::ParamOut out;
        out.param = static_cast<int>(i);
        out.value = *final_value;
        summary.param_outputs.push_back(std::move(out));
    }

    --call_depth_;
    summary.in_progress = false;
    summary.analyzed = true;
    if (observer_) observer_->on_function_summary(ref, summary);
    return summary;
}

TaintValue Engine::lookup_var(std::string_view name, Scope& scope) {
    const Symbol name_sym = sym(name);
    const bool is_global_var =
        scope.is_global || scope.global_aliases.contains(name_sym);
    if (is_global_var) return read_global(name, SourceLocation{});
    const TaintValue* found = scope.vars.find(name_sym);
    return found ? *found : TaintValue::clean();
}

void Engine::eval_closure_body(const php::Closure& closure, Scope& scope) {
    if (!analyzed_closures_.insert(&closure).second) return;
    Scope body_scope;
    body_scope.file = scope.file;
    body_scope.current_class = scope.current_class;
    body_scope.summary = scope.summary;  // propagate param deps of the enclosing fn
    for (const auto& [name, by_ref] : closure.uses)
        body_scope.vars[sym(name)] = lookup_var(name, scope);
    if (closure.is_arrow) {
        // Arrow functions capture the whole enclosing scope by value.
        body_scope.vars = scope.vars;
        if (scope.is_global) body_scope.vars = globals_.vars;
    }
    if (const TaintValue* self = scope.vars.find(this_sym_))
        body_scope.vars[this_sym_] = *self;
    exec_stmts(closure.body, body_scope);
}

TaintValue Engine::eval_include(const php::IncludeExpr& inc, Scope& scope) {
    if (!inc.path) return TaintValue::clean();
    eval(*inc.path, scope);
    const std::string hint = static_path_hint(*inc.path);
    const php::ParsedFile* resolved = project_->resolve_include(hint);
    if (!resolved || resolved->parse_failed) return TaintValue::clean();
    ++obs::tls().includes_resolved;

    // Cycle / repetition guards.
    for (const php::ParsedFile* active : include_stack_)
        if (active == resolved) return TaintValue::clean();
    const bool once = inc.include_kind == php::IncludeKind::kIncludeOnce ||
                      inc.include_kind == php::IncludeKind::kRequireOnce;
    const std::string_view resolved_name = resolved->source->name();
    if (std::ranges::find(included_once_, resolved_name) == included_once_.end())
        included_once_.push_back(resolved_name);
    else if (once)
        return TaintValue::clean();

    if (static_cast<int>(include_stack_.size()) >= options_.max_include_depth) {
        // Paper §V.E: phpSAFE failed on files "that had many includes and
        // required a lot of memory" — modeled as an include-depth abort.
        const std::string entry = include_stack_.empty()
                                      ? scope.file
                                      : include_stack_.front()->source->name();
        diagnostics_.add(Severity::kFatal, {entry, inc.line},
                         "include chain too deep; aborting analysis of this file");
        current_file_failed_ = true;
        return TaintValue::clean();
    }

    // Stage attribution: only the outermost include edge starts the clock,
    // so nested includes are not double counted.
    const bool outermost = include_stack_.size() <= 1;
    const double include_start = outermost ? thread_cpu_seconds() : 0.0;
    include_stack_.push_back(resolved);
    ++stats_.includes_followed;
    ++obs::tls().includes_followed;
    const std::string saved_file = scope.file;
    scope.file = resolved->source->name();
    exec_stmts(resolved->unit.statements, scope);
    scope.file = saved_file;
    include_stack_.pop_back();
    if (outermost) include_cpu_seconds_ += thread_cpu_seconds() - include_start;
    return TaintValue::clean();
}

// ---------------------------------------------------------------------------
// Sinks and findings
// ---------------------------------------------------------------------------

void Engine::check_sink(VulnSet sink_kinds, const TaintValue& value,
                        SourceLocation loc, std::string_view sink_name,
                        const std::string& variable, Scope& scope, bool via_oop) {
    ++stats_.sink_checks;
    ++obs::tls().sink_checks;
    for (int i = 0; i < kVulnKindCount; ++i) {
        const auto kind = static_cast<VulnKind>(i);
        if (!sink_kinds.contains(kind)) continue;
        if (value.tainted(kind)) {
            TaintValue reported = value;
            reported.via_oop = reported.via_oop || via_oop;
            report(kind, loc, sink_name, variable, reported);
        }
        if (scope.summary) {
            for (const ParamFlow& pf : value.param_flows) {
                if (!pf.kinds.contains(kind)) continue;
                ParamSinkFlow psf;
                psf.param = pf.param;
                psf.kinds = VulnSet::of(kind);
                psf.vuln = kind;
                psf.location = loc;
                psf.sink_name = sink_name;
                psf.variable = variable;
                psf.via_oop = via_oop || value.via_oop;
                scope.summary->param_sinks.push_back(psf);
            }
        }
    }
}

void Engine::report(VulnKind kind, SourceLocation loc, std::string_view sink_name,
                    const std::string& variable, const TaintValue& value) {
    Finding f;
    f.kind = kind;
    f.location = std::move(loc);
    f.sink = sink_name;
    f.variable = variable;
    f.vector = value.vector;
    f.via_oop = value.via_oop;
    // The COW trace is materialized into a flat vector only here, at the
    // moment a finding is actually reported.
    f.trace = value.trace.steps();
    std::string last = "reaches sink ";
    last += sink_name;
    f.trace.push_back(TaintStep{f.location, std::move(last)});
    if (kind == VulnKind::kSqli)
        ++obs::tls().findings_sqli;
    else
        ++obs::tls().findings_xss;
    if (observer_) observer_->on_finding(f);
    findings_.push_back(std::move(f));
}

}  // namespace phpsafe
