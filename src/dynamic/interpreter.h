// Concrete mini-interpreter for the PHP AST — the dynamic half of the
// validation pipeline. The paper confirmed reported vulnerabilities by
// actually exploiting them ("which we confirmed in an experiment", §III.E)
// and manually verified every tool report (§IV.B.5); this interpreter
// automates that step: it executes a plugin file with attacker-controlled
// superglobals and seeded database/file contents, captures everything the
// plugin outputs and every SQL query it issues, and lets the validator
// decide whether a payload actually comes through.
//
// It is an intentionally bounded evaluator (step/loop/call budgets), not a
// full PHP runtime: enough semantics to execute CMS-plugin code paths —
// loose typing, arrays, objects, user functions/methods, includes, the
// sanitization built-ins — deterministically.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dynamic/value.h"
#include "php/project.h"

namespace phpsafe::dynamic {

struct ExecOptions {
    int max_steps = 200000;       ///< statement/expression budget
    int max_loop_iterations = 512;
    int max_call_depth = 48;
    int max_include_depth = 16;
};

struct ExecResult {
    std::string output;                ///< everything echoed/printed
    std::vector<std::string> queries;  ///< SQL strings sent to query sinks
    bool completed = false;            ///< ran to the end of the file
    bool exited = false;               ///< exit/die was executed
    bool budget_exhausted = false;
    std::string error;                 ///< first runtime error, if any
};

class Interpreter {
public:
    Interpreter(const php::Project& project, ExecOptions options = {});

    /// Sets one key of a superglobal ($_GET['id'] = "7").
    void set_superglobal(const std::string& name, const std::string& key,
                         std::string value);
    /// Default returned for any key of the superglobal that was not set —
    /// the validator uses this to flood the request with a payload.
    void set_superglobal_default(const std::string& name, std::string value);

    /// Seeds the stub database: every row fetched (wpdb / mysql_fetch_*)
    /// has all columns equal to `cell`; `rows` rows per result set.
    void seed_database(std::string cell, int rows = 2);
    /// Seeds file reads (fgets/fread/file_get_contents).
    void seed_file_contents(std::string contents);
    /// Seeds get_option / get_*_meta / get_transient returns.
    void seed_cms_store(std::string value);

    /// Executes one project file as the entry point.
    ExecResult run_file(const std::string& file_name);

private:
    struct Frame {
        // Transparent comparators: AST names are string_views into the
        // parsed file's arena; lookups must not allocate a key temporary.
        std::map<std::string, Value, std::less<>> vars;
        std::set<std::string, std::less<>> global_aliases;
        /// `static $x` declarations seen in this frame → persistent slot.
        std::map<std::string, Value*, std::less<>> static_bindings;
        /// Values produced by `yield` in this frame (generator semantics:
        /// the call returns the collected values as an array).
        std::vector<Value> yielded;
        const php::ClassDecl* current_class = nullptr;
        Value this_object;
        bool is_global = false;
    };

    enum class Flow { kNormal, kBreak, kContinue, kReturn, kExit };

    // Statements.
    Flow exec_stmts(const ArenaVector<php::StmtPtr>& stmts, Frame& frame);
    Flow exec_stmt(const php::Stmt& stmt, Frame& frame);

    // Expressions.
    Value eval(const php::Expr& expr, Frame& frame);
    Value eval_variable(const php::Variable& var, Frame& frame);
    Value eval_call(const php::FunctionCall& call, Frame& frame);
    Value eval_method(const php::MethodCall& call, Frame& frame);
    Value eval_static_call(const php::StaticCall& call, Frame& frame);
    Value eval_new(const php::New& expr, Frame& frame);
    Value eval_binary(const php::Binary& bin, Frame& frame);
    Value eval_assign(const php::Assign& assign, Frame& frame);
    void assign_to(const php::Expr& target, Value value, Frame& frame);
    Value* lvalue_variable(std::string_view name, Frame& frame);

    // Calls.
    Value call_user_function(const php::FunctionRef& ref,
                             const std::vector<Value>& args, Value this_object,
                             Frame& caller);
    bool call_builtin(const std::string& lower_name, std::vector<Value>& args,
                      const php::FunctionCall* call, Frame& frame, Value& out);
    Value wpdb_method(const std::string& method, const std::vector<Value>& args);

    Value make_result_handle();
    Value make_db_row();

    bool step();  ///< consumes budget; false when exhausted
    void emit(std::string_view text) { result_.output += text; }

    const php::Project& project_;
    ExecOptions options_;
    ExecResult result_;
    Frame globals_;
    std::map<std::string, Value, std::less<>> superglobals_;
    std::map<std::string, std::string, std::less<>> superglobal_defaults_;
    std::string db_cell_ = "db-value";
    int db_rows_ = 2;
    std::string file_contents_ = "file-contents";
    std::string cms_store_ = "option-value";
    int steps_ = 0;
    int call_depth_ = 0;
    /// Pending nodes of the left-deep binary chains eval_binary is folding.
    std::vector<const php::Binary*> spine_;
    /// Classes currently inside eval_new: a property default that `new`s
    /// its own class (directly or via a cycle) must not re-enter default
    /// initialization forever.
    std::set<std::string> constructing_classes_;
    std::vector<std::string> include_stack_;
    /// `static $x` slots persisting across calls, keyed by declaring
    /// statement pointer + variable name.
    std::map<std::pair<const void*, std::string>, Value> static_slots_;
    /// Constants defined by `const` statements and define() this run.
    std::map<std::string, Value, std::less<>> constants_;
    Value return_value_;
    Flow pending_flow_ = Flow::kNormal;
};

}  // namespace phpsafe::dynamic
