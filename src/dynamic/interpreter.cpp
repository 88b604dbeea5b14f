#include "dynamic/interpreter.h"

#include <algorithm>
#include <cmath>
#include <regex>

#include "util/strings.h"

namespace phpsafe::dynamic {

using php::NodeKind;

namespace {

std::string php_htmlspecialchars(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            case '\'': out += "&#039;"; break;
            default: out += c;
        }
    }
    return out;
}

std::string php_addslashes(const std::string& in) {
    std::string out;
    for (char c : in) {
        if (c == '\'' || c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

std::string php_stripslashes(const std::string& in) {
    std::string out;
    for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] == '\\' && i + 1 < in.size()) ++i;
        out += in[i];
    }
    return out;
}

std::string php_strip_tags(const std::string& in) {
    std::string out;
    bool in_tag = false;
    for (char c : in) {
        if (c == '<') in_tag = true;
        else if (c == '>') in_tag = false;
        else if (!in_tag) out += c;
    }
    return out;
}

/// Best-effort PCRE → std::regex translation: strips delimiters and flags.
bool pcre_match(const std::string& pattern, const std::string& subject,
                std::smatch* match_out) {
    if (pattern.size() < 2) return false;
    const char delim = pattern.front();
    const size_t end = pattern.rfind(delim);
    if (end == 0) return false;
    std::string body = pattern.substr(1, end - 1);
    const std::string flags = pattern.substr(end + 1);
    auto options = std::regex::ECMAScript;
    if (flags.find('i') != std::string::npos) options |= std::regex::icase;
    try {
        const std::regex re(body, options);
        std::smatch m;
        const bool matched = std::regex_search(subject, m, re);
        if (match_out) *match_out = m;
        return matched;
    } catch (const std::regex_error&) {
        return false;
    }
}

}  // namespace

Interpreter::Interpreter(const php::Project& project, ExecOptions options)
    : project_(project), options_(options) {
    globals_.is_global = true;
    for (const char* sg : {"$_GET", "$_POST", "$_COOKIE", "$_REQUEST", "$_SERVER",
                           "$_FILES"})
        superglobals_[sg] = Value::array();
}

void Interpreter::set_superglobal(const std::string& name, const std::string& key,
                                  std::string value) {
    superglobals_[name].set_element(key, Value::string(std::move(value)));
}

void Interpreter::set_superglobal_default(const std::string& name,
                                          std::string value) {
    superglobal_defaults_[name] = std::move(value);
}

void Interpreter::seed_database(std::string cell, int rows) {
    db_cell_ = std::move(cell);
    db_rows_ = rows;
}

void Interpreter::seed_file_contents(std::string contents) {
    file_contents_ = std::move(contents);
}

void Interpreter::seed_cms_store(std::string value) {
    cms_store_ = std::move(value);
}

bool Interpreter::step() {
    if (pending_flow_ == Flow::kExit) return false;
    if (++steps_ > options_.max_steps) {
        result_.budget_exhausted = true;
        return false;
    }
    return true;
}

Value Interpreter::make_result_handle() {
    Value handle = Value::object("__result");
    handle.object_data()->cursor = 0;
    return handle;
}

Value Interpreter::make_db_row() { return Value::object("__dbrow"); }

ExecResult Interpreter::run_file(const std::string& file_name) {
    result_ = ExecResult{};
    steps_ = 0;
    call_depth_ = 0;
    constructing_classes_.clear();
    pending_flow_ = Flow::kNormal;
    globals_.vars.clear();
    include_stack_.clear();
    constants_.clear();

    // The $wpdb global every WordPress request provides.
    Value wpdb = Value::object("wpdb");
    wpdb.object_data()->properties["prefix"] = Value::string("wp_");
    globals_.vars["$wpdb"] = wpdb;

    const php::ParsedFile* file = project_.resolve_include(file_name);
    if (!file) {
        result_.error = "file not found: " + file_name;
        return result_;
    }
    include_stack_.push_back(file->source->name());
    const Flow flow = exec_stmts(file->unit.statements, globals_);
    result_.completed =
        flow == Flow::kNormal && !result_.budget_exhausted && result_.error.empty();
    result_.exited = pending_flow_ == Flow::kExit || flow == Flow::kExit;
    return result_;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interpreter::Flow Interpreter::exec_stmts(const ArenaVector<php::StmtPtr>& stmts,
                                          Frame& frame) {
    for (const php::StmtPtr& stmt : stmts) {
        if (!stmt) continue;
        const Flow flow = exec_stmt(*stmt, frame);
        if (flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
}

Interpreter::Flow Interpreter::exec_stmt(const php::Stmt& stmt, Frame& frame) {
    if (!step()) return Flow::kExit;
    switch (stmt.kind) {
        case NodeKind::kExprStmt: {
            const auto& n = static_cast<const php::ExprStmt&>(stmt);
            if (n.expr) eval(*n.expr, frame);
            return pending_flow_ == Flow::kExit ? Flow::kExit : Flow::kNormal;
        }
        case NodeKind::kEchoStmt: {
            const auto& n = static_cast<const php::EchoStmt&>(stmt);
            for (const php::ExprPtr& arg : n.args) {
                if (!arg) continue;
                emit(eval(*arg, frame).to_string());
                if (pending_flow_ == Flow::kExit) return Flow::kExit;
            }
            return Flow::kNormal;
        }
        case NodeKind::kInlineHtmlStmt:
            emit(static_cast<const php::InlineHtmlStmt&>(stmt).html);
            return Flow::kNormal;
        case NodeKind::kBlock:
            return exec_stmts(static_cast<const php::Block&>(stmt).statements, frame);
        case NodeKind::kIfStmt: {
            const auto& n = static_cast<const php::IfStmt&>(stmt);
            const bool cond = n.cond ? eval(*n.cond, frame).to_bool() : false;
            if (pending_flow_ == Flow::kExit) return Flow::kExit;
            if (cond) return n.then_branch ? exec_stmt(*n.then_branch, frame)
                                           : Flow::kNormal;
            return n.else_branch ? exec_stmt(*n.else_branch, frame) : Flow::kNormal;
        }
        case NodeKind::kWhileStmt: {
            const auto& n = static_cast<const php::WhileStmt&>(stmt);
            for (int i = 0; i < options_.max_loop_iterations; ++i) {
                if (!n.cond || !eval(*n.cond, frame).to_bool()) return Flow::kNormal;
                if (pending_flow_ == Flow::kExit) return Flow::kExit;
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
            }
            result_.budget_exhausted = true;
            return Flow::kNormal;
        }
        case NodeKind::kDoWhileStmt: {
            const auto& n = static_cast<const php::DoWhileStmt&>(stmt);
            for (int i = 0; i < options_.max_loop_iterations; ++i) {
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
                if (!n.cond || !eval(*n.cond, frame).to_bool()) return Flow::kNormal;
            }
            result_.budget_exhausted = true;
            return Flow::kNormal;
        }
        case NodeKind::kForStmt: {
            const auto& n = static_cast<const php::ForStmt&>(stmt);
            for (const php::ExprPtr& e : n.init)
                if (e) eval(*e, frame);
            for (int i = 0; i < options_.max_loop_iterations; ++i) {
                bool cond = true;
                for (const php::ExprPtr& e : n.cond)
                    if (e) cond = eval(*e, frame).to_bool();
                if (!cond) return Flow::kNormal;
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
                for (const php::ExprPtr& e : n.update)
                    if (e) eval(*e, frame);
            }
            result_.budget_exhausted = true;
            return Flow::kNormal;
        }
        case NodeKind::kForeachStmt: {
            const auto& n = static_cast<const php::ForeachStmt&>(stmt);
            if (!n.iterable) return Flow::kNormal;
            const Value iterable = eval(*n.iterable, frame);
            if (!iterable.is_array() || !iterable.array_data())
                return Flow::kNormal;
            // Copy the entry list: bodies may mutate the array.
            const auto entries = iterable.array_data()->entries;
            int iterations = 0;
            for (const auto& [key, value] : entries) {
                if (++iterations > options_.max_loop_iterations) break;
                if (n.key_var) assign_to(*n.key_var, Value::string(key), frame);
                if (n.value_var) assign_to(*n.value_var, value, frame);
                const Flow flow = n.body ? exec_stmt(*n.body, frame) : Flow::kNormal;
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow == Flow::kReturn || flow == Flow::kExit) return flow;
            }
            return Flow::kNormal;
        }
        case NodeKind::kSwitchStmt: {
            const auto& n = static_cast<const php::SwitchStmt&>(stmt);
            if (!n.subject) return Flow::kNormal;
            const Value subject = eval(*n.subject, frame);
            size_t start = n.cases.size();
            size_t default_index = n.cases.size();
            for (size_t i = 0; i < n.cases.size(); ++i) {
                if (!n.cases[i].match) {
                    default_index = i;
                    continue;
                }
                if (subject.loose_equals(eval(*n.cases[i].match, frame))) {
                    start = i;
                    break;
                }
            }
            if (start == n.cases.size()) start = default_index;
            for (size_t i = start; i < n.cases.size(); ++i) {
                const Flow flow = exec_stmts(n.cases[i].body, frame);
                if (flow == Flow::kBreak) return Flow::kNormal;
                if (flow != Flow::kNormal) return flow;
            }
            return Flow::kNormal;
        }
        case NodeKind::kBreakStmt: return Flow::kBreak;
        case NodeKind::kContinueStmt: return Flow::kContinue;
        case NodeKind::kReturnStmt: {
            const auto& n = static_cast<const php::ReturnStmt&>(stmt);
            return_value_ = n.value ? eval(*n.value, frame) : Value();
            return pending_flow_ == Flow::kExit ? Flow::kExit : Flow::kReturn;
        }
        case NodeKind::kGlobalStmt: {
            const auto& n = static_cast<const php::GlobalStmt&>(stmt);
            for (const std::string_view name : n.names)
                frame.global_aliases.emplace(name);
            return Flow::kNormal;
        }
        case NodeKind::kStaticVarStmt: {
            // PHP statics persist across calls: bind the frame variable to
            // the persistent slot's current value; write-back happens when
            // the frame variable is re-read through the same statement on
            // the next call (value-copy approximation refreshed per call).
            const auto& n = static_cast<const php::StaticVarStmt&>(stmt);
            for (const auto& [name, init] : n.vars) {
                const auto key =
                    std::make_pair(static_cast<const void*>(&stmt), std::string(name));
                auto slot = static_slots_.find(key);
                if (slot == static_slots_.end()) {
                    Value initial = init ? eval(*init, frame) : Value();
                    slot = static_slots_.emplace(key, std::move(initial)).first;
                }
                frame.vars[std::string(name)] = slot->second;
                frame.static_bindings[std::string(name)] = &slot->second;
            }
            return Flow::kNormal;
        }
        case NodeKind::kUnsetStmt: {
            const auto& n = static_cast<const php::UnsetStmt&>(stmt);
            for (const php::ExprPtr& var : n.vars) {
                if (var && var->kind == NodeKind::kVariable) {
                    const auto& v = static_cast<const php::Variable&>(*var);
                    const auto vit = frame.vars.find(v.name);
                    if (vit != frame.vars.end()) frame.vars.erase(vit);
                    if (frame.is_global || frame.global_aliases.count(v.name)) {
                        const auto git = globals_.vars.find(v.name);
                        if (git != globals_.vars.end()) globals_.vars.erase(git);
                    }
                }
            }
            return Flow::kNormal;
        }
        case NodeKind::kTryStmt: {
            const auto& n = static_cast<const php::TryStmt&>(stmt);
            const Flow flow = exec_stmts(n.body, frame);
            exec_stmts(n.finally_body, frame);
            return flow;
        }
        case NodeKind::kThrowStmt:
            result_.error = "uncaught exception";
            return Flow::kExit;
        case NodeKind::kNamespaceStmt:
            return exec_stmts(static_cast<const php::NamespaceStmt&>(stmt).body,
                              frame);
        case NodeKind::kConstStmt:
            for (const auto& [name, value] :
                 static_cast<const php::ConstStmt&>(stmt).constants)
                constants_.try_emplace(std::string(name), eval(*value, frame));
            return Flow::kNormal;
        case NodeKind::kFunctionDecl:
        case NodeKind::kClassDecl:
        case NodeKind::kUseStmt:
            return Flow::kNormal;
        default:
            return Flow::kNormal;
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

namespace {

/// PHP's + - * /: int op int stays an int unless it overflows (or, for /,
/// leaves a remainder); a float operand makes the result a float. Division
/// by zero yields null.
Value arithmetic(php::BinaryOp op, const Value& lhs, const Value& rhs) {
    using php::BinaryOp;
    const Value a = lhs.to_number(), b = rhs.to_number();
    if (a.type() == Value::Type::kInt && b.type() == Value::Type::kInt) {
        const long x = a.to_int(), y = b.to_int();
        long r = 0;
        bool overflow = false;
        switch (op) {
            case BinaryOp::kAdd: overflow = __builtin_add_overflow(x, y, &r); break;
            case BinaryOp::kSub: overflow = __builtin_sub_overflow(x, y, &r); break;
            case BinaryOp::kMul: overflow = __builtin_mul_overflow(x, y, &r); break;
            default:
                if (y == 0) return Value();
                // -1 is the one divisor whose quotient can overflow (and
                // trap in x % y), so it is a negation.
                if (y == -1) {
                    overflow = __builtin_sub_overflow(0L, x, &r);
                    break;
                }
                if (x % y != 0) return Value::real(static_cast<double>(x) / y);
                r = x / y;
                break;
        }
        if (!overflow) return Value::integer(r);
    }
    const double x = a.to_float(), y = b.to_float();
    switch (op) {
        case BinaryOp::kAdd: return Value::real(x + y);
        case BinaryOp::kSub: return Value::real(x - y);
        case BinaryOp::kMul: return Value::real(x * y);
        default: return y == 0 ? Value() : Value::real(x / y);
    }
}

/// PHP's %: integer operands; modulo by zero yields null. x % -1 is 0,
/// computed without the division that traps on PHP_INT_MIN.
Value modulo(const Value& lhs, const Value& rhs) {
    const long x = lhs.to_int(), y = rhs.to_int();
    if (y == 0) return Value();
    return Value::integer(y == -1 ? 0 : x % y);
}

/// PHP's **: an int base and a non-negative int exponent give an int
/// unless it overflows; anything else is pow() on floats.
Value power(const Value& lhs, const Value& rhs) {
    const Value a = lhs.to_number(), b = rhs.to_number();
    if (a.type() == Value::Type::kInt && b.type() == Value::Type::kInt &&
        b.to_int() >= 0) {
        long base = a.to_int(), exponent = b.to_int(), r = 1;
        bool overflow = false;
        while (exponent > 0 && !overflow) {
            if (exponent & 1) overflow = __builtin_mul_overflow(r, base, &r);
            exponent >>= 1;
            if (exponent > 0 && !overflow)
                overflow = __builtin_mul_overflow(base, base, &base);
        }
        if (!overflow) return Value::integer(r);
    }
    return Value::real(std::pow(a.to_float(), b.to_float()));
}

/// PHP's & | ^: two strings combine byte by byte (| keeps the longer
/// string's tail, & and ^ stop at the shorter), anything else as ints.
Value bitwise(php::BinaryOp op, const Value& lhs, const Value& rhs) {
    using php::BinaryOp;
    if (lhs.is_string() && rhs.is_string()) {
        const std::string a = lhs.to_string(), b = rhs.to_string();
        const std::string& longer = a.size() >= b.size() ? a : b;
        std::string out = op == BinaryOp::kBitOr ? longer : std::string();
        out.resize(op == BinaryOp::kBitOr ? longer.size()
                                          : std::min(a.size(), b.size()));
        for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
            out[i] = static_cast<char>(op == BinaryOp::kBitAnd ? a[i] & b[i]
                                       : op == BinaryOp::kBitOr ? a[i] | b[i]
                                                                : a[i] ^ b[i]);
        return Value::string(std::move(out));
    }
    const long x = lhs.to_int(), y = rhs.to_int();
    switch (op) {
        case BinaryOp::kBitAnd: return Value::integer(x & y);
        case BinaryOp::kBitOr: return Value::integer(x | y);
        default: return Value::integer(x ^ y);
    }
}

/// PHP's << and >> on ints: a shift by 64 or more gives 0 (or -1 for >>
/// of a negative); a negative shift throws in PHP and yields null here.
Value shift(php::BinaryOp op, const Value& lhs, const Value& rhs) {
    const long x = lhs.to_int(), y = rhs.to_int();
    if (y < 0) return Value();
    constexpr long kBits = 64;
    if (op == php::BinaryOp::kShl)
        return Value::integer(
            y >= kBits ? 0
                       : static_cast<long>(static_cast<unsigned long>(x) << y));
    return Value::integer(y >= kBits ? (x < 0 ? -1 : 0) : x >> y);
}

/// PHP's ordering behind <=>, <, >, <= and >=: two non-numeric strings
/// compare byte-wise, anything else numerically. Negative, zero or
/// positive; NAN orders after everything, and PHP evaluates `a > b` as
/// `b < a`, so every comparison with NAN is false.
int compare(const Value& lhs, const Value& rhs) {
    if (lhs.is_string() && rhs.is_string() &&
        !(is_numeric_string(lhs.to_string()) && is_numeric_string(rhs.to_string())))
        return lhs.to_string().compare(rhs.to_string());
    const double x = lhs.to_float(), y = rhs.to_float();
    return x == y ? 0 : x < y ? -1 : 1;
}

/// One strict (both-operands) binary operator applied to its values.
Value apply_binary(php::BinaryOp op, Value lhs, const Value& rhs) {
    using php::BinaryOp;
    switch (op) {
        case BinaryOp::kConcat:
            return Value::string(std::move(lhs).to_string() + rhs.to_string());
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
            return arithmetic(op, lhs, rhs);
        case BinaryOp::kMod: return modulo(lhs, rhs);
        case BinaryOp::kPow: return power(lhs, rhs);
        case BinaryOp::kEq: return Value::boolean(lhs.loose_equals(rhs));
        case BinaryOp::kNotEq: return Value::boolean(!lhs.loose_equals(rhs));
        case BinaryOp::kIdentical:
            return Value::boolean(lhs.type() == rhs.type() && lhs.loose_equals(rhs));
        case BinaryOp::kNotIdentical:
            return Value::boolean(!(lhs.type() == rhs.type() && lhs.loose_equals(rhs)));
        case BinaryOp::kLt: return Value::boolean(compare(lhs, rhs) < 0);
        case BinaryOp::kGt: return Value::boolean(compare(rhs, lhs) < 0);
        case BinaryOp::kLtEq: return Value::boolean(compare(lhs, rhs) <= 0);
        case BinaryOp::kGtEq: return Value::boolean(compare(rhs, lhs) <= 0);
        case BinaryOp::kSpaceship: {
            const int order = compare(lhs, rhs);
            return Value::integer(order < 0 ? -1 : order > 0 ? 1 : 0);
        }
        case BinaryOp::kCoalesce: return lhs.is_null() ? rhs : lhs;
        case BinaryOp::kXor:
            return Value::boolean(lhs.to_bool() != rhs.to_bool());
        case BinaryOp::kBitAnd:
        case BinaryOp::kBitOr:
        case BinaryOp::kBitXor:
            return bitwise(op, lhs, rhs);
        case BinaryOp::kShl:
        case BinaryOp::kShr:
            return shift(op, lhs, rhs);
        case BinaryOp::kAnd:  // short-circuit: eval_binary evaluates these
        case BinaryOp::kOr:
            break;
    }
    return Value();
}

/// The binary operator a compound assignment applies (`$a op= $b` is
/// `$a = $a op $b`).
php::BinaryOp compound_op(php::AssignOp op) {
    using php::AssignOp;
    using php::BinaryOp;
    switch (op) {
        case AssignOp::kConcat: return BinaryOp::kConcat;
        case AssignOp::kPlus: return BinaryOp::kAdd;
        case AssignOp::kMinus: return BinaryOp::kSub;
        case AssignOp::kMul: return BinaryOp::kMul;
        case AssignOp::kDiv: return BinaryOp::kDiv;
        case AssignOp::kMod: return BinaryOp::kMod;
        case AssignOp::kPow: return BinaryOp::kPow;
        case AssignOp::kBitAnd: return BinaryOp::kBitAnd;
        case AssignOp::kBitOr: return BinaryOp::kBitOr;
        case AssignOp::kBitXor: return BinaryOp::kBitXor;
        case AssignOp::kShl: return BinaryOp::kShl;
        case AssignOp::kShr: return BinaryOp::kShr;
        case AssignOp::kAssign:
        case AssignOp::kCoalesce: break;
    }
    return BinaryOp::kCoalesce;  // unreachable for compound operators
}

}  // namespace

Value Interpreter::eval(const php::Expr& expr, Frame& frame) {
    if (!step()) return Value();
    switch (expr.kind) {
        case NodeKind::kLiteral: {
            const auto& n = static_cast<const php::Literal&>(expr);
            switch (n.type) {
                case php::Literal::Type::kString:
                    return Value::string(std::string(n.value));
                case php::Literal::Type::kInt:
                    return Value::integer(
                        std::strtol(std::string(n.value).c_str(), nullptr, 0));
                case php::Literal::Type::kFloat:
                    return Value::real(
                        std::strtod(std::string(n.value).c_str(), nullptr));
                case php::Literal::Type::kBool:
                    return Value::boolean(n.value == "true");
                case php::Literal::Type::kNull: return Value();
                case php::Literal::Type::kConstant: {
                    // Undefined and magic constants (not modelled) read as "".
                    const auto it = constants_.find(n.value);
                    return it == constants_.end() ? Value::string("") : it->second;
                }
            }
            return Value();
        }
        case NodeKind::kInterpString: {
            const auto& n = static_cast<const php::InterpString&>(expr);
            std::string out;
            for (const php::ExprPtr& part : n.parts)
                if (part) out += eval(*part, frame).to_string();
            return Value::string(std::move(out));
        }
        case NodeKind::kVariable:
            return eval_variable(static_cast<const php::Variable&>(expr), frame);
        case NodeKind::kArrayAccess: {
            const auto& n = static_cast<const php::ArrayAccess&>(expr);
            if (!n.base) return Value();
            // Superglobal element with validator default flooding.
            if (n.base->kind == NodeKind::kVariable) {
                const auto& base = static_cast<const php::Variable&>(*n.base);
                const auto sg = superglobals_.find(base.name);
                if (sg != superglobals_.end()) {
                    const std::string key =
                        n.index ? eval(*n.index, frame).to_string() : "";
                    if (const Value* v = sg->second.array_data()->find(key))
                        return *v;
                    const auto dflt = superglobal_defaults_.find(base.name);
                    if (dflt != superglobal_defaults_.end())
                        return Value::string(dflt->second);
                    return Value();
                }
            }
            const Value base = eval(*n.base, frame);
            const std::string key = n.index ? eval(*n.index, frame).to_string() : "";
            if (base.is_object() && base.object_data()->class_name == "__dbrow")
                return Value::string(db_cell_);
            if (base.is_string()) {
                const long i = std::strtol(key.c_str(), nullptr, 10);
                const std::string s = base.to_string();
                if (i >= 0 && static_cast<size_t>(i) < s.size())
                    return Value::string(std::string(1, s[i]));
                return Value::string("");
            }
            return base.get_element(key);
        }
        case NodeKind::kPropertyAccess: {
            const auto& n = static_cast<const php::PropertyAccess&>(expr);
            if (!n.object) return Value();
            const Value object = eval(*n.object, frame);
            if (!object.is_object()) return Value();
            if (object.object_data()->class_name == "__dbrow")
                return Value::string(db_cell_);
            const auto it = object.object_data()->properties.find(n.property);
            return it != object.object_data()->properties.end() ? it->second
                                                                : Value();
        }
        case NodeKind::kStaticPropertyAccess: {
            const auto& n = static_cast<const php::StaticPropertyAccess&>(expr);
            std::string skey = "::";
            skey += ascii_lower(n.class_name);
            skey += "::$";
            skey += n.property;
            const auto it = globals_.vars.find(skey);
            return it != globals_.vars.end() ? it->second : Value();
        }
        case NodeKind::kClassConstAccess:
            return Value();
        case NodeKind::kFunctionCall:
            return eval_call(static_cast<const php::FunctionCall&>(expr), frame);
        case NodeKind::kMethodCall:
            return eval_method(static_cast<const php::MethodCall&>(expr), frame);
        case NodeKind::kStaticCall:
            return eval_static_call(static_cast<const php::StaticCall&>(expr), frame);
        case NodeKind::kNew:
            return eval_new(static_cast<const php::New&>(expr), frame);
        case NodeKind::kAssign:
            return eval_assign(static_cast<const php::Assign&>(expr), frame);
        case NodeKind::kBinary:
            return eval_binary(static_cast<const php::Binary&>(expr), frame);
        case NodeKind::kUnary: {
            const auto& n = static_cast<const php::Unary&>(expr);
            if (!n.operand) return Value();
            const Value v = eval(*n.operand, frame);
            switch (n.op) {
                case php::UnaryOp::kNot: return Value::boolean(!v.to_bool());
                case php::UnaryOp::kMinus:
                    return arithmetic(php::BinaryOp::kSub, Value::integer(0), v);
                case php::UnaryOp::kPlus: return v.to_number();
                case php::UnaryOp::kBitNot: return Value::integer(~v.to_int());
                case php::UnaryOp::kSuppress: return v;
            }
            return v;
        }
        case NodeKind::kCast: {
            const auto& n = static_cast<const php::Cast&>(expr);
            if (!n.operand) return Value();
            const Value v = eval(*n.operand, frame);
            if (n.type == "int" || n.type == "integer")
                return Value::integer(v.to_int());
            if (n.type == "float" || n.type == "double" || n.type == "real")
                return Value::real(v.to_float());
            if (n.type == "bool" || n.type == "boolean")
                return Value::boolean(v.to_bool());
            if (n.type == "string") return Value::string(v.to_string());
            return v;
        }
        case NodeKind::kTernary: {
            const auto& n = static_cast<const php::Ternary&>(expr);
            if (!n.cond) return Value();
            const Value cond = eval(*n.cond, frame);
            if (cond.to_bool())
                return n.then_expr ? eval(*n.then_expr, frame) : cond;
            return n.else_expr ? eval(*n.else_expr, frame) : Value();
        }
        case NodeKind::kArrayLiteral: {
            const auto& n = static_cast<const php::ArrayLiteral&>(expr);
            Value arr = Value::array();
            for (const php::ArrayItem& item : n.items) {
                if (!item.value) continue;
                Value v = eval(*item.value, frame);
                if (item.key)
                    arr.set_element(eval(*item.key, frame).to_string(), std::move(v));
                else
                    arr.push_element(std::move(v));
            }
            return arr;
        }
        case NodeKind::kIssetExpr: {
            const auto& n = static_cast<const php::IssetExpr&>(expr);
            bool all_set = true;
            for (const php::ExprPtr& v : n.vars) {
                if (!v) continue;
                if (v->kind == NodeKind::kVariable) {
                    const auto& var = static_cast<const php::Variable&>(*v);
                    const Frame& target =
                        frame.is_global || frame.global_aliases.count(var.name)
                            ? globals_
                            : frame;
                    if (!target.vars.count(var.name) &&
                        !superglobals_.count(var.name))
                        all_set = false;
                } else {
                    all_set = all_set && !eval(*v, frame).is_null();
                }
            }
            return Value::boolean(all_set);
        }
        case NodeKind::kEmptyExpr: {
            const auto& n = static_cast<const php::EmptyExpr&>(expr);
            if (!n.operand) return Value::boolean(true);
            // empty() does not create the variable; read without defaulting.
            if (n.operand->kind == NodeKind::kVariable) {
                const auto& var = static_cast<const php::Variable&>(*n.operand);
                Frame& target =
                    frame.is_global || frame.global_aliases.count(var.name)
                        ? globals_
                        : frame;
                const auto it = target.vars.find(var.name);
                return Value::boolean(it == target.vars.end() ||
                                      !it->second.to_bool());
            }
            return Value::boolean(!eval(*n.operand, frame).to_bool());
        }
        case NodeKind::kIncDec: {
            const auto& n = static_cast<const php::IncDec&>(expr);
            if (!n.operand || n.operand->kind != NodeKind::kVariable)
                return Value();
            const Value old = eval(*n.operand, frame);
            const Value updated =
                arithmetic(n.increment ? php::BinaryOp::kAdd : php::BinaryOp::kSub,
                           old, Value::integer(1));
            assign_to(*n.operand, updated, frame);
            return n.prefix ? updated : old;
        }
        case NodeKind::kClosure: {
            const auto& n = static_cast<const php::Closure&>(expr);
            Value c = Value::object("__closure");
            c.object_data()->closure_node = &n;
            for (const auto& [name, by_ref] : n.uses) {
                Value* slot = lvalue_variable(name, frame);
                c.object_data()->properties[std::string(name)] =
                    slot ? *slot : Value();
            }
            return c;
        }
        case NodeKind::kIncludeExpr: {
            const auto& n = static_cast<const php::IncludeExpr&>(expr);
            if (!n.path) return Value();
            const std::string hint = eval(*n.path, frame).to_string();
            const php::ParsedFile* resolved = project_.resolve_include(hint);
            if (!resolved) return Value::boolean(false);
            if (static_cast<int>(include_stack_.size()) >=
                options_.max_include_depth)
                return Value::boolean(false);
            if (std::find(include_stack_.begin(), include_stack_.end(),
                          resolved->source->name()) != include_stack_.end())
                return Value::boolean(true);
            include_stack_.push_back(resolved->source->name());
            const Flow flow = exec_stmts(resolved->unit.statements, frame);
            include_stack_.pop_back();
            if (flow == Flow::kExit) pending_flow_ = Flow::kExit;
            return Value::boolean(true);
        }
        case NodeKind::kListExpr:
            return Value();
        case NodeKind::kInstanceOf: {
            const auto& n = static_cast<const php::InstanceOf&>(expr);
            if (!n.object) return Value::boolean(false);
            const Value v = eval(*n.object, frame);
            return Value::boolean(v.is_object() &&
                                  iequals(v.object_data()->class_name,
                                          n.class_name));
        }
        case NodeKind::kPrintExpr: {
            const auto& n = static_cast<const php::PrintExpr&>(expr);
            if (n.operand) emit(eval(*n.operand, frame).to_string());
            return Value::integer(1);
        }
        case NodeKind::kExitExpr: {
            const auto& n = static_cast<const php::ExitExpr&>(expr);
            if (n.operand) {
                const Value v = eval(*n.operand, frame);
                if (v.is_string()) emit(v.to_string());
            }
            pending_flow_ = Flow::kExit;
            result_.exited = true;
            return Value();
        }
        default:
            return Value();
    }
}

Value Interpreter::eval_variable(const php::Variable& var, Frame& frame) {
    const auto sg = superglobals_.find(var.name);
    if (sg != superglobals_.end()) return sg->second;
    if (var.name == "$this") return frame.this_object;
    if (var.name == "$GLOBALS") {
        Value all = Value::array();
        for (const auto& [name, value] : globals_.vars)
            all.set_element(name.substr(1), value);
        return all;
    }
    Frame& target = frame.is_global || frame.global_aliases.count(var.name)
                        ? globals_
                        : frame;
    const auto it = target.vars.find(var.name);
    return it != target.vars.end() ? it->second : Value();
}

Value* Interpreter::lvalue_variable(std::string_view name, Frame& frame) {
    Frame& target =
        frame.is_global || frame.global_aliases.count(name) ? globals_ : frame;
    const auto it = target.vars.find(name);
    if (it != target.vars.end()) return &it->second;
    return &target.vars.emplace(std::string(name), Value()).first->second;
}

void Interpreter::assign_to(const php::Expr& target, Value value, Frame& frame) {
    switch (target.kind) {
        case NodeKind::kVariable: {
            const auto& var = static_cast<const php::Variable&>(target);
            if (superglobals_.count(var.name)) return;
            *lvalue_variable(var.name, frame) = std::move(value);
            return;
        }
        case NodeKind::kArrayAccess: {
            const auto& access = static_cast<const php::ArrayAccess&>(target);
            if (!access.base || access.base->kind != NodeKind::kVariable) return;
            const auto& base = static_cast<const php::Variable&>(*access.base);
            Value* slot = lvalue_variable(base.name, frame);
            if (!slot->is_array()) *slot = Value::array();
            if (access.index)
                slot->set_element(eval(*access.index, frame).to_string(),
                                  std::move(value));
            else
                slot->push_element(std::move(value));
            return;
        }
        case NodeKind::kPropertyAccess: {
            const auto& access = static_cast<const php::PropertyAccess&>(target);
            if (!access.object || access.property.empty()) return;
            const Value object = eval(*access.object, frame);
            if (object.is_object())
                object.object_data()->properties[std::string(access.property)] =
                    std::move(value);
            return;
        }
        case NodeKind::kStaticPropertyAccess: {
            const auto& access =
                static_cast<const php::StaticPropertyAccess&>(target);
            std::string skey = "::";
            skey += ascii_lower(access.class_name);
            skey += "::$";
            skey += access.property;
            globals_.vars[std::move(skey)] = std::move(value);
            return;
        }
        case NodeKind::kListExpr: {
            const auto& list = static_cast<const php::ListExpr&>(target);
            int index = 0;
            for (const php::ExprPtr& element : list.elements) {
                if (element)
                    assign_to(*element, value.get_element(std::to_string(index)),
                              frame);
                ++index;
            }
            return;
        }
        default:
            return;
    }
}

Value Interpreter::eval_assign(const php::Assign& assign, Frame& frame) {
    if (!assign.target || !assign.value) return Value();
    Value value = eval(*assign.value, frame);
    if (assign.op == php::AssignOp::kCoalesce) {
        const Value current = eval(*assign.target, frame);
        if (!current.is_null()) return current;
    } else if (assign.op != php::AssignOp::kAssign) {
        value = apply_binary(compound_op(assign.op), eval(*assign.target, frame),
                             value);
    }
    assign_to(*assign.target, value, frame);
    return value;
}

Value Interpreter::eval_binary(const php::Binary& bin, Frame& frame) {
    using php::BinaryOp;
    // A left-deep chain (`$a . $b . … . $z`, parsed as ((a . b) . …) . z)
    // is folded over an explicit spine instead of recursing once per term,
    // so a 40k-term chain cannot overflow the stack. The order of work is
    // the recursion's: each nested lhs takes its step() top-down, then the
    // operands are evaluated left to right, so step budgets are exhausted
    // at the same node. spine_ is shared by nested calls; this call owns
    // the entries above `base`.
    const size_t base = spine_.size();
    const php::Binary* node = &bin;
    Value value;  // the value of the lhs of spine_.back()
    for (;;) {
        if (!node->lhs || !node->rhs) break;  // the node's value is null
        spine_.push_back(node);
        if (node->lhs->kind != NodeKind::kBinary) {
            value = eval(*node->lhs, frame);
            break;
        }
        if (!step()) break;  // what eval() answers for an lhs out of budget
        node = static_cast<const php::Binary*>(node->lhs);
    }
    while (spine_.size() > base) {
        const php::Binary& top = *spine_.back();
        spine_.pop_back();
        // Short-circuit logical operators skip their rhs.
        if (top.op == BinaryOp::kAnd)
            value = Value::boolean(value.to_bool() && eval(*top.rhs, frame).to_bool());
        else if (top.op == BinaryOp::kOr)
            value = Value::boolean(value.to_bool() || eval(*top.rhs, frame).to_bool());
        else
            value = apply_binary(top.op, std::move(value), eval(*top.rhs, frame));
    }
    return value;
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

Value Interpreter::call_user_function(const php::FunctionRef& ref,
                                      const std::vector<Value>& args,
                                      Value this_object, Frame& caller) {
    (void)caller;
    if (!ref.decl || call_depth_ >= options_.max_call_depth) return Value();
    ++call_depth_;
    Frame frame;
    frame.current_class = ref.owner;
    frame.this_object = std::move(this_object);
    for (size_t i = 0; i < ref.decl->params.size(); ++i) {
        const php::Param& param = ref.decl->params[i];
        if (i < args.size())
            frame.vars[std::string(param.name)] = args[i];
        else if (param.default_value)
            frame.vars[std::string(param.name)] = eval(*param.default_value, frame);
    }
    return_value_ = Value();
    const Flow flow = exec_stmts(ref.decl->body, frame);
    // Persist the final values of `static` variables for the next call.
    for (auto& [name, slot] : frame.static_bindings) {
        const auto it = frame.vars.find(name);
        if (it != frame.vars.end()) *slot = it->second;
    }
    --call_depth_;
    if (flow == Flow::kExit) pending_flow_ = Flow::kExit;
    // Generator: a body that yielded returns the collected values.
    if (!frame.yielded.empty()) {
        Value generated = Value::array();
        for (Value& v : frame.yielded) generated.push_element(std::move(v));
        return_value_ = Value();
        return generated;
    }
    Value result = return_value_;
    return_value_ = Value();
    return result;
}

Value Interpreter::eval_call(const php::FunctionCall& call, Frame& frame) {
    // Calls through an expression (closures, variable functions).
    if (call.name.empty()) {
        if (!call.callee) return Value();
        const Value callee = eval(*call.callee, frame);
        std::vector<Value> args;
        for (const php::Argument& a : call.args)
            args.push_back(a.value ? eval(*a.value, frame) : Value());
        if (callee.is_object() && callee.object_data()->closure_node) {
            const auto* closure =
                static_cast<const php::Closure*>(callee.object_data()->closure_node);
            if (call_depth_ >= options_.max_call_depth) return Value();
            ++call_depth_;
            Frame body;
            body.current_class = frame.current_class;
            body.this_object = frame.this_object;
            for (const auto& [name, value] : callee.object_data()->properties)
                body.vars[name] = value;
            for (size_t i = 0; i < closure->params.size() && i < args.size(); ++i)
                body.vars[std::string(closure->params[i].name)] = args[i];
            return_value_ = Value();
            const Flow flow = exec_stmts(closure->body, body);
            --call_depth_;
            if (flow == Flow::kExit) pending_flow_ = Flow::kExit;
            return return_value_;
        }
        // Variable function: "$fn" holding a function name.
        if (callee.is_string()) {
            if (const php::FunctionRef* ref = project_.find_function(callee.to_string()))
                return call_user_function(*ref, args, Value(), frame);
        }
        return Value();
    }

    std::vector<Value> args;
    for (const php::Argument& a : call.args)
        args.push_back(a.value ? eval(*a.value, frame) : Value());

    const std::string lower = ascii_lower(call.name);
    if (lower == "__yield") {
        // Generator body: collect the yielded value ('k' => v yields v).
        if (!args.empty()) frame.yielded.push_back(args.back());
        return Value();
    }
    Value out;
    if (call_builtin(lower, args, &call, frame, out)) return out;

    if (const php::FunctionRef* ref = project_.find_function(call.name))
        return call_user_function(*ref, args, Value(), frame);
    return Value();
}

Value Interpreter::eval_method(const php::MethodCall& call, Frame& frame) {
    if (!call.object || call.method.empty()) return Value();
    const Value object = eval(*call.object, frame);
    std::vector<Value> args;
    for (const php::Argument& a : call.args)
        args.push_back(a.value ? eval(*a.value, frame) : Value());
    if (!object.is_object()) return Value();
    const std::string& cls = object.object_data()->class_name;
    if (cls == "wpdb") return wpdb_method(ascii_lower(call.method), args);
    if (cls == "mysqli" && iequals(call.method, "query")) {
        result_.queries.push_back(args.empty() ? "" : args[0].to_string());
        return make_result_handle();
    }
    if (const php::FunctionRef* ref = project_.find_method(cls, call.method))
        return call_user_function(*ref, args, object, frame);
    return Value();
}

Value Interpreter::eval_static_call(const php::StaticCall& call, Frame& frame) {
    std::vector<Value> args;
    for (const php::Argument& a : call.args)
        args.push_back(a.value ? eval(*a.value, frame) : Value());
    std::string cls = ascii_lower(call.class_name);
    if ((cls == "self" || cls == "static") && frame.current_class)
        cls = ascii_lower(frame.current_class->name);
    if (cls == "parent" && frame.current_class)
        cls = ascii_lower(frame.current_class->parent);
    if (const php::FunctionRef* ref = project_.find_method(cls, call.method))
        return call_user_function(*ref, args, frame.this_object, frame);
    return Value();
}

Value Interpreter::eval_new(const php::New& expr, Frame& frame) {
    if (expr.class_name.empty()) return Value();
    std::string cls = ascii_lower(expr.class_name);
    if (cls == "self" && frame.current_class)
        cls = ascii_lower(frame.current_class->name);
    Value object = Value::object(cls);
    const php::ClassDecl* decl = project_.find_class(cls);
    // Re-entrant construction (a property default `new`ing its own class,
    // directly or through a cycle) would recurse forever; skip it.
    if (decl && constructing_classes_.insert(cls).second) {
        for (const php::PropertyDecl& prop : decl->properties)
            object.object_data()->properties[std::string(prop.name)] =
                prop.default_value ? eval(*prop.default_value, frame) : Value();
        std::vector<Value> args;
        for (const php::Argument& a : expr.args)
            args.push_back(a.value ? eval(*a.value, frame) : Value());
        if (const php::FunctionRef* ctor = project_.find_method(cls, "__construct"))
            call_user_function(*ctor, args, object, frame);
        constructing_classes_.erase(cls);
    }
    return object;
}

Value Interpreter::wpdb_method(const std::string& method,
                               const std::vector<Value>& args) {
    const std::string query = args.empty() ? "" : args[0].to_string();
    if (method == "query") {
        result_.queries.push_back(query);
        return Value::integer(1);
    }
    if (method == "get_results" || method == "get_col") {
        result_.queries.push_back(query);
        Value rows = Value::array();
        for (int i = 0; i < db_rows_; ++i)
            rows.push_element(method == "get_col" ? Value::string(db_cell_)
                                                  : make_db_row());
        return rows;
    }
    if (method == "get_row") {
        result_.queries.push_back(query);
        return make_db_row();
    }
    if (method == "get_var") {
        result_.queries.push_back(query);
        return Value::string(db_cell_);
    }
    if (method == "prepare") {
        // sprintf-style substitution with quoting — the real wpdb::prepare.
        std::string out;
        size_t arg_index = 1;
        for (size_t i = 0; i < query.size(); ++i) {
            if (query[i] == '%' && i + 1 < query.size()) {
                const char spec = query[i + 1];
                if (spec == 's') {
                    const std::string raw = arg_index < args.size()
                                                ? args[arg_index++].to_string()
                                                : "";
                    out += "'" + php_addslashes(raw) + "'";
                    ++i;
                    continue;
                }
                if (spec == 'd') {
                    out += std::to_string(arg_index < args.size()
                                              ? args[arg_index++].to_int()
                                              : 0);
                    ++i;
                    continue;
                }
            }
            out += query[i];
        }
        return Value::string(out);
    }
    if (method == "insert" || method == "update" || method == "delete")
        return Value::integer(1);
    if (method == "esc_like" || method == "_real_escape")
        return Value::string(
            php_addslashes(args.empty() ? "" : args[0].to_string()));
    return Value();
}

bool Interpreter::call_builtin(const std::string& name, std::vector<Value>& args,
                               const php::FunctionCall* call, Frame& frame,
                               Value& out) {
    auto arg_str = [&](size_t i) {
        return i < args.size() ? args[i].to_string() : std::string();
    };

    // --- output / queries ----------------------------------------------------
    if (name == "printf" || name == "vprintf") {
        // Minimal %s/%d formatting.
        std::string format = arg_str(0);
        std::string rendered;
        size_t arg_index = 1;
        for (size_t i = 0; i < format.size(); ++i) {
            if (format[i] == '%' && i + 1 < format.size()) {
                if (format[i + 1] == 's') {
                    rendered += arg_str(arg_index++);
                    ++i;
                    continue;
                }
                if (format[i + 1] == 'd') {
                    rendered += std::to_string(
                        arg_index < args.size() ? args[arg_index++].to_int() : 0);
                    ++i;
                    continue;
                }
            }
            rendered += format[i];
        }
        emit(rendered);
        out = Value::integer(static_cast<long>(rendered.size()));
        return true;
    }
    if (name == "print_r" || name == "var_dump") {
        emit(arg_str(0));
        out = Value::boolean(true);
        return true;
    }
    if (name == "_e" || name == "wp_die" || name == "trigger_error" ||
        name == "drupal_set_message") {
        emit(arg_str(0));
        if (name == "wp_die") {
            pending_flow_ = Flow::kExit;
            result_.exited = true;
        }
        out = Value();
        return true;
    }
    if (name == "mysql_query" || name == "mysqli_query" || name == "pg_query" ||
        name == "db_query") {
        result_.queries.push_back(name == "mysqli_query" ? arg_str(1) : arg_str(0));
        out = make_result_handle();
        return true;
    }
    if (name == "mysql_fetch_assoc" || name == "mysql_fetch_array" ||
        name == "mysql_fetch_object" || name == "mysqli_fetch_assoc" ||
        name == "db_fetch_object" || name == "db_fetch_array") {
        if (!args.empty() && args[0].is_object() &&
            args[0].object_data()->cursor < static_cast<size_t>(db_rows_)) {
            ++args[0].object_data()->cursor;
            out = make_db_row();
        } else {
            out = Value::boolean(false);
        }
        return true;
    }

    // --- sanitizers ------------------------------------------------------------
    if (name == "htmlspecialchars" || name == "htmlentities" ||
        name == "esc_html" || name == "esc_attr" || name == "esc_textarea" ||
        name == "check_plain") {
        out = Value::string(php_htmlspecialchars(arg_str(0)));
        return true;
    }
    if (name == "strip_tags" || name == "wp_kses" || name == "wp_kses_post" ||
        name == "filter_xss" || name == "sanitize_text_field") {
        out = Value::string(php_strip_tags(arg_str(0)));
        return true;
    }
    if (name == "intval" || name == "absint") {
        long v = args.empty() ? 0 : args[0].to_int();
        if (name == "absint" && v < 0) v = -v;
        out = Value::integer(v);
        return true;
    }
    if (name == "floatval" || name == "doubleval") {
        out = Value::real(args.empty() ? 0 : args[0].to_float());
        return true;
    }
    if (name == "addslashes" || name == "mysql_escape_string" ||
        name == "mysql_real_escape_string" || name == "esc_sql" ||
        name == "like_escape" || name == "wp_slash") {
        out = Value::string(php_addslashes(arg_str(0)));
        return true;
    }
    if (name == "mysqli_real_escape_string") {
        out = Value::string(php_addslashes(arg_str(args.size() > 1 ? 1 : 0)));
        return true;
    }
    if (name == "stripslashes" || name == "stripcslashes" || name == "wp_unslash") {
        out = Value::string(php_stripslashes(arg_str(0)));
        return true;
    }
    if (name == "html_entity_decode" || name == "htmlspecialchars_decode") {
        std::string s = arg_str(0);
        s = replace_all(std::move(s), "&amp;", "&");
        s = replace_all(std::move(s), "&lt;", "<");
        s = replace_all(std::move(s), "&gt;", ">");
        s = replace_all(std::move(s), "&quot;", "\"");
        s = replace_all(std::move(s), "&#039;", "'");
        out = Value::string(std::move(s));
        return true;
    }
    if (name == "urlencode" || name == "rawurlencode") {
        std::string encoded;
        for (unsigned char c : arg_str(0)) {
            if (std::isalnum(c) || c == '-' || c == '_' || c == '.') {
                encoded += static_cast<char>(c);
            } else {
                char buf[8];
                std::snprintf(buf, sizeof buf, "%%%02X", c);
                encoded += buf;
            }
        }
        out = Value::string(std::move(encoded));
        return true;
    }
    if (name == "urldecode" || name == "rawurldecode") {
        const std::string s = arg_str(0);
        std::string decoded;
        for (size_t i = 0; i < s.size(); ++i) {
            if (s[i] == '%' && i + 2 < s.size()) {
                decoded += static_cast<char>(
                    std::strtol(s.substr(i + 1, 2).c_str(), nullptr, 16));
                i += 2;
            } else {
                decoded += s[i];
            }
        }
        out = Value::string(std::move(decoded));
        return true;
    }
    if (name == "number_format") {
        out = Value::string(std::to_string(args.empty() ? 0 : args[0].to_int()));
        return true;
    }
    if (name == "md5" || name == "sha1") {
        out = Value::string("hash-" + std::to_string(
                                          std::hash<std::string>{}(arg_str(0))));
        return true;
    }

    // --- string / array helpers ---------------------------------------------------
    if (name == "sprintf") {
        std::string format = arg_str(0);
        std::string rendered;
        size_t arg_index = 1;
        for (size_t i = 0; i < format.size(); ++i) {
            if (format[i] == '%' && i + 1 < format.size()) {
                if (format[i + 1] == 's') {
                    rendered += arg_str(arg_index++);
                    ++i;
                    continue;
                }
                if (format[i + 1] == 'd') {
                    rendered += std::to_string(
                        arg_index < args.size() ? args[arg_index++].to_int() : 0);
                    ++i;
                    continue;
                }
            }
            rendered += format[i];
        }
        out = Value::string(std::move(rendered));
        return true;
    }
    if (name == "trim" || name == "ltrim" || name == "rtrim") {
        out = Value::string(std::string(phpsafe::trim(arg_str(0))));
        return true;
    }
    if (name == "strtolower") {
        out = Value::string(ascii_lower(arg_str(0)));
        return true;
    }
    if (name == "strtoupper") {
        std::string s = arg_str(0);
        for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        out = Value::string(std::move(s));
        return true;
    }
    if (name == "str_replace") {
        out = Value::string(replace_all(arg_str(2), arg_str(0), arg_str(1)));
        return true;
    }
    if (name == "substr") {
        const std::string s = arg_str(0);
        long start = args.size() > 1 ? args[1].to_int() : 0;
        if (start < 0) start = std::max<long>(0, static_cast<long>(s.size()) + start);
        if (start >= static_cast<long>(s.size())) {
            out = Value::string("");
            return true;
        }
        const long len = args.size() > 2 ? args[2].to_int()
                                         : static_cast<long>(s.size()) - start;
        out = Value::string(s.substr(start, std::max<long>(0, len)));
        return true;
    }
    if (name == "strlen") {
        out = Value::integer(static_cast<long>(arg_str(0).size()));
        return true;
    }
    if (name == "count" || name == "sizeof") {
        out = Value::integer(args.empty() ? 0
                                          : static_cast<long>(args[0].array_size()));
        return true;
    }
    if (name == "implode" || name == "join") {
        if (args.empty()) {
            out = Value::string("");
            return true;
        }
        const std::string sep = args.size() > 1 ? arg_str(0) : "";
        const Value& arr = args.size() > 1 ? args[1] : args[0];
        std::string joined;
        if (arr.is_array()) {
            bool first = true;
            for (const auto& [k, v] : arr.array_data()->entries) {
                if (!first) joined += sep;
                joined += v.to_string();
                first = false;
            }
        }
        out = Value::string(std::move(joined));
        return true;
    }
    if (name == "explode") {
        Value arr = Value::array();
        const std::string sep = arg_str(0);
        if (!sep.empty())
            for (const std::string& part : split(arg_str(1), sep[0]))
                arr.push_element(Value::string(part));
        out = arr;
        return true;
    }
    if (name == "in_array") {
        bool found = false;
        if (args.size() > 1 && args[1].is_array())
            for (const auto& [k, v] : args[1].array_data()->entries)
                if (v.loose_equals(args[0])) found = true;
        out = Value::boolean(found);
        return true;
    }
    if (name == "is_numeric") {
        out = Value::boolean(args.empty() ? false
                                          : args[0].type() == Value::Type::kInt ||
                                                args[0].type() == Value::Type::kFloat ||
                                                is_numeric_string(args[0].to_string()));
        return true;
    }
    if (name == "ctype_digit") {
        const std::string s = arg_str(0);
        bool all = !s.empty();
        for (char c : s)
            if (!std::isdigit(static_cast<unsigned char>(c))) all = false;
        out = Value::boolean(all);
        return true;
    }
    if (name == "is_array") {
        out = Value::boolean(!args.empty() && args[0].is_array());
        return true;
    }
    if (name == "is_string") {
        out = Value::boolean(!args.empty() && args[0].is_string());
        return true;
    }
    if (name == "preg_match") {
        std::smatch m;
        const std::string subject = arg_str(1);
        const bool matched = pcre_match(arg_str(0), subject, &m);
        if (call && call->args.size() > 2 && call->args[2].value) {
            Value matches = Value::array();
            for (const auto& group : m) matches.push_element(Value::string(group.str()));
            assign_to(*call->args[2].value, std::move(matches), frame);
        }
        out = Value::integer(matched ? 1 : 0);
        return true;
    }

    // --- files -----------------------------------------------------------------
    if (name == "fopen") {
        out = make_result_handle();
        return true;
    }
    if (name == "fgets" || name == "fread") {
        if (!args.empty() && args[0].is_object() &&
            args[0].object_data()->cursor == 0) {
            ++args[0].object_data()->cursor;
            out = Value::string(file_contents_);
        } else {
            out = Value::boolean(false);
        }
        return true;
    }
    if (name == "file_get_contents") {
        out = Value::string(file_contents_);
        return true;
    }
    if (name == "dirname") {
        const std::string path = arg_str(0);
        const size_t slash = path.rfind('/');
        out = Value::string(slash == std::string::npos ? "." : path.substr(0, slash));
        return true;
    }
    if (name == "define") {
        // The first definition wins, as in PHP.
        out = Value::boolean(args.size() >= 2 &&
                             constants_.try_emplace(arg_str(0), args[1]).second);
        return true;
    }
    if (name == "fclose" || name == "error_reporting" || name == "ini_set" ||
        name == "header" || name == "ob_start") {
        out = Value::boolean(true);
        return true;
    }

    // --- CMS helpers -------------------------------------------------------------
    if (name == "get_option" || name == "get_site_option" ||
        name == "get_post_meta" || name == "get_user_meta" ||
        name == "get_transient" || name == "variable_get") {
        out = Value::string(cms_store_);
        return true;
    }
    if (name == "get_the_id") {
        out = Value::integer(7);
        return true;
    }
    if (name == "__" || name == "_x" || name == "apply_filters" ||
        name == "do_shortcode") {
        out = args.empty() ? Value() : args[name == "apply_filters" ? 1 : 0];
        if (name == "apply_filters" && args.size() < 2) out = Value();
        return true;
    }
    if (name == "add_action" || name == "add_filter" || name == "add_shortcode") {
        // The CMS will invoke the handler; model it as an immediate call.
        if (call && call->args.size() > 1 && call->args[1].value) {
            const Value handler = args.size() > 1 ? args[1] : Value();
            if (handler.is_object() && handler.object_data()->closure_node) {
                const auto* closure = static_cast<const php::Closure*>(
                    handler.object_data()->closure_node);
                // Execute the closure with no arguments.
                Frame body;
                body.current_class = frame.current_class;
                for (const auto& [n2, v2] : handler.object_data()->properties)
                    body.vars[n2] = v2;
                exec_stmts(closure->body, body);
            } else if (handler.is_string()) {
                if (const php::FunctionRef* ref =
                        project_.find_function(handler.to_string()))
                    call_user_function(*ref, {}, Value(), frame);
            }
        }
        out = Value::boolean(true);
        return true;
    }
    if (name == "json_encode") {
        std::string encoded = "\"";
        for (char c : arg_str(0)) {
            if (c == '"') encoded += "\\\"";
            else if (c == '\\') encoded += "\\\\";
            else if (c == '/') encoded += "\\/";
            else if (c == '<') encoded += "\\u003C";  // PHP escapes per flags; be safe
            else encoded += c;
        }
        encoded += "\"";
        out = Value::string(std::move(encoded));
        return true;
    }
    if (name == "extract") {
        if (!args.empty() && args[0].is_array())
            for (const auto& [key, value] : args[0].array_data()->entries)
                *lvalue_variable("$" + key, frame) = value;
        out = Value::integer(
            args.empty() ? 0 : static_cast<long>(args[0].array_size()));
        return true;
    }
    if (name == "function_exists") {
        out = Value::boolean(project_.find_function(arg_str(0)) != nullptr);
        return true;
    }
    if (name == "isset" || name == "empty") {
        out = Value::boolean(false);
        return true;
    }
    return false;
}

}  // namespace phpsafe::dynamic
