#include "php/ast.h"

#include <sstream>
#include <vector>

namespace phpsafe::php {

const char* to_string(NodeKind kind) {
    switch (kind) {
        case NodeKind::kLiteral: return "literal";
        case NodeKind::kInterpString: return "interp";
        case NodeKind::kVariable: return "var";
        case NodeKind::kArrayAccess: return "index";
        case NodeKind::kPropertyAccess: return "prop";
        case NodeKind::kStaticPropertyAccess: return "sprop";
        case NodeKind::kClassConstAccess: return "cconst";
        case NodeKind::kFunctionCall: return "call";
        case NodeKind::kMethodCall: return "mcall";
        case NodeKind::kStaticCall: return "scall";
        case NodeKind::kNew: return "new";
        case NodeKind::kAssign: return "assign";
        case NodeKind::kBinary: return "binary";
        case NodeKind::kUnary: return "unary";
        case NodeKind::kCast: return "cast";
        case NodeKind::kTernary: return "ternary";
        case NodeKind::kArrayLiteral: return "array";
        case NodeKind::kIssetExpr: return "isset";
        case NodeKind::kEmptyExpr: return "empty";
        case NodeKind::kIncDec: return "incdec";
        case NodeKind::kClosure: return "closure";
        case NodeKind::kIncludeExpr: return "include";
        case NodeKind::kListExpr: return "list";
        case NodeKind::kInstanceOf: return "instanceof";
        case NodeKind::kPrintExpr: return "print";
        case NodeKind::kExitExpr: return "exit";
        case NodeKind::kExprStmt: return "expr-stmt";
        case NodeKind::kEchoStmt: return "echo";
        case NodeKind::kBlock: return "block";
        case NodeKind::kIfStmt: return "if";
        case NodeKind::kWhileStmt: return "while";
        case NodeKind::kDoWhileStmt: return "do-while";
        case NodeKind::kForStmt: return "for";
        case NodeKind::kForeachStmt: return "foreach";
        case NodeKind::kSwitchStmt: return "switch";
        case NodeKind::kBreakStmt: return "break";
        case NodeKind::kContinueStmt: return "continue";
        case NodeKind::kReturnStmt: return "return";
        case NodeKind::kGlobalStmt: return "global";
        case NodeKind::kStaticVarStmt: return "static-var";
        case NodeKind::kUnsetStmt: return "unset";
        case NodeKind::kFunctionDecl: return "function";
        case NodeKind::kClassDecl: return "class";
        case NodeKind::kInlineHtmlStmt: return "html";
        case NodeKind::kTryStmt: return "try";
        case NodeKind::kThrowStmt: return "throw";
        case NodeKind::kNamespaceStmt: return "namespace";
        case NodeKind::kUseStmt: return "use";
        case NodeKind::kConstStmt: return "const";
    }
    return "?";
}

const char* to_string(AssignOp op) {
    switch (op) {
        case AssignOp::kAssign: return "=";
        case AssignOp::kConcat: return ".=";
        case AssignOp::kPlus: return "+=";
        case AssignOp::kMinus: return "-=";
        case AssignOp::kMul: return "*=";
        case AssignOp::kDiv: return "/=";
        case AssignOp::kMod: return "%=";
        case AssignOp::kPow: return "**=";
        case AssignOp::kBitAnd: return "&=";
        case AssignOp::kBitOr: return "|=";
        case AssignOp::kBitXor: return "^=";
        case AssignOp::kShl: return "<<=";
        case AssignOp::kShr: return ">>=";
        case AssignOp::kCoalesce: return "?\?=";
    }
    return "?";
}

const char* to_string(BinaryOp op) {
    switch (op) {
        case BinaryOp::kConcat: return ".";
        case BinaryOp::kAdd: return "+";
        case BinaryOp::kSub: return "-";
        case BinaryOp::kMul: return "*";
        case BinaryOp::kDiv: return "/";
        case BinaryOp::kMod: return "%";
        case BinaryOp::kPow: return "**";
        case BinaryOp::kEq: return "==";
        case BinaryOp::kNotEq: return "!=";
        case BinaryOp::kIdentical: return "===";
        case BinaryOp::kNotIdentical: return "!==";
        case BinaryOp::kLt: return "<";
        case BinaryOp::kGt: return ">";
        case BinaryOp::kLtEq: return "<=";
        case BinaryOp::kGtEq: return ">=";
        case BinaryOp::kSpaceship: return "<=>";
        case BinaryOp::kAnd: return "&&";
        case BinaryOp::kOr: return "||";
        case BinaryOp::kXor: return "xor";
        case BinaryOp::kBitAnd: return "&";
        case BinaryOp::kBitOr: return "|";
        case BinaryOp::kBitXor: return "^";
        case BinaryOp::kShl: return "<<";
        case BinaryOp::kShr: return ">>";
        case BinaryOp::kCoalesce: return "??";
    }
    return "?";
}

const char* to_string(UnaryOp op) {
    switch (op) {
        case UnaryOp::kNot: return "!";
        case UnaryOp::kMinus: return "-";
        case UnaryOp::kPlus: return "+";
        case UnaryOp::kBitNot: return "~";
        case UnaryOp::kSuppress: return "@";
    }
    return "?";
}

const char* to_string(IncludeKind kind) {
    switch (kind) {
        case IncludeKind::kInclude: return "include";
        case IncludeKind::kIncludeOnce: return "include_once";
        case IncludeKind::kRequire: return "require";
        case IncludeKind::kRequireOnce: return "require_once";
    }
    return "?";
}

namespace {

void dump_node(const Node& node, std::ostringstream& os);

/// Null-tolerant child dump: error-recovered ASTs can carry null slots.
void dump_child(const Node* node, std::ostringstream& os) {
    if (node) dump_node(*node, os);
    else os << "<null>";
}

void dump_args(const ArenaVector<Argument>& args, std::ostringstream& os) {
    for (const Argument& a : args) {
        os << ' ';
        if (a.by_ref) os << '&';
        if (a.spread) os << "...";
        dump_node(*a.value, os);
    }
}

void dump_stmts(const ArenaVector<StmtPtr>& stmts, std::ostringstream& os) {
    for (const StmtPtr& s : stmts) {
        os << ' ';
        dump_node(*s, os);
    }
}

void dump_node(const Node& node, std::ostringstream& os) {
    switch (node.kind) {
        case NodeKind::kLiteral: {
            const auto& n = static_cast<const Literal&>(node);
            if (n.type == Literal::Type::kString)
                os << '"' << n.value << '"';
            else
                os << n.value;
            return;
        }
        case NodeKind::kVariable:
            os << static_cast<const Variable&>(node).name;
            return;
        case NodeKind::kInterpString: {
            const auto& n = static_cast<const InterpString&>(node);
            os << "(interp";
            for (const ExprPtr& p : n.parts) {
                os << ' ';
                dump_node(*p, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kArrayAccess: {
            const auto& n = static_cast<const ArrayAccess&>(node);
            os << "(index ";
            dump_node(*n.base, os);
            if (n.index) {
                os << ' ';
                dump_node(*n.index, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kPropertyAccess: {
            const auto& n = static_cast<const PropertyAccess&>(node);
            os << "(prop ";
            dump_node(*n.object, os);
            os << ' ' << (n.property.empty() ? "<dyn>" : n.property) << ')';
            return;
        }
        case NodeKind::kStaticPropertyAccess: {
            const auto& n = static_cast<const StaticPropertyAccess&>(node);
            os << "(sprop " << n.class_name << " " << n.property << ')';
            return;
        }
        case NodeKind::kClassConstAccess: {
            const auto& n = static_cast<const ClassConstAccess&>(node);
            os << "(cconst " << n.class_name << " " << n.constant << ')';
            return;
        }
        case NodeKind::kFunctionCall: {
            const auto& n = static_cast<const FunctionCall&>(node);
            os << "(call " << (n.name.empty() ? "<expr>" : n.name);
            dump_args(n.args, os);
            os << ')';
            return;
        }
        case NodeKind::kMethodCall: {
            const auto& n = static_cast<const MethodCall&>(node);
            os << "(mcall ";
            dump_node(*n.object, os);
            os << ' ' << (n.method.empty() ? "<dyn>" : n.method);
            dump_args(n.args, os);
            os << ')';
            return;
        }
        case NodeKind::kStaticCall: {
            const auto& n = static_cast<const StaticCall&>(node);
            os << "(scall " << n.class_name << ' ' << n.method;
            dump_args(n.args, os);
            os << ')';
            return;
        }
        case NodeKind::kNew: {
            const auto& n = static_cast<const New&>(node);
            os << "(new " << (n.class_name.empty() ? "<expr>" : n.class_name);
            dump_args(n.args, os);
            os << ')';
            return;
        }
        case NodeKind::kAssign: {
            const auto& n = static_cast<const Assign&>(node);
            os << '(' << to_string(n.op) << (n.by_ref ? "& " : " ");
            dump_child(n.target, os);
            os << ' ';
            dump_child(n.value, os);
            os << ')';
            return;
        }
        case NodeKind::kBinary: {
            const auto& n = static_cast<const Binary&>(node);
            os << '(' << to_string(n.op) << ' ';
            dump_child(n.lhs, os);
            os << ' ';
            dump_child(n.rhs, os);
            os << ')';
            return;
        }
        case NodeKind::kUnary: {
            const auto& n = static_cast<const Unary&>(node);
            os << '(' << to_string(n.op) << ' ';
            dump_child(n.operand, os);
            os << ')';
            return;
        }
        case NodeKind::kCast: {
            const auto& n = static_cast<const Cast&>(node);
            os << "(cast " << n.type << ' ';
            dump_node(*n.operand, os);
            os << ')';
            return;
        }
        case NodeKind::kTernary: {
            const auto& n = static_cast<const Ternary&>(node);
            os << "(?: ";
            dump_child(n.cond, os);
            os << ' ';
            if (n.then_expr) dump_node(*n.then_expr, os);
            else os << "<elvis>";
            os << ' ';
            dump_child(n.else_expr, os);
            os << ')';
            return;
        }
        case NodeKind::kArrayLiteral: {
            const auto& n = static_cast<const ArrayLiteral&>(node);
            os << "(array";
            for (const ArrayItem& item : n.items) {
                os << ' ';
                if (item.key) {
                    os << '[';
                    dump_node(*item.key, os);
                    os << "]=";
                }
                dump_node(*item.value, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kIssetExpr: {
            const auto& n = static_cast<const IssetExpr&>(node);
            os << "(isset";
            for (const ExprPtr& v : n.vars) {
                os << ' ';
                dump_node(*v, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kEmptyExpr: {
            os << "(empty ";
            dump_node(*static_cast<const EmptyExpr&>(node).operand, os);
            os << ')';
            return;
        }
        case NodeKind::kIncDec: {
            const auto& n = static_cast<const IncDec&>(node);
            os << '(' << (n.prefix ? "pre" : "post") << (n.increment ? "++" : "--") << ' ';
            dump_node(*n.operand, os);
            os << ')';
            return;
        }
        case NodeKind::kClosure: {
            const auto& n = static_cast<const Closure&>(node);
            os << "(closure (";
            for (size_t i = 0; i < n.params.size(); ++i)
                os << (i ? " " : "") << n.params[i].name;
            os << ')';
            dump_stmts(n.body, os);
            os << ')';
            return;
        }
        case NodeKind::kIncludeExpr: {
            const auto& n = static_cast<const IncludeExpr&>(node);
            os << '(' << to_string(n.include_kind) << ' ';
            dump_node(*n.path, os);
            os << ')';
            return;
        }
        case NodeKind::kListExpr: {
            const auto& n = static_cast<const ListExpr&>(node);
            os << "(list";
            for (const ExprPtr& e : n.elements) {
                os << ' ';
                if (e) dump_node(*e, os);
                else os << "_";
            }
            os << ')';
            return;
        }
        case NodeKind::kInstanceOf: {
            const auto& n = static_cast<const InstanceOf&>(node);
            os << "(instanceof ";
            dump_node(*n.object, os);
            os << ' ' << n.class_name << ')';
            return;
        }
        case NodeKind::kPrintExpr: {
            os << "(print ";
            dump_node(*static_cast<const PrintExpr&>(node).operand, os);
            os << ')';
            return;
        }
        case NodeKind::kExitExpr: {
            const auto& n = static_cast<const ExitExpr&>(node);
            os << "(exit";
            if (n.operand) {
                os << ' ';
                dump_node(*n.operand, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kExprStmt: {
            dump_node(*static_cast<const ExprStmt&>(node).expr, os);
            return;
        }
        case NodeKind::kEchoStmt: {
            const auto& n = static_cast<const EchoStmt&>(node);
            os << "(echo";
            for (const ExprPtr& a : n.args) {
                os << ' ';
                dump_node(*a, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kBlock: {
            os << "(block";
            dump_stmts(static_cast<const Block&>(node).statements, os);
            os << ')';
            return;
        }
        case NodeKind::kIfStmt: {
            const auto& n = static_cast<const IfStmt&>(node);
            os << "(if ";
            dump_node(*n.cond, os);
            os << ' ';
            dump_node(*n.then_branch, os);
            if (n.else_branch) {
                os << ' ';
                dump_node(*n.else_branch, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kWhileStmt: {
            const auto& n = static_cast<const WhileStmt&>(node);
            os << "(while ";
            dump_node(*n.cond, os);
            os << ' ';
            dump_node(*n.body, os);
            os << ')';
            return;
        }
        case NodeKind::kDoWhileStmt: {
            const auto& n = static_cast<const DoWhileStmt&>(node);
            os << "(do ";
            dump_node(*n.body, os);
            os << ' ';
            dump_node(*n.cond, os);
            os << ')';
            return;
        }
        case NodeKind::kForStmt: {
            const auto& n = static_cast<const ForStmt&>(node);
            os << "(for";
            for (const ExprPtr& e : n.init) {
                os << ' ';
                dump_node(*e, os);
            }
            os << " ;";
            for (const ExprPtr& e : n.cond) {
                os << ' ';
                dump_node(*e, os);
            }
            os << " ;";
            for (const ExprPtr& e : n.update) {
                os << ' ';
                dump_node(*e, os);
            }
            os << ' ';
            dump_node(*n.body, os);
            os << ')';
            return;
        }
        case NodeKind::kForeachStmt: {
            const auto& n = static_cast<const ForeachStmt&>(node);
            os << "(foreach ";
            dump_node(*n.iterable, os);
            os << " as ";
            if (n.key_var) {
                dump_node(*n.key_var, os);
                os << " => ";
            }
            dump_node(*n.value_var, os);
            os << ' ';
            dump_node(*n.body, os);
            os << ')';
            return;
        }
        case NodeKind::kSwitchStmt: {
            const auto& n = static_cast<const SwitchStmt&>(node);
            os << "(switch ";
            dump_node(*n.subject, os);
            for (const SwitchCase& c : n.cases) {
                os << " (case ";
                if (c.match) dump_node(*c.match, os);
                else os << "default";
                dump_stmts(c.body, os);
                os << ')';
            }
            os << ')';
            return;
        }
        case NodeKind::kBreakStmt: os << "(break)"; return;
        case NodeKind::kContinueStmt: os << "(continue)"; return;
        case NodeKind::kReturnStmt: {
            const auto& n = static_cast<const ReturnStmt&>(node);
            os << "(return";
            if (n.value) {
                os << ' ';
                dump_node(*n.value, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kGlobalStmt: {
            const auto& n = static_cast<const GlobalStmt&>(node);
            os << "(global";
            for (const std::string_view name : n.names) os << ' ' << name;
            os << ')';
            return;
        }
        case NodeKind::kStaticVarStmt: {
            const auto& n = static_cast<const StaticVarStmt&>(node);
            os << "(static";
            for (const auto& [name, init] : n.vars) {
                os << ' ' << name;
                if (init) {
                    os << '=';
                    dump_node(*init, os);
                }
            }
            os << ')';
            return;
        }
        case NodeKind::kUnsetStmt: {
            const auto& n = static_cast<const UnsetStmt&>(node);
            os << "(unset";
            for (const ExprPtr& v : n.vars) {
                os << ' ';
                dump_node(*v, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kFunctionDecl: {
            const auto& n = static_cast<const FunctionDecl&>(node);
            os << "(function " << n.name << " (";
            for (size_t i = 0; i < n.params.size(); ++i)
                os << (i ? " " : "") << n.params[i].name;
            os << ')';
            dump_stmts(n.body, os);
            os << ')';
            return;
        }
        case NodeKind::kClassDecl: {
            const auto& n = static_cast<const ClassDecl&>(node);
            os << "(class " << n.name;
            if (!n.parent.empty()) os << " extends " << n.parent;
            for (const PropertyDecl& p : n.properties) os << " $" << p.name;
            for (const auto& m : n.methods) {
                os << ' ';
                dump_node(*m, os);
            }
            os << ')';
            return;
        }
        case NodeKind::kInlineHtmlStmt: os << "(html)"; return;
        case NodeKind::kTryStmt: {
            const auto& n = static_cast<const TryStmt&>(node);
            os << "(try";
            dump_stmts(n.body, os);
            for (const CatchClause& c : n.catches) {
                os << " (catch " << c.var;
                dump_stmts(c.body, os);
                os << ')';
            }
            if (n.has_finally) {
                os << " (finally";
                dump_stmts(n.finally_body, os);
                os << ')';
            }
            os << ')';
            return;
        }
        case NodeKind::kThrowStmt: {
            os << "(throw ";
            dump_node(*static_cast<const ThrowStmt&>(node).value, os);
            os << ')';
            return;
        }
        case NodeKind::kNamespaceStmt: {
            const auto& n = static_cast<const NamespaceStmt&>(node);
            os << "(namespace " << n.name;
            dump_stmts(n.body, os);
            os << ')';
            return;
        }
        case NodeKind::kUseStmt: {
            const auto& n = static_cast<const UseStmt&>(node);
            os << "(use";
            for (const auto& [fqn, alias] : n.imports) os << ' ' << fqn;
            os << ')';
            return;
        }
        case NodeKind::kConstStmt: {
            const auto& n = static_cast<const ConstStmt&>(node);
            os << "(const";
            for (const auto& [name, value] : n.constants) {
                os << ' ' << name << '=';
                dump_node(*value, os);
            }
            os << ')';
            return;
        }
    }
    os << "(?" << to_string(node.kind) << ')';
}

}  // namespace

std::string dump(const Node& node) {
    std::ostringstream os;
    dump_node(node, os);
    return os.str();
}

namespace {

void append_php_source(const Expr& expr, std::string& out);

void append_args(const ArenaVector<Argument>& args, std::string& out) {
    out += '(';
    for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        append_php_source(*args[i].value, out);
    }
    out += ')';
}

/// Renders a binary chain with an explicit work stack instead of one C++
/// frame per level: a 30k-term concatenation is a 30k-deep left spine.
/// Items are popped in output order; a null `expr` stands for the operator
/// of `op`.
void append_binary(const Binary& root, std::string& out) {
    struct Item {
        const Expr* expr;
        const Binary* op;
    };
    std::vector<Item> stack{{&root, nullptr}};
    while (!stack.empty()) {
        const Item item = stack.back();
        stack.pop_back();
        if (!item.expr) {
            out += ' ';
            out += to_string(item.op->op);
            out += ' ';
        } else if (item.expr->kind == NodeKind::kBinary) {
            const auto& n = static_cast<const Binary&>(*item.expr);
            stack.push_back({n.rhs, nullptr});
            stack.push_back({nullptr, &n});
            stack.push_back({n.lhs, nullptr});
        } else {
            append_php_source(*item.expr, out);
        }
    }
}

void append_php_source(const Expr& expr, std::string& out) {
    switch (expr.kind) {
        case NodeKind::kVariable:
            out += static_cast<const Variable&>(expr).name;
            return;
        case NodeKind::kLiteral: {
            const auto& n = static_cast<const Literal&>(expr);
            if (n.type == Literal::Type::kString) {
                out += '\'';
                out += n.value;
                out += '\'';
            } else {
                out += n.value;
            }
            return;
        }
        case NodeKind::kArrayAccess: {
            const auto& n = static_cast<const ArrayAccess&>(expr);
            append_php_source(*n.base, out);
            out += '[';
            if (n.index) append_php_source(*n.index, out);
            out += ']';
            return;
        }
        case NodeKind::kPropertyAccess: {
            const auto& n = static_cast<const PropertyAccess&>(expr);
            append_php_source(*n.object, out);
            out += "->";
            out += n.property.empty() ? std::string_view("{...}") : n.property;
            return;
        }
        case NodeKind::kStaticPropertyAccess: {
            const auto& n = static_cast<const StaticPropertyAccess&>(expr);
            out += n.class_name;
            out += "::$";
            out += n.property;
            return;
        }
        case NodeKind::kFunctionCall: {
            const auto& n = static_cast<const FunctionCall&>(expr);
            out += n.name.empty() ? std::string_view("{expr}") : n.name;
            append_args(n.args, out);
            return;
        }
        case NodeKind::kMethodCall: {
            const auto& n = static_cast<const MethodCall&>(expr);
            append_php_source(*n.object, out);
            out += "->";
            out += n.method.empty() ? std::string_view("{...}") : n.method;
            append_args(n.args, out);
            return;
        }
        case NodeKind::kStaticCall: {
            const auto& n = static_cast<const StaticCall&>(expr);
            out += n.class_name;
            out += "::";
            out += n.method;
            append_args(n.args, out);
            return;
        }
        case NodeKind::kBinary:
            append_binary(static_cast<const Binary&>(expr), out);
            return;
        case NodeKind::kInterpString: {
            const auto& n = static_cast<const InterpString&>(expr);
            out += '"';
            for (const ExprPtr& p : n.parts) {
                if (p->kind == NodeKind::kLiteral) {
                    out += static_cast<const Literal&>(*p).value;
                } else {
                    out += '{';
                    append_php_source(*p, out);
                    out += '}';
                }
            }
            out += '"';
            return;
        }
        case NodeKind::kCast: {
            const auto& n = static_cast<const Cast&>(expr);
            out += '(';
            out += n.type;
            out += ") ";
            append_php_source(*n.operand, out);
            return;
        }
        case NodeKind::kNew: {
            const auto& n = static_cast<const New&>(expr);
            out += "new ";
            out += n.class_name.empty() ? std::string_view("{expr}") : n.class_name;
            return;
        }
        default:
            out += dump(expr);
            return;
    }
}

}  // namespace

std::string to_php_source(const Expr& expr) {
    std::string out;
    append_php_source(expr, out);
    return out;
}

}  // namespace phpsafe::php
