// Generic AST traversal helpers: enumerate the direct children of a node,
// or walk a whole tree. Used by the parse-time facts walk (php/project.cpp),
// the benches and tests; the taint engine walks the tree itself because
// evaluation order matters there. The tree walk keeps an explicit stack,
// so a 40k-term concatenation costs heap, not call stack.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory_resource>
#include <vector>

#include "php/ast.h"

namespace phpsafe::php {

using ExprVisitor = std::function<void(const Expr&)>;
using StmtVisitor = std::function<void(const Stmt&)>;

/// Invokes `ec` on every direct child expression of `e` (not recursive).
void for_each_child_expr(const Expr& e, const ExprVisitor& ec);

/// Invokes `ec` / `sc` on direct expression / statement children of `s`.
void for_each_child(const Stmt& s, const ExprVisitor& ec, const StmtVisitor& sc);

/// Depth-first pre-order walk of a statement tree: visits every statement
/// and every expression, including those nested in functions/classes.
/// Statements inside closure bodies reach only `ec` (their expressions),
/// never `sc` — a closure's body is not a declaration site.
void walk_stmt(const Stmt& s, const ExprVisitor& ec, const StmtVisitor& sc);

inline void for_each_child_expr(const Expr& e, const ExprVisitor& ec) {
    auto visit = [&](const ExprPtr& p) {
        if (p) ec(*p);
    };
    auto visit_args = [&](const ArenaVector<Argument>& args) {
        for (const Argument& a : args) visit(a.value);
    };
    switch (e.kind) {
        case NodeKind::kInterpString:
            for (const ExprPtr& p : static_cast<const InterpString&>(e).parts) visit(p);
            break;
        case NodeKind::kArrayAccess: {
            const auto& n = static_cast<const ArrayAccess&>(e);
            visit(n.base);
            visit(n.index);
            break;
        }
        case NodeKind::kPropertyAccess: {
            const auto& n = static_cast<const PropertyAccess&>(e);
            visit(n.object);
            visit(n.property_expr);
            break;
        }
        case NodeKind::kFunctionCall: {
            const auto& n = static_cast<const FunctionCall&>(e);
            visit(n.callee);
            visit_args(n.args);
            break;
        }
        case NodeKind::kMethodCall: {
            const auto& n = static_cast<const MethodCall&>(e);
            visit(n.object);
            visit(n.method_expr);
            visit_args(n.args);
            break;
        }
        case NodeKind::kStaticCall:
            visit_args(static_cast<const StaticCall&>(e).args);
            break;
        case NodeKind::kNew: {
            const auto& n = static_cast<const New&>(e);
            visit(n.class_expr);
            visit_args(n.args);
            break;
        }
        case NodeKind::kAssign: {
            const auto& n = static_cast<const Assign&>(e);
            visit(n.target);
            visit(n.value);
            break;
        }
        case NodeKind::kBinary: {
            const auto& n = static_cast<const Binary&>(e);
            visit(n.lhs);
            visit(n.rhs);
            break;
        }
        case NodeKind::kUnary:
            visit(static_cast<const Unary&>(e).operand);
            break;
        case NodeKind::kCast:
            visit(static_cast<const Cast&>(e).operand);
            break;
        case NodeKind::kTernary: {
            const auto& n = static_cast<const Ternary&>(e);
            visit(n.cond);
            visit(n.then_expr);
            visit(n.else_expr);
            break;
        }
        case NodeKind::kArrayLiteral:
            for (const ArrayItem& item : static_cast<const ArrayLiteral&>(e).items) {
                visit(item.key);
                visit(item.value);
            }
            break;
        case NodeKind::kIssetExpr:
            for (const ExprPtr& v : static_cast<const IssetExpr&>(e).vars) visit(v);
            break;
        case NodeKind::kEmptyExpr:
            visit(static_cast<const EmptyExpr&>(e).operand);
            break;
        case NodeKind::kIncDec:
            visit(static_cast<const IncDec&>(e).operand);
            break;
        case NodeKind::kIncludeExpr:
            visit(static_cast<const IncludeExpr&>(e).path);
            break;
        case NodeKind::kListExpr:
            for (const ExprPtr& el : static_cast<const ListExpr&>(e).elements) visit(el);
            break;
        case NodeKind::kInstanceOf:
            visit(static_cast<const InstanceOf&>(e).object);
            break;
        case NodeKind::kPrintExpr:
            visit(static_cast<const PrintExpr&>(e).operand);
            break;
        case NodeKind::kExitExpr:
            visit(static_cast<const ExitExpr&>(e).operand);
            break;
        default:
            break;  // leaves: literal, variable, static-prop, class-const, closure
    }
}

inline void for_each_child(const Stmt& s, const ExprVisitor& ec, const StmtVisitor& sc) {
    auto visit_e = [&](const ExprPtr& p) {
        if (p) ec(*p);
    };
    auto visit_s = [&](const StmtPtr& p) {
        if (p) sc(*p);
    };
    auto visit_list = [&](const ArenaVector<StmtPtr>& stmts) {
        for (const StmtPtr& p : stmts) visit_s(p);
    };
    switch (s.kind) {
        case NodeKind::kExprStmt:
            visit_e(static_cast<const ExprStmt&>(s).expr);
            break;
        case NodeKind::kEchoStmt:
            for (const ExprPtr& a : static_cast<const EchoStmt&>(s).args) visit_e(a);
            break;
        case NodeKind::kBlock:
            visit_list(static_cast<const Block&>(s).statements);
            break;
        case NodeKind::kIfStmt: {
            const auto& n = static_cast<const IfStmt&>(s);
            visit_e(n.cond);
            visit_s(n.then_branch);
            visit_s(n.else_branch);
            break;
        }
        case NodeKind::kWhileStmt: {
            const auto& n = static_cast<const WhileStmt&>(s);
            visit_e(n.cond);
            visit_s(n.body);
            break;
        }
        case NodeKind::kDoWhileStmt: {
            const auto& n = static_cast<const DoWhileStmt&>(s);
            visit_s(n.body);
            visit_e(n.cond);
            break;
        }
        case NodeKind::kForStmt: {
            const auto& n = static_cast<const ForStmt&>(s);
            for (const ExprPtr& e : n.init) visit_e(e);
            for (const ExprPtr& e : n.cond) visit_e(e);
            for (const ExprPtr& e : n.update) visit_e(e);
            visit_s(n.body);
            break;
        }
        case NodeKind::kForeachStmt: {
            const auto& n = static_cast<const ForeachStmt&>(s);
            visit_e(n.iterable);
            visit_e(n.key_var);
            visit_e(n.value_var);
            visit_s(n.body);
            break;
        }
        case NodeKind::kSwitchStmt: {
            const auto& n = static_cast<const SwitchStmt&>(s);
            visit_e(n.subject);
            for (const SwitchCase& c : n.cases) {
                visit_e(c.match);
                visit_list(c.body);
            }
            break;
        }
        case NodeKind::kReturnStmt:
            visit_e(static_cast<const ReturnStmt&>(s).value);
            break;
        case NodeKind::kStaticVarStmt:
            for (const auto& [name, init] : static_cast<const StaticVarStmt&>(s).vars)
                visit_e(init);
            break;
        case NodeKind::kUnsetStmt:
            for (const ExprPtr& v : static_cast<const UnsetStmt&>(s).vars) visit_e(v);
            break;
        case NodeKind::kFunctionDecl: {
            const auto& n = static_cast<const FunctionDecl&>(s);
            for (const Param& p : n.params) visit_e(p.default_value);
            visit_list(n.body);
            break;
        }
        case NodeKind::kClassDecl: {
            const auto& n = static_cast<const ClassDecl&>(s);
            for (const PropertyDecl& p : n.properties) visit_e(p.default_value);
            for (const ClassConstDecl& c : n.constants) visit_e(c.value);
            for (const auto& m : n.methods)
                if (m) sc(*m);
            break;
        }
        case NodeKind::kTryStmt: {
            const auto& n = static_cast<const TryStmt&>(s);
            visit_list(n.body);
            for (const CatchClause& c : n.catches) visit_list(c.body);
            visit_list(n.finally_body);
            break;
        }
        case NodeKind::kThrowStmt:
            visit_e(static_cast<const ThrowStmt&>(s).value);
            break;
        case NodeKind::kNamespaceStmt:
            visit_list(static_cast<const NamespaceStmt&>(s).body);
            break;
        case NodeKind::kConstStmt:
            for (const auto& [name, value] : static_cast<const ConstStmt&>(s).constants)
                visit_e(value);
            break;
        default:
            break;  // break/continue/global/html/use: no children
    }
}

inline void walk_stmt(const Stmt& root, const ExprVisitor& ec,
                      const StmtVisitor& sc) {
    struct Item {
        const Node* node;
        bool is_stmt;
        bool visit_stmts;  ///< false inside closure bodies
    };
    // The explicit stack starts in a stack buffer, so a typical walk
    // allocates nothing and a deep one borrows heap only until it returns.
    std::array<std::byte, 8 * 1024> buffer;
    std::pmr::monotonic_buffer_resource memory(buffer.data(), buffer.size());
    std::pmr::vector<Item> stack(&memory);
    bool visit_stmts = true;
    const ExprVisitor push_expr = [&](const Expr& e) {
        stack.push_back({&e, false, visit_stmts});
    };
    const StmtVisitor push_stmt = [&](const Stmt& s) {
        stack.push_back({&s, true, visit_stmts});
    };
    stack.push_back({&root, true, true});
    while (!stack.empty()) {
        const Item item = stack.back();
        stack.pop_back();
        visit_stmts = item.visit_stmts;
        const size_t mark = stack.size();
        if (item.is_stmt) {
            const auto& s = static_cast<const Stmt&>(*item.node);
            if (visit_stmts) sc(s);
            for_each_child(s, push_expr, push_stmt);
        } else {
            const auto& e = static_cast<const Expr&>(*item.node);
            ec(e);
            for_each_child_expr(e, push_expr);
            if (e.kind == NodeKind::kClosure) {
                visit_stmts = false;
                for (const StmtPtr& s : static_cast<const Closure&>(e).body)
                    if (s) push_stmt(*s);
            }
        }
        // Children were pushed in visit order; pop them in that order.
        std::reverse(stack.begin() + static_cast<std::ptrdiff_t>(mark),
                     stack.end());
    }
}

}  // namespace phpsafe::php
