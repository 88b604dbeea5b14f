// Abstract syntax tree for PHP 5/7 plugin code, covering procedural and
// object-oriented constructs (classes, properties, methods, static calls,
// `new`, `$this`). The taint engine consumes this model; the paper builds
// the same model on top of token_get_all (model-construction stage).
//
// Allocation model: every node lives in the per-file Arena owned by its
// ParsedFile (util/arena.h). Child links (`ExprPtr`/`StmtPtr`) are raw
// non-owning pointers into the same arena, all identifier-like fields are
// string_views into either the retained source text or the arena, and the
// child lists themselves are ArenaVectors whose buffers live in the same
// arena — nothing in the tree owns heap memory. Consumers may hold node
// pointers and string_views only while the owning ParsedFile is alive;
// anything that outlives the file (findings, summaries, cache keys) must
// copy.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "util/arena.h"
#include "util/source.h"

namespace phpsafe::php {

enum class NodeKind {
    // Expressions
    kLiteral, kInterpString, kVariable, kArrayAccess, kPropertyAccess,
    kStaticPropertyAccess, kClassConstAccess, kFunctionCall, kMethodCall,
    kStaticCall, kNew, kAssign, kBinary, kUnary, kCast, kTernary,
    kArrayLiteral, kIssetExpr, kEmptyExpr, kIncDec, kClosure, kIncludeExpr,
    kListExpr, kInstanceOf, kPrintExpr, kExitExpr,

    // Statements
    kExprStmt, kEchoStmt, kBlock, kIfStmt, kWhileStmt, kDoWhileStmt,
    kForStmt, kForeachStmt, kSwitchStmt, kBreakStmt, kContinueStmt,
    kReturnStmt, kGlobalStmt, kStaticVarStmt, kUnsetStmt, kFunctionDecl,
    kClassDecl, kInlineHtmlStmt, kTryStmt, kThrowStmt, kNamespaceStmt,
    kUseStmt, kConstStmt,
};

/// Base of every AST node. Not polymorphic: dispatch is by `kind`, and the
/// owning Arena destroys each node through its exact type, so no vtable is
/// needed — which keeps most leaf nodes trivially destructible.
struct Node {
    explicit Node(NodeKind k) : kind(k) { ++obs::tls().ast_nodes; }
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    NodeKind kind;
    int line = 0;
};

struct Expr : Node {
    using Node::Node;
};
struct Stmt : Node {
    using Node::Node;
};

/// Raw non-owning pointers into the ParsedFile's arena.
using ExprPtr = Expr*;
using StmtPtr = Stmt*;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Literal final : Expr {
    /// kConstant is a bare constant (`PHP_EOL`, `__FILE__`, a `const` or
    /// define()d name); its `value` is the name.
    enum class Type { kString, kInt, kFloat, kBool, kNull, kConstant };
    Literal() : Expr(NodeKind::kLiteral) {}
    Type type = Type::kString;
    std::string_view value;  ///< decoded string / number text / "true"/"false"
};

/// "text $a more {$b->c}" — concatenation of literal and expression parts.
struct InterpString final : Expr {
    InterpString() : Expr(NodeKind::kInterpString) {}
    ArenaVector<ExprPtr> parts;  ///< Literal or arbitrary expression nodes
};

struct Variable final : Expr {
    Variable() : Expr(NodeKind::kVariable) {}
    std::string_view name;  ///< includes the '$', e.g. "$_GET", "$this"
};

struct ArrayAccess final : Expr {
    ArrayAccess() : Expr(NodeKind::kArrayAccess) {}
    ExprPtr base = nullptr;
    ExprPtr index = nullptr;  ///< null for "$a[] = ..." push syntax
};

struct PropertyAccess final : Expr {
    PropertyAccess() : Expr(NodeKind::kPropertyAccess) {}
    ExprPtr object = nullptr;
    std::string_view property;       ///< empty if dynamic ({$expr} / $$var)
    ExprPtr property_expr = nullptr; ///< set when dynamic
};

struct StaticPropertyAccess final : Expr {
    StaticPropertyAccess() : Expr(NodeKind::kStaticPropertyAccess) {}
    std::string_view class_name;  ///< "self"/"static"/"parent" verbatim
    std::string_view property;    ///< without '$'
};

struct ClassConstAccess final : Expr {
    ClassConstAccess() : Expr(NodeKind::kClassConstAccess) {}
    std::string_view class_name;
    std::string_view constant;
};

struct Argument {
    ExprPtr value = nullptr;
    bool by_ref = false;
    bool spread = false;
};

struct FunctionCall final : Expr {
    FunctionCall() : Expr(NodeKind::kFunctionCall) {}
    std::string_view name;    ///< empty when called through an expression
    ExprPtr callee = nullptr; ///< e.g. $fn(...) — set when name is empty
    ArenaVector<Argument> args;
};

struct MethodCall final : Expr {
    MethodCall() : Expr(NodeKind::kMethodCall) {}
    ExprPtr object = nullptr;
    std::string_view method;        ///< empty if dynamic
    ExprPtr method_expr = nullptr;  ///< set when dynamic
    ArenaVector<Argument> args;
};

struct StaticCall final : Expr {
    StaticCall() : Expr(NodeKind::kStaticCall) {}
    std::string_view class_name;  ///< "self"/"static"/"parent" verbatim
    std::string_view method;
    ArenaVector<Argument> args;
};

struct New final : Expr {
    New() : Expr(NodeKind::kNew) {}
    std::string_view class_name;  ///< empty when dynamic (new $cls)
    ExprPtr class_expr = nullptr;
    ArenaVector<Argument> args;
};

enum class AssignOp {
    kAssign, kConcat, kPlus, kMinus, kMul, kDiv, kMod, kPow,
    kBitAnd, kBitOr, kBitXor, kShl, kShr, kCoalesce,
};
const char* to_string(AssignOp op);

struct Assign final : Expr {
    Assign() : Expr(NodeKind::kAssign) {}
    ExprPtr target = nullptr;
    ExprPtr value = nullptr;
    AssignOp op = AssignOp::kAssign;
    bool by_ref = false;  ///< $a =& $b
};

enum class BinaryOp {
    kConcat, kAdd, kSub, kMul, kDiv, kMod, kPow,
    kEq, kNotEq, kIdentical, kNotIdentical, kLt, kGt, kLtEq, kGtEq, kSpaceship,
    kAnd, kOr, kXor, kBitAnd, kBitOr, kBitXor, kShl, kShr, kCoalesce,
};
const char* to_string(BinaryOp op);

struct Binary final : Expr {
    Binary() : Expr(NodeKind::kBinary) {}
    BinaryOp op = BinaryOp::kConcat;
    ExprPtr lhs = nullptr;
    ExprPtr rhs = nullptr;
};

enum class UnaryOp { kNot, kMinus, kPlus, kBitNot, kSuppress /* @ */ };
const char* to_string(UnaryOp op);

struct Unary final : Expr {
    Unary() : Expr(NodeKind::kUnary) {}
    UnaryOp op = UnaryOp::kNot;
    ExprPtr operand = nullptr;
};

struct Cast final : Expr {
    Cast() : Expr(NodeKind::kCast) {}
    std::string_view type;  ///< lowercase: "int", "string", ...
    ExprPtr operand = nullptr;
};

struct Ternary final : Expr {
    Ternary() : Expr(NodeKind::kTernary) {}
    ExprPtr cond = nullptr;
    ExprPtr then_expr = nullptr;  ///< null for the short form `?:`
    ExprPtr else_expr = nullptr;
};

struct ArrayItem {
    ExprPtr key = nullptr;    ///< may be null
    ExprPtr value = nullptr;
    bool by_ref = false;
    bool spread = false;
};

struct ArrayLiteral final : Expr {
    ArrayLiteral() : Expr(NodeKind::kArrayLiteral) {}
    ArenaVector<ArrayItem> items;
};

struct IssetExpr final : Expr {
    IssetExpr() : Expr(NodeKind::kIssetExpr) {}
    ArenaVector<ExprPtr> vars;
};

struct EmptyExpr final : Expr {
    EmptyExpr() : Expr(NodeKind::kEmptyExpr) {}
    ExprPtr operand = nullptr;
};

struct IncDec final : Expr {
    IncDec() : Expr(NodeKind::kIncDec) {}
    bool increment = true;
    bool prefix = false;
    ExprPtr operand = nullptr;
};

struct Param {
    std::string_view name;      ///< with '$'
    std::string_view type_hint; ///< "" if none; class name or scalar hint
    ExprPtr default_value = nullptr; ///< may be null
    bool by_ref = false;
    bool variadic = false;
};

struct Closure final : Expr {
    Closure() : Expr(NodeKind::kClosure) {}
    ArenaVector<Param> params;
    ArenaVector<std::pair<std::string_view, bool>> uses;  ///< (name, by_ref)
    ArenaVector<StmtPtr> body;
    bool is_arrow = false;  ///< fn() => expr (body holds a single return)
};

enum class IncludeKind { kInclude, kIncludeOnce, kRequire, kRequireOnce };
const char* to_string(IncludeKind kind);

struct IncludeExpr final : Expr {
    IncludeExpr() : Expr(NodeKind::kIncludeExpr) {}
    IncludeKind include_kind = IncludeKind::kInclude;
    ExprPtr path = nullptr;
};

struct ListExpr final : Expr {
    ListExpr() : Expr(NodeKind::kListExpr) {}
    ArenaVector<ExprPtr> elements;  ///< entries may be null (skipped slots)
};

struct InstanceOf final : Expr {
    InstanceOf() : Expr(NodeKind::kInstanceOf) {}
    ExprPtr object = nullptr;
    std::string_view class_name;
};

struct PrintExpr final : Expr {
    PrintExpr() : Expr(NodeKind::kPrintExpr) {}
    ExprPtr operand = nullptr;
};

struct ExitExpr final : Expr {
    ExitExpr() : Expr(NodeKind::kExitExpr) {}
    ExprPtr operand = nullptr;  ///< may be null; `die($msg)` outputs $msg
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct ExprStmt final : Stmt {
    ExprStmt() : Stmt(NodeKind::kExprStmt) {}
    ExprPtr expr = nullptr;
};

struct EchoStmt final : Stmt {
    EchoStmt() : Stmt(NodeKind::kEchoStmt) {}
    ArenaVector<ExprPtr> args;
    bool from_open_tag = false;  ///< came from `<?= ... ?>`
};

struct Block final : Stmt {
    Block() : Stmt(NodeKind::kBlock) {}
    ArenaVector<StmtPtr> statements;
};

struct IfStmt final : Stmt {
    IfStmt() : Stmt(NodeKind::kIfStmt) {}
    ExprPtr cond = nullptr;
    StmtPtr then_branch = nullptr;
    StmtPtr else_branch = nullptr;  ///< may be another IfStmt (elseif) or null
};

struct WhileStmt final : Stmt {
    WhileStmt() : Stmt(NodeKind::kWhileStmt) {}
    ExprPtr cond = nullptr;
    StmtPtr body = nullptr;
};

struct DoWhileStmt final : Stmt {
    DoWhileStmt() : Stmt(NodeKind::kDoWhileStmt) {}
    StmtPtr body = nullptr;
    ExprPtr cond = nullptr;
};

struct ForStmt final : Stmt {
    ForStmt() : Stmt(NodeKind::kForStmt) {}
    ArenaVector<ExprPtr> init;
    ArenaVector<ExprPtr> cond;
    ArenaVector<ExprPtr> update;
    StmtPtr body = nullptr;
};

struct ForeachStmt final : Stmt {
    ForeachStmt() : Stmt(NodeKind::kForeachStmt) {}
    ExprPtr iterable = nullptr;
    ExprPtr key_var = nullptr;    ///< may be null
    ExprPtr value_var = nullptr;  ///< Variable / PropertyAccess / ListExpr
    bool by_ref = false;
    StmtPtr body = nullptr;
};

struct SwitchCase {
    ExprPtr match = nullptr;  ///< null for `default:`
    ArenaVector<StmtPtr> body;
};

struct SwitchStmt final : Stmt {
    SwitchStmt() : Stmt(NodeKind::kSwitchStmt) {}
    ExprPtr subject = nullptr;
    ArenaVector<SwitchCase> cases;
};

struct BreakStmt final : Stmt {
    BreakStmt() : Stmt(NodeKind::kBreakStmt) {}
};
struct ContinueStmt final : Stmt {
    ContinueStmt() : Stmt(NodeKind::kContinueStmt) {}
};

struct ReturnStmt final : Stmt {
    ReturnStmt() : Stmt(NodeKind::kReturnStmt) {}
    ExprPtr value = nullptr;  ///< may be null
};

struct GlobalStmt final : Stmt {
    GlobalStmt() : Stmt(NodeKind::kGlobalStmt) {}
    ArenaVector<std::string_view> names;  ///< with '$'
};

struct StaticVarStmt final : Stmt {
    StaticVarStmt() : Stmt(NodeKind::kStaticVarStmt) {}
    ArenaVector<std::pair<std::string_view, ExprPtr>> vars;  ///< (name, init)
};

struct UnsetStmt final : Stmt {
    UnsetStmt() : Stmt(NodeKind::kUnsetStmt) {}
    ArenaVector<ExprPtr> vars;
};

struct FunctionDecl final : Stmt {
    FunctionDecl() : Stmt(NodeKind::kFunctionDecl) {}
    std::string_view name;
    ArenaVector<Param> params;
    ArenaVector<StmtPtr> body;
    bool by_ref_return = false;
    // Method-only attributes (unused for free functions).
    bool is_method = false;  ///< declared inside a class body
    bool is_static = false;
    bool is_abstract = false;
    std::string_view visibility;  ///< "public"/"protected"/"private"/"" (free)
};

struct PropertyDecl {
    std::string_view name;  ///< without '$'
    ExprPtr default_value = nullptr;
    bool is_static = false;
    std::string_view visibility;
    int line = 0;
};

struct ClassConstDecl {
    std::string_view name;
    ExprPtr value = nullptr;
    int line = 0;
};

struct ClassDecl final : Stmt {
    enum class Kind { kClass, kInterface, kTrait };
    ClassDecl() : Stmt(NodeKind::kClassDecl) {}
    Kind class_kind = Kind::kClass;
    std::string_view name;
    std::string_view parent;                   ///< "" if none
    ArenaVector<std::string_view> interfaces;  ///< also trait `use`s
    ArenaVector<PropertyDecl> properties;
    ArenaVector<ClassConstDecl> constants;
    ArenaVector<FunctionDecl*> methods;
    bool is_abstract = false;
    bool is_final = false;
};

struct InlineHtmlStmt final : Stmt {
    InlineHtmlStmt() : Stmt(NodeKind::kInlineHtmlStmt) {}
    std::string_view html;  ///< view into the source text
};

struct CatchClause {
    ArenaVector<std::string_view> types;
    std::string_view var;  ///< with '$'; may be empty (PHP 8 catch w/o var)
    ArenaVector<StmtPtr> body;
};

struct TryStmt final : Stmt {
    TryStmt() : Stmt(NodeKind::kTryStmt) {}
    ArenaVector<StmtPtr> body;
    ArenaVector<CatchClause> catches;
    ArenaVector<StmtPtr> finally_body;
    bool has_finally = false;
};

struct ThrowStmt final : Stmt {
    ThrowStmt() : Stmt(NodeKind::kThrowStmt) {}
    ExprPtr value = nullptr;
};

struct NamespaceStmt final : Stmt {
    NamespaceStmt() : Stmt(NodeKind::kNamespaceStmt) {}
    std::string_view name;
    ArenaVector<StmtPtr> body;  ///< empty for the `namespace X;` form
};

struct UseStmt final : Stmt {
    UseStmt() : Stmt(NodeKind::kUseStmt) {}
    /// (fqn, alias)
    ArenaVector<std::pair<std::string_view, std::string_view>> imports;
};

struct ConstStmt final : Stmt {
    ConstStmt() : Stmt(NodeKind::kConstStmt) {}
    ArenaVector<std::pair<std::string_view, ExprPtr>> constants;
};

// ---------------------------------------------------------------------------
// File unit
// ---------------------------------------------------------------------------

/// Parse result of one PHP file: top-level statements (the "main function"
/// in the paper's terminology). Statements are non-owning pointers into the
/// ParsedFile's arena.
struct FileUnit {
    std::string file_name;
    ArenaVector<StmtPtr> statements;
};

/// Renders a compact single-line s-expression of a node (for tests/debug).
std::string dump(const Node& node);

/// Reconstructs approximate PHP source for an expression (used in taint
/// traces and reports, mirroring phpSAFE's variable-flow display).
std::string to_php_source(const Expr& expr);

}  // namespace phpsafe::php
