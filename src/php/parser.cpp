#include "php/parser.h"

#include <algorithm>
#include <cassert>

#include "obs/counters.h"
#include "php/lexer.h"
#include "util/strings.h"
#include "util/timing.h"

namespace phpsafe::php {

namespace {

/// Binding powers for infix operators (higher binds tighter). Mirrors the
/// PHP operator-precedence table; assignment sits between the word logical
/// operators and everything else, so `$a = $b or die()` groups as
/// `($a = $b) or die()`.
constexpr int kBpOr = 1;
constexpr int kBpXor = 2;
constexpr int kBpAnd = 3;
constexpr int kBpAssign = 4;
constexpr int kBpTernary = 5;
constexpr int kBpCoalesce = 6;
constexpr int kBpOrOr = 7;
constexpr int kBpAndAnd = 8;
constexpr int kBpBitOr = 9;
constexpr int kBpBitXor = 10;
constexpr int kBpBitAnd = 11;
constexpr int kBpEquality = 12;
constexpr int kBpRelational = 13;
constexpr int kBpShift = 14;
constexpr int kBpAdditive = 15;
constexpr int kBpMultiplicative = 16;
constexpr int kBpInstanceof = 17;
constexpr int kBpPow = 18;

struct InfixOp {
    BinaryOp op;
    int bp;
    bool right_assoc = false;
};

/// Returns the infix entry for the current token, or nullopt.
std::optional<InfixOp> infix_for(const Token& tok) {
    switch (tok.kind) {
        case TokenKind::kDot: return InfixOp{BinaryOp::kConcat, kBpAdditive};
        case TokenKind::kPlus: return InfixOp{BinaryOp::kAdd, kBpAdditive};
        case TokenKind::kMinus: return InfixOp{BinaryOp::kSub, kBpAdditive};
        case TokenKind::kStar: return InfixOp{BinaryOp::kMul, kBpMultiplicative};
        case TokenKind::kSlash: return InfixOp{BinaryOp::kDiv, kBpMultiplicative};
        case TokenKind::kPercent: return InfixOp{BinaryOp::kMod, kBpMultiplicative};
        case TokenKind::kPow: return InfixOp{BinaryOp::kPow, kBpPow, true};
        case TokenKind::kEq: return InfixOp{BinaryOp::kEq, kBpEquality};
        case TokenKind::kNotEq: return InfixOp{BinaryOp::kNotEq, kBpEquality};
        case TokenKind::kIdentical: return InfixOp{BinaryOp::kIdentical, kBpEquality};
        case TokenKind::kNotIdentical:
            return InfixOp{BinaryOp::kNotIdentical, kBpEquality};
        case TokenKind::kLt: return InfixOp{BinaryOp::kLt, kBpRelational};
        case TokenKind::kGt: return InfixOp{BinaryOp::kGt, kBpRelational};
        case TokenKind::kLtEq: return InfixOp{BinaryOp::kLtEq, kBpRelational};
        case TokenKind::kGtEq: return InfixOp{BinaryOp::kGtEq, kBpRelational};
        case TokenKind::kSpaceship:
            return InfixOp{BinaryOp::kSpaceship, kBpRelational};
        case TokenKind::kAndAnd: return InfixOp{BinaryOp::kAnd, kBpAndAnd};
        case TokenKind::kOrOr: return InfixOp{BinaryOp::kOr, kBpOrOr};
        case TokenKind::kCoalesce:
            return InfixOp{BinaryOp::kCoalesce, kBpCoalesce, true};
        case TokenKind::kAmp: return InfixOp{BinaryOp::kBitAnd, kBpBitAnd};
        case TokenKind::kPipe: return InfixOp{BinaryOp::kBitOr, kBpBitOr};
        case TokenKind::kCaret: return InfixOp{BinaryOp::kBitXor, kBpBitXor};
        case TokenKind::kShiftLeft: return InfixOp{BinaryOp::kShl, kBpShift};
        case TokenKind::kShiftRight: return InfixOp{BinaryOp::kShr, kBpShift};
        case TokenKind::kKeyword:
            switch (tok.keyword) {
                case Keyword::kAnd: return InfixOp{BinaryOp::kAnd, kBpAnd};
                case Keyword::kOr: return InfixOp{BinaryOp::kOr, kBpOr};
                case Keyword::kXor: return InfixOp{BinaryOp::kXor, kBpXor};
                default: return std::nullopt;
            }
        default: return std::nullopt;
    }
}

std::optional<AssignOp> assign_op_for(TokenKind kind) {
    switch (kind) {
        case TokenKind::kAssign: return AssignOp::kAssign;
        case TokenKind::kConcatEq: return AssignOp::kConcat;
        case TokenKind::kPlusEq: return AssignOp::kPlus;
        case TokenKind::kMinusEq: return AssignOp::kMinus;
        case TokenKind::kMulEq: return AssignOp::kMul;
        case TokenKind::kDivEq: return AssignOp::kDiv;
        case TokenKind::kModEq: return AssignOp::kMod;
        case TokenKind::kPowEq: return AssignOp::kPow;
        case TokenKind::kAndEq: return AssignOp::kBitAnd;
        case TokenKind::kOrEq: return AssignOp::kBitOr;
        case TokenKind::kXorEq: return AssignOp::kBitXor;
        case TokenKind::kShlEq: return AssignOp::kShl;
        case TokenKind::kShrEq: return AssignOp::kShr;
        case TokenKind::kCoalesceEq: return AssignOp::kCoalesce;
        default: return std::nullopt;
    }
}

bool is_assignable(const Expr& e) noexcept {
    switch (e.kind) {
        case NodeKind::kVariable:
        case NodeKind::kArrayAccess:
        case NodeKind::kPropertyAccess:
        case NodeKind::kStaticPropertyAccess:
        case NodeKind::kListExpr:
            return true;
        default:
            return false;
    }
}

}  // namespace

Parser::Parser(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
               Options options)
    : file_(file), arena_(arena), sink_(sink), options_(options) {
    const double lex_start = thread_cpu_seconds();
    Lexer lexer(file, arena, sink);
    tokens_ = lexer.tokenize();
    lex_cpu_seconds_ = thread_cpu_seconds() - lex_start;
}

const Token& Parser::peek(size_t ahead) const noexcept {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::consume() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
}

bool Parser::accept(TokenKind kind) {
    if (!check(kind)) return false;
    consume();
    return true;
}

bool Parser::accept_keyword(Keyword kw) {
    if (!check_keyword(kw)) return false;
    consume();
    return true;
}

bool Parser::expect(TokenKind kind, std::string_view what) {
    if (accept(kind)) return true;
    error_here("expected " + std::string(what) + " before '" +
               std::string(current().text) + "'");
    return false;
}

bool Parser::enter_depth() {
    ++depth_;
    if (aborted_) return false;  // fast-fail so recursion unwinds quickly
    if (options_.max_depth > 0 && depth_ > options_.max_depth) {
        aborted_ = true;
        ++obs::tls().parse_errors;
        sink_.add(Severity::kFatal, loc_here(),
                  "nesting deeper than " + std::to_string(options_.max_depth) +
                      " levels; aborting analysis of this file");
        return false;
    }
    return true;
}

void Parser::error_here(const std::string& message) {
    // Once aborted, the parse is unwinding: every enclosing construct would
    // report its missing closer, one error per nesting level.
    if (aborted_) return;
    ++error_count_;
    ++obs::tls().parse_errors;
    sink_.add(Severity::kError, loc_here(), message);
    if (options_.max_errors > 0 && error_count_ >= options_.max_errors) {
        aborted_ = true;
        sink_.add(Severity::kFatal, {file_.name(), current().line},
                  "too many parse errors; aborting analysis of this file");
    }
}

SourceLocation Parser::loc_here() const { return {file_.name(), current().line}; }

void Parser::skip_tags() {
    while (check(TokenKind::kOpenTag) || check(TokenKind::kCloseTag)) consume();
}

FileUnit Parser::parse() {
    FileUnit unit;
    unit.file_name = file_.name();
    while (!at_eof() && !aborted_) {
        const size_t before = pos_;
        StmtPtr stmt = parse_statement();
        if (stmt) unit.statements.push_back(std::move(stmt));
        if (pos_ == before && !at_eof()) consume();  // always make progress
    }
    return unit;
}

ExprPtr Parser::parse_expression_text(std::string_view php_expr,
                                      std::string_view file_name, int line,
                                      DiagnosticSink& sink, Arena& arena) {
    // The snippet's text backs string_views in the parsed expression, so it
    // must live as long as the arena: allocate the SourceFile from it (its
    // destructor is registered on the arena's teardown list).
    std::string text = "<?php ";
    text += php_expr;
    text += ';';
    auto* snippet =
        arena.create<SourceFile>(std::string(file_name), std::move(text));
    Parser parser(*snippet, arena, sink);
    parser.skip_tags();
    ExprPtr expr = parser.parse_expression();
    if (expr) expr->line = line;
    return expr;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

StmtPtr Parser::parse_statement() {
    skip_tags();
    if (at_eof()) return nullptr;
    DepthGuard depth(*this);
    if (!depth) return nullptr;

    const Token& tok = current();
    switch (tok.kind) {
        case TokenKind::kInlineHtml: {
            auto* html = arena_.create<InlineHtmlStmt>();
            html->line = tok.line;
            html->html = consume().text;
            return html;
        }
        case TokenKind::kOpenTagWithEcho:
            consume();
            return parse_echo(/*from_open_tag=*/true);
        case TokenKind::kSemicolon:
            consume();
            return nullptr;
        case TokenKind::kLBrace: {
            consume();
            auto* block = arena_.create<Block>();
            block->line = tok.line;
            while (!at_eof() && !check(TokenKind::kRBrace) && !aborted_) {
                const size_t before = pos_;
                StmtPtr s = parse_statement();
                if (s) block->statements.push_back(std::move(s));
                if (pos_ == before && !at_eof() && !check(TokenKind::kRBrace)) consume();
            }
            expect(TokenKind::kRBrace, "'}'");
            return block;
        }
        case TokenKind::kKeyword:
            switch (tok.keyword) {
                case Keyword::kIf: return parse_if();
                case Keyword::kWhile: return parse_while();
                case Keyword::kDo: return parse_do_while();
                case Keyword::kFor: return parse_for();
                case Keyword::kForeach: return parse_foreach();
                case Keyword::kSwitch: return parse_switch();
                case Keyword::kReturn: return parse_return();
                case Keyword::kEcho:
                    consume();
                    return parse_echo(false);
                case Keyword::kGlobal: return parse_global();
                case Keyword::kStatic:
                    // `static $x` is a static-variable declaration; `static::`
                    // and `static function` are expressions.
                    if (peek(1).kind == TokenKind::kVariable &&
                        peek(2).kind != TokenKind::kDoubleColon)
                        return parse_static_var();
                    return parse_expression_statement();
                case Keyword::kUnset: return parse_unset();
                case Keyword::kBreak: {
                    consume();
                    auto* s = arena_.create<BreakStmt>();
                    s->line = tok.line;
                    if (check(TokenKind::kIntLiteral)) consume();
                    accept(TokenKind::kSemicolon);
                    return s;
                }
                case Keyword::kContinue: {
                    consume();
                    auto* s = arena_.create<ContinueStmt>();
                    s->line = tok.line;
                    if (check(TokenKind::kIntLiteral)) consume();
                    accept(TokenKind::kSemicolon);
                    return s;
                }
                case Keyword::kFunction: {
                    // Distinguish a declaration from a closure expression.
                    const Token& next = peek(1);
                    if (next.kind == TokenKind::kIdentifier ||
                        (next.kind == TokenKind::kAmp &&
                         peek(2).kind == TokenKind::kIdentifier))
                        return parse_function_decl();
                    return parse_expression_statement();
                }
                case Keyword::kAbstract:
                case Keyword::kFinal: {
                    const bool is_abstract = tok.keyword == Keyword::kAbstract;
                    const bool is_final = tok.keyword == Keyword::kFinal;
                    consume();
                    if (check_keyword(Keyword::kClass)) {
                        consume();
                        return parse_class_decl(ClassDecl::Kind::kClass, is_abstract,
                                                is_final);
                    }
                    error_here("expected 'class' after modifier");
                    return nullptr;
                }
                case Keyword::kClass:
                    consume();
                    return parse_class_decl(ClassDecl::Kind::kClass, false, false);
                case Keyword::kInterface:
                    consume();
                    return parse_class_decl(ClassDecl::Kind::kInterface, false, false);
                case Keyword::kTrait:
                    consume();
                    return parse_class_decl(ClassDecl::Kind::kTrait, false, false);
                case Keyword::kTry: return parse_try();
                case Keyword::kThrow: {
                    consume();
                    auto* s = arena_.create<ThrowStmt>();
                    s->line = tok.line;
                    s->value = parse_expression();
                    accept(TokenKind::kSemicolon);
                    return s;
                }
                case Keyword::kNamespace: return parse_namespace();
                case Keyword::kUse: return parse_use();
                case Keyword::kConst: return parse_const();
                case Keyword::kDeclare:
                    consume();
                    if (accept(TokenKind::kLParen)) {
                        int depth = 1;
                        while (!at_eof() && depth > 0) {
                            if (check(TokenKind::kLParen)) ++depth;
                            if (check(TokenKind::kRParen)) --depth;
                            consume();
                        }
                    }
                    accept(TokenKind::kSemicolon);
                    return nullptr;
                case Keyword::kGoto:  // rarely used; skip label
                    consume();
                    if (check(TokenKind::kIdentifier)) consume();
                    accept(TokenKind::kSemicolon);
                    return nullptr;
                default:
                    return parse_expression_statement();
            }
        default:
            return parse_expression_statement();
    }
}

StmtPtr Parser::parse_block_or_statement() {
    skip_tags();
    if (check(TokenKind::kLBrace)) return parse_statement();
    StmtPtr s = parse_statement();
    if (s) return s;
    auto* empty = arena_.create<Block>();
    empty->line = current().line;
    return empty;
}

ArenaVector<StmtPtr> Parser::parse_statement_list_until(
    std::initializer_list<Keyword> end_keywords) {
    ArenaVector<StmtPtr> stmts;
    while (!at_eof() && !aborted_) {
        skip_tags();
        if (at_eof() || std::find(end_keywords.begin(), end_keywords.end(),
                                  current().keyword) != end_keywords.end())
            break;
        const size_t before = pos_;
        StmtPtr s = parse_statement();
        if (s) stmts.push_back(std::move(s));
        if (pos_ == before && !at_eof()) consume();
    }
    return stmts;
}

StmtPtr Parser::parse_if() {
    auto* stmt = arena_.create<IfStmt>();
    stmt->line = current().line;
    consume();  // if
    expect(TokenKind::kLParen, "'('");
    stmt->cond = parse_expression();
    expect(TokenKind::kRParen, "')'");

    if (accept(TokenKind::kColon)) {
        // Alternative syntax: if (...): ... [elseif/else] endif;
        auto* then_block = arena_.create<Block>();
        then_block->line = stmt->line;
        then_block->statements =
            parse_statement_list_until({Keyword::kElseif, Keyword::kElse, Keyword::kEndif});
        stmt->then_branch = std::move(then_block);
        if (check_keyword(Keyword::kElseif)) {
            // Re-enter as a nested if by rewriting elseif → if.
            stmt->else_branch = parse_if();
            return stmt;
        }
        if (accept_keyword(Keyword::kElse)) {
            accept(TokenKind::kColon);
            auto* else_block = arena_.create<Block>();
            else_block->line = current().line;
            else_block->statements = parse_statement_list_until({Keyword::kEndif});
            stmt->else_branch = std::move(else_block);
        }
        accept_keyword(Keyword::kEndif);
        accept(TokenKind::kSemicolon);
        return stmt;
    }

    stmt->then_branch = parse_block_or_statement();
    skip_tags();
    if (check_keyword(Keyword::kElseif)) {
        stmt->else_branch = parse_if();
    } else if (accept_keyword(Keyword::kElse)) {
        skip_tags();
        if (check_keyword(Keyword::kIf)) {
            stmt->else_branch = parse_if();
        } else {
            stmt->else_branch = parse_block_or_statement();
        }
    }
    return stmt;
}

StmtPtr Parser::parse_while() {
    auto* stmt = arena_.create<WhileStmt>();
    stmt->line = current().line;
    consume();  // while
    expect(TokenKind::kLParen, "'('");
    stmt->cond = parse_expression();
    expect(TokenKind::kRParen, "')'");
    if (accept(TokenKind::kColon)) {
        auto* body = arena_.create<Block>();
        body->line = stmt->line;
        body->statements = parse_statement_list_until({Keyword::kEndwhile});
        accept_keyword(Keyword::kEndwhile);
        accept(TokenKind::kSemicolon);
        stmt->body = std::move(body);
        return stmt;
    }
    stmt->body = parse_block_or_statement();
    return stmt;
}

StmtPtr Parser::parse_do_while() {
    auto* stmt = arena_.create<DoWhileStmt>();
    stmt->line = current().line;
    consume();  // do
    stmt->body = parse_block_or_statement();
    if (accept_keyword(Keyword::kWhile)) {
        expect(TokenKind::kLParen, "'('");
        stmt->cond = parse_expression();
        expect(TokenKind::kRParen, "')'");
    } else {
        error_here("expected 'while' after do-block");
    }
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_for() {
    auto* stmt = arena_.create<ForStmt>();
    stmt->line = current().line;
    consume();  // for
    expect(TokenKind::kLParen, "'('");
    if (!check(TokenKind::kSemicolon)) {
        do {
            stmt->init.push_back(parse_expression());
        } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kSemicolon, "';'");
    if (!check(TokenKind::kSemicolon)) {
        do {
            stmt->cond.push_back(parse_expression());
        } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kSemicolon, "';'");
    if (!check(TokenKind::kRParen)) {
        do {
            stmt->update.push_back(parse_expression());
        } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kRParen, "')'");
    if (accept(TokenKind::kColon)) {
        auto* body = arena_.create<Block>();
        body->line = stmt->line;
        body->statements = parse_statement_list_until({Keyword::kEndfor});
        accept_keyword(Keyword::kEndfor);
        accept(TokenKind::kSemicolon);
        stmt->body = std::move(body);
        return stmt;
    }
    stmt->body = parse_block_or_statement();
    return stmt;
}

StmtPtr Parser::parse_foreach() {
    auto* stmt = arena_.create<ForeachStmt>();
    stmt->line = current().line;
    consume();  // foreach
    expect(TokenKind::kLParen, "'('");
    stmt->iterable = parse_expression();
    if (!accept_keyword(Keyword::kAs)) error_here("expected 'as' in foreach");
    bool by_ref = accept(TokenKind::kAmp);
    ExprPtr first = parse_expression(kBpTernary + 1);
    if (accept(TokenKind::kDoubleArrow)) {
        stmt->key_var = std::move(first);
        stmt->by_ref = accept(TokenKind::kAmp);
        stmt->value_var = parse_expression(kBpTernary + 1);
    } else {
        stmt->by_ref = by_ref;
        stmt->value_var = std::move(first);
    }
    expect(TokenKind::kRParen, "')'");
    if (accept(TokenKind::kColon)) {
        auto* body = arena_.create<Block>();
        body->line = stmt->line;
        body->statements = parse_statement_list_until({Keyword::kEndforeach});
        accept_keyword(Keyword::kEndforeach);
        accept(TokenKind::kSemicolon);
        stmt->body = std::move(body);
        return stmt;
    }
    stmt->body = parse_block_or_statement();
    return stmt;
}

StmtPtr Parser::parse_switch() {
    auto* stmt = arena_.create<SwitchStmt>();
    stmt->line = current().line;
    consume();  // switch
    expect(TokenKind::kLParen, "'('");
    stmt->subject = parse_expression();
    expect(TokenKind::kRParen, "')'");
    const bool alt = accept(TokenKind::kColon);
    if (!alt) expect(TokenKind::kLBrace, "'{'");
    while (!at_eof() && !aborted_) {
        skip_tags();
        if ((alt && check_keyword(Keyword::kEndswitch)) || (!alt && check(TokenKind::kRBrace)))
            break;
        if (accept_keyword(Keyword::kCase)) {
            SwitchCase c;
            c.match = parse_expression();
            if (!accept(TokenKind::kColon)) accept(TokenKind::kSemicolon);
            c.body = parse_statement_list_until(
                {Keyword::kCase, Keyword::kDefault, Keyword::kEndswitch});
            // '}' also ends the case body in brace syntax; the list helper
            // stops on keywords only, so double-check the brace here.
            stmt->cases.push_back(std::move(c));
            continue;
        }
        if (accept_keyword(Keyword::kDefault)) {
            SwitchCase c;
            if (!accept(TokenKind::kColon)) accept(TokenKind::kSemicolon);
            c.body = parse_statement_list_until(
                {Keyword::kCase, Keyword::kDefault, Keyword::kEndswitch});
            stmt->cases.push_back(std::move(c));
            continue;
        }
        if (check(TokenKind::kRBrace)) break;
        consume();  // skip stray token
    }
    if (alt) {
        accept_keyword(Keyword::kEndswitch);
        accept(TokenKind::kSemicolon);
    } else {
        expect(TokenKind::kRBrace, "'}'");
    }
    return stmt;
}

StmtPtr Parser::parse_return() {
    auto* stmt = arena_.create<ReturnStmt>();
    stmt->line = current().line;
    consume();  // return
    if (!check(TokenKind::kSemicolon) && !check(TokenKind::kCloseTag) && !at_eof())
        stmt->value = parse_expression();
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_echo(bool from_open_tag) {
    auto* stmt = arena_.create<EchoStmt>();
    stmt->line = current().line;
    stmt->from_open_tag = from_open_tag;
    do {
        stmt->args.push_back(parse_expression());
    } while (accept(TokenKind::kComma));
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_global() {
    auto* stmt = arena_.create<GlobalStmt>();
    stmt->line = current().line;
    consume();  // global
    do {
        if (check(TokenKind::kVariable)) {
            stmt->names.push_back(consume().text);
        } else {
            error_here("expected variable in global statement");
            break;
        }
    } while (accept(TokenKind::kComma));
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_static_var() {
    auto* stmt = arena_.create<StaticVarStmt>();
    stmt->line = current().line;
    consume();  // static
    do {
        if (!check(TokenKind::kVariable)) {
            error_here("expected variable in static declaration");
            break;
        }
        const std::string_view name = consume().text;
        ExprPtr init = nullptr;
        if (accept(TokenKind::kAssign)) init = parse_expression(kBpAssign + 1);
        stmt->vars.emplace_back(name, init);
    } while (accept(TokenKind::kComma));
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_unset() {
    auto* stmt = arena_.create<UnsetStmt>();
    stmt->line = current().line;
    consume();  // unset
    expect(TokenKind::kLParen, "'('");
    if (!check(TokenKind::kRParen)) {
        do {
            stmt->vars.push_back(parse_expression());
        } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kRParen, "')'");
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_function_decl() {
    auto* fn = arena_.create<FunctionDecl>();
    fn->line = current().line;
    consume();  // function
    fn->by_ref_return = accept(TokenKind::kAmp);
    if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword)) {
        fn->name = consume().text;
    } else {
        error_here("expected function name");
    }
    fn->params = parse_params();
    if (accept(TokenKind::kColon)) parse_type_hint();  // return type: ignored
    skip_tags();
    if (check(TokenKind::kLBrace)) {
        StmtPtr body = parse_statement();  // parses the block
        if (body && body->kind == NodeKind::kBlock)
            fn->body = std::move(static_cast<Block*>(body)->statements);
    } else {
        accept(TokenKind::kSemicolon);  // abstract/interface method
    }
    return fn;
}

void Parser::parse_class_member(ClassDecl& cls) {
    bool is_static = false, is_abstract = false;
    std::string_view visibility;
    // Modifier run.
    for (bool modifier = true; modifier;) {
        switch (current().keyword) {
            case Keyword::kPublic:
            case Keyword::kProtected:
            case Keyword::kPrivate: visibility = consume().text; break;
            case Keyword::kStatic: is_static = true; consume(); break;
            case Keyword::kAbstract: is_abstract = true; consume(); break;
            case Keyword::kFinal:
            case Keyword::kReadonly: consume(); break;
            case Keyword::kVar: visibility = "public"; consume(); break;
            default: modifier = false;
        }
    }

    if (check_keyword(Keyword::kFunction)) {
        StmtPtr decl = parse_function_decl();
        if (decl && decl->kind == NodeKind::kFunctionDecl) {
            auto* method = static_cast<FunctionDecl*>(decl);
            method->is_method = true;
            method->is_static = is_static;
            method->is_abstract = is_abstract;
            method->visibility = visibility.empty() ? "public" : visibility;
            cls.methods.push_back(method);
        }
        return;
    }
    if (check_keyword(Keyword::kConst)) {
        consume();
        do {
            ClassConstDecl c;
            c.line = current().line;
            if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword))
                c.name = consume().text;
            if (accept(TokenKind::kAssign)) c.value = parse_expression(kBpAssign + 1);
            cls.constants.push_back(std::move(c));
        } while (accept(TokenKind::kComma));
        accept(TokenKind::kSemicolon);
        return;
    }
    if (check_keyword(Keyword::kUse)) {  // trait use
        consume();
        do {
            cls.interfaces.push_back(parse_qualified_name());
        } while (accept(TokenKind::kComma));
        if (accept(TokenKind::kLBrace)) {  // conflict-resolution block: skip
            int depth = 1;
            while (!at_eof() && depth > 0) {
                if (check(TokenKind::kLBrace)) ++depth;
                if (check(TokenKind::kRBrace)) --depth;
                consume();
            }
        } else {
            accept(TokenKind::kSemicolon);
        }
        return;
    }
    // Typed property: optional type hint before the variable.
    if ((check(TokenKind::kIdentifier) || check(TokenKind::kQuestion) ||
         check_keyword(Keyword::kArray)) &&
        peek(1).kind == TokenKind::kVariable) {
        parse_type_hint();
    }
    if (check(TokenKind::kVariable)) {
        do {
            PropertyDecl prop;
            prop.line = current().line;
            const std::string_view name = consume().text;
            prop.name = name.size() > 1 ? name.substr(1) : name;
            prop.is_static = is_static;
            prop.visibility = visibility.empty() ? "public" : visibility;
            if (accept(TokenKind::kAssign))
                prop.default_value = parse_expression(kBpAssign + 1);
            cls.properties.push_back(std::move(prop));
        } while (accept(TokenKind::kComma) && check(TokenKind::kVariable));
        accept(TokenKind::kSemicolon);
        return;
    }
    error_here("unexpected token in class body: '" +
               std::string(current().text) + "'");
    consume();
}

StmtPtr Parser::parse_class_decl(ClassDecl::Kind kind, bool is_abstract,
                                 bool is_final) {
    auto* cls = arena_.create<ClassDecl>();
    cls->class_kind = kind;
    cls->is_abstract = is_abstract;
    cls->is_final = is_final;
    cls->line = current().line;
    if (check(TokenKind::kIdentifier)) {
        cls->name = consume().text;
    } else {
        error_here("expected class name");
    }
    if (accept_keyword(Keyword::kExtends)) {
        cls->parent = parse_qualified_name();
        // Interfaces may extend several bases; record the extras as interfaces.
        while (accept(TokenKind::kComma)) cls->interfaces.push_back(parse_qualified_name());
    }
    if (accept_keyword(Keyword::kImplements)) {
        do {
            cls->interfaces.push_back(parse_qualified_name());
        } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kLBrace, "'{'");
    while (!at_eof() && !check(TokenKind::kRBrace) && !aborted_) {
        const size_t before = pos_;
        parse_class_member(*cls);
        if (pos_ == before && !at_eof() && !check(TokenKind::kRBrace)) consume();
    }
    expect(TokenKind::kRBrace, "'}'");
    return cls;
}

StmtPtr Parser::parse_try() {
    auto* stmt = arena_.create<TryStmt>();
    stmt->line = current().line;
    consume();  // try
    StmtPtr body = parse_statement();
    if (body && body->kind == NodeKind::kBlock)
        stmt->body = std::move(static_cast<Block*>(body)->statements);
    while (check_keyword(Keyword::kCatch)) {
        consume();
        CatchClause clause;
        expect(TokenKind::kLParen, "'('");
        do {
            clause.types.push_back(parse_qualified_name());
        } while (accept(TokenKind::kPipe));
        if (check(TokenKind::kVariable)) clause.var = consume().text;
        expect(TokenKind::kRParen, "')'");
        StmtPtr cbody = parse_statement();
        if (cbody && cbody->kind == NodeKind::kBlock)
            clause.body = std::move(static_cast<Block*>(cbody)->statements);
        stmt->catches.push_back(std::move(clause));
    }
    if (accept_keyword(Keyword::kFinally)) {
        stmt->has_finally = true;
        StmtPtr fbody = parse_statement();
        if (fbody && fbody->kind == NodeKind::kBlock)
            stmt->finally_body = std::move(static_cast<Block*>(fbody)->statements);
    }
    return stmt;
}

StmtPtr Parser::parse_namespace() {
    auto* stmt = arena_.create<NamespaceStmt>();
    stmt->line = current().line;
    consume();  // namespace
    if (check(TokenKind::kIdentifier) || check(TokenKind::kBackslash))
        stmt->name = parse_qualified_name();
    if (accept(TokenKind::kLBrace)) {
        while (!at_eof() && !check(TokenKind::kRBrace) && !aborted_) {
            const size_t before = pos_;
            StmtPtr s = parse_statement();
            if (s) stmt->body.push_back(std::move(s));
            if (pos_ == before && !at_eof() && !check(TokenKind::kRBrace)) consume();
        }
        expect(TokenKind::kRBrace, "'}'");
    } else {
        accept(TokenKind::kSemicolon);
    }
    return stmt;
}

StmtPtr Parser::parse_use() {
    auto* stmt = arena_.create<UseStmt>();
    stmt->line = current().line;
    consume();  // use
    // `use function`/`use const` prefixes.
    if (check_keyword(Keyword::kFunction) || check_keyword(Keyword::kConst)) consume();
    do {
        const std::string_view fqn = parse_qualified_name();
        std::string_view alias;
        if (accept_keyword(Keyword::kAs)) {
            if (check(TokenKind::kIdentifier)) alias = consume().text;
        }
        if (alias.empty()) {
            const size_t slash = fqn.rfind('\\');
            alias = slash == std::string_view::npos ? fqn : fqn.substr(slash + 1);
        }
        stmt->imports.emplace_back(fqn, alias);
    } while (accept(TokenKind::kComma));
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_const() {
    auto* stmt = arena_.create<ConstStmt>();
    stmt->line = current().line;
    consume();  // const
    do {
        std::string_view name;
        if (check(TokenKind::kIdentifier)) name = consume().text;
        ExprPtr value = nullptr;
        if (accept(TokenKind::kAssign)) value = parse_expression(kBpAssign + 1);
        if (!name.empty() && value)
            stmt->constants.emplace_back(name, value);
    } while (accept(TokenKind::kComma));
    accept(TokenKind::kSemicolon);
    return stmt;
}

StmtPtr Parser::parse_expression_statement() {
    auto* stmt = arena_.create<ExprStmt>();
    stmt->line = current().line;
    stmt->expr = parse_expression();
    accept(TokenKind::kSemicolon);
    if (!stmt->expr) return nullptr;
    return stmt;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Parser::parse_expression(int min_bp) {
    DepthGuard depth(*this);
    if (!depth) return nullptr;
    ExprPtr lhs = parse_unary();
    if (!lhs) return nullptr;

    while (!at_eof()) {
        // Assignment (right-associative, only on assignable targets).
        if (const auto aop = assign_op_for(current().kind);
            aop && min_bp <= kBpAssign && is_assignable(*lhs)) {
            const int line = current().line;
            consume();
            auto* assign = arena_.create<Assign>();
            assign->line = line;
            assign->op = *aop;
            if (*aop == AssignOp::kAssign && accept(TokenKind::kAmp))
                assign->by_ref = true;
            assign->target = std::move(lhs);
            assign->value = parse_expression(kBpAssign);  // right-assoc
            lhs = std::move(assign);
            continue;
        }
        // Ternary.
        if (check(TokenKind::kQuestion) && min_bp <= kBpTernary) {
            const int line = current().line;
            consume();
            auto* ternary = arena_.create<Ternary>();
            ternary->line = line;
            ternary->cond = std::move(lhs);
            if (!check(TokenKind::kColon))
                ternary->then_expr = parse_expression();
            expect(TokenKind::kColon, "':'");
            ternary->else_expr = parse_expression(kBpTernary);
            lhs = std::move(ternary);
            continue;
        }
        // instanceof.
        if (check_keyword(Keyword::kInstanceof) && min_bp <= kBpInstanceof) {
            const int line = current().line;
            consume();
            auto* inst = arena_.create<InstanceOf>();
            inst->line = line;
            inst->object = std::move(lhs);
            inst->class_name = parse_qualified_name();
            lhs = std::move(inst);
            continue;
        }
        const auto op = infix_for(current());
        if (!op || op->bp < min_bp) break;
        const int line = current().line;
        consume();
        auto* bin = arena_.create<Binary>();
        bin->line = line;
        bin->op = op->op;
        bin->lhs = std::move(lhs);
        bin->rhs = parse_expression(op->right_assoc ? op->bp : op->bp + 1);
        if (!bin->rhs) {
            error_here("expected expression after operator");
            auto* empty = arena_.create<Literal>();
            empty->type = Literal::Type::kNull;
            empty->value = "null";
            empty->line = line;
            bin->rhs = std::move(empty);
        }
        lhs = std::move(bin);
    }
    return lhs;
}

ExprPtr Parser::parse_unary() {
    DepthGuard depth(*this);
    if (!depth) return nullptr;
    const Token& tok = current();
    const int line = tok.line;

    auto make_unary = [&](UnaryOp op) -> ExprPtr {
        consume();
        auto* node = arena_.create<Unary>();
        node->line = line;
        node->op = op;
        // `!` ranks below instanceof, unlike the other prefix operators:
        // !$a instanceof B is !($a instanceof B).
        node->operand = op == UnaryOp::kNot ? parse_expression(kBpInstanceof)
                                            : parse_unary();
        if (!node->operand) return nullptr;
        // `**` binds tighter than a prefix operator: -2 ** 2 is -(2 ** 2).
        // The right-associative rhs takes any further `**`.
        if (check(TokenKind::kPow)) {
            auto* pow = arena_.create<Binary>();
            pow->line = current().line;
            consume();
            pow->op = BinaryOp::kPow;
            pow->lhs = node->operand;
            pow->rhs = parse_expression(kBpPow);
            if (!pow->rhs) return nullptr;
            node->operand = pow;
        }
        return node;
    };

    switch (tok.kind) {
        case TokenKind::kNot: return make_unary(UnaryOp::kNot);
        case TokenKind::kMinus: return make_unary(UnaryOp::kMinus);
        case TokenKind::kPlus: return make_unary(UnaryOp::kPlus);
        case TokenKind::kTilde: return make_unary(UnaryOp::kBitNot);
        case TokenKind::kAt: return make_unary(UnaryOp::kSuppress);
        case TokenKind::kCast: {
            consume();
            auto* node = arena_.create<Cast>();
            node->line = line;
            node->type = tok.value;
            node->operand = parse_unary();
            if (!node->operand) return nullptr;
            return node;
        }
        case TokenKind::kInc:
        case TokenKind::kDec: {
            consume();
            auto* node = arena_.create<IncDec>();
            node->line = line;
            node->increment = tok.kind == TokenKind::kInc;
            node->prefix = true;
            node->operand = parse_unary();
            if (!node->operand) return nullptr;
            return node;
        }
        case TokenKind::kAmp: {
            // Reference in expression position (e.g. array items): parse the
            // operand transparently; by-ref bookkeeping is done by callers.
            consume();
            return parse_unary();
        }
        case TokenKind::kKeyword:
            switch (tok.keyword) {
                case Keyword::kPrint: {
                    consume();
                    auto* node = arena_.create<PrintExpr>();
                    node->line = line;
                    node->operand = parse_expression(kBpAssign);
                    return node;
                }
                case Keyword::kNew: return parse_new();
                case Keyword::kClone: {
                    consume();
                    auto* call = arena_.create<FunctionCall>();
                    call->line = line;
                    call->name = "clone";
                    Argument arg;
                    arg.value = parse_unary();
                    if (!arg.value) return nullptr;
                    call->args.push_back(std::move(arg));
                    return call;
                }
                case Keyword::kInclude:
                case Keyword::kIncludeOnce:
                case Keyword::kRequire:
                case Keyword::kRequireOnce: {
                    consume();
                    auto* node = arena_.create<IncludeExpr>();
                    node->line = line;
                    node->include_kind =
                        tok.keyword == Keyword::kInclude ? IncludeKind::kInclude
                        : tok.keyword == Keyword::kIncludeOnce ? IncludeKind::kIncludeOnce
                        : tok.keyword == Keyword::kRequire ? IncludeKind::kRequire
                                                           : IncludeKind::kRequireOnce;
                    node->path = parse_expression(kBpAssign);
                    return node;
                }
                case Keyword::kYield: {
                    // Generators: `yield [key =>] value` — represented as a
                    // __yield marker call; the engine folds the value into the
                    // function's return flow (foreach over the generator sees it).
                    consume();
                    auto* call = arena_.create<FunctionCall>();
                    call->line = line;
                    call->name = "__yield";
                    if (!check(TokenKind::kSemicolon) && !check(TokenKind::kRParen) &&
                        !check(TokenKind::kCloseTag)) {
                        Argument arg;
                        arg.value = parse_expression(kBpAssign);
                        if (arg.value && accept(TokenKind::kDoubleArrow)) {
                            Argument val;
                            val.value = parse_expression(kBpAssign);
                            call->args.push_back(std::move(arg));
                            if (val.value) call->args.push_back(std::move(val));
                        } else if (arg.value) {
                            call->args.push_back(std::move(arg));
                        }
                    }
                    return call;
                }
                case Keyword::kExit:
                case Keyword::kDie: {
                    consume();
                    auto* node = arena_.create<ExitExpr>();
                    node->line = line;
                    if (accept(TokenKind::kLParen)) {
                        if (!check(TokenKind::kRParen)) node->operand = parse_expression();
                        expect(TokenKind::kRParen, "')'");
                    }
                    return node;
                }
                default:
                    break;
            }
            break;
        default:
            break;
    }
    return parse_primary();
}

ExprPtr Parser::parse_primary() {
    const Token& tok = current();
    const int line = tok.line;

    switch (tok.kind) {
        case TokenKind::kVariable:
            return parse_postfix(parse_variable_expr());
        case TokenKind::kDollar: {
            // $$var / ${expr}: dynamic variable name.
            consume();
            if (check(TokenKind::kVariable)) {
                auto* var = arena_.create<Variable>();
                var->line = line;
                var->name = arena_.store("$" + std::string(consume().text));  // "$$x"
                return parse_postfix(var);
            }
            if (accept(TokenKind::kLBrace)) {
                parse_expression();
                expect(TokenKind::kRBrace, "'}'");
            }
            auto* var = arena_.create<Variable>();
            var->line = line;
            var->name = "$<dynamic>";
            return parse_postfix(std::move(var));
        }
        case TokenKind::kIdentifier:
            return parse_identifier_expr();
        case TokenKind::kIntLiteral: {
            consume();
            auto* lit = arena_.create<Literal>();
            lit->line = line;
            lit->type = Literal::Type::kInt;
            lit->value = tok.text;
            return lit;
        }
        case TokenKind::kFloatLiteral: {
            consume();
            auto* lit = arena_.create<Literal>();
            lit->line = line;
            lit->type = Literal::Type::kFloat;
            lit->value = tok.text;
            return lit;
        }
        case TokenKind::kSingleQuotedString:
        case TokenKind::kNowdoc: {
            consume();
            return parse_postfix(make_string_literal(tok.value, line));
        }
        case TokenKind::kDoubleQuotedString:
        case TokenKind::kHeredoc: {
            consume();
            return parse_postfix(parse_string_token(tok));
        }
        case TokenKind::kLParen: {
            consume();
            ExprPtr inner = parse_expression();
            expect(TokenKind::kRParen, "')'");
            if (!inner) return nullptr;
            return parse_postfix(std::move(inner));
        }
        case TokenKind::kLBracket:
            return parse_postfix(parse_array_literal(TokenKind::kRBracket));
        case TokenKind::kKeyword:
            switch (tok.keyword) {
                case Keyword::kArray:
                    if (peek(1).kind != TokenKind::kLParen) break;
                    consume();
                    consume();
                    return parse_postfix(parse_array_literal(TokenKind::kRParen));
                case Keyword::kList:
                    if (peek(1).kind != TokenKind::kLParen) break;
                    return parse_list_expr();
                case Keyword::kIsset: {
                    consume();
                    auto* node = arena_.create<IssetExpr>();
                    node->line = line;
                    expect(TokenKind::kLParen, "'('");
                    if (!check(TokenKind::kRParen)) {
                        do {
                            node->vars.push_back(parse_expression());
                        } while (accept(TokenKind::kComma));
                    }
                    expect(TokenKind::kRParen, "')'");
                    return node;
                }
                case Keyword::kEmpty: {
                    consume();
                    auto* node = arena_.create<EmptyExpr>();
                    node->line = line;
                    expect(TokenKind::kLParen, "'('");
                    node->operand = parse_expression();
                    expect(TokenKind::kRParen, "')'");
                    return node;
                }
                case Keyword::kFunction: return parse_closure(false);
                case Keyword::kFn: return parse_arrow_fn(false);
                case Keyword::kStatic: {
                    consume();
                    if (check_keyword(Keyword::kFunction)) return parse_closure(true);
                    if (check_keyword(Keyword::kFn)) return parse_arrow_fn(true);
                    // static:: access
                    if (check(TokenKind::kDoubleColon)) {
                        auto* fake = arena_.create<Variable>();
                        fake->line = line;
                        fake->name = "static";
                        // Reuse the identifier path by synthesizing a class name.
                        consume();  // ::
                        if (check(TokenKind::kVariable)) {
                            auto* sp = arena_.create<StaticPropertyAccess>();
                            sp->line = line;
                            sp->class_name = "static";
                            const std::string_view v = consume().text;
                            sp->property = v.size() > 1 ? v.substr(1) : v;
                            return parse_postfix(sp);
                        }
                        std::string_view member;
                        if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword))
                            member = consume().text;
                        if (check(TokenKind::kLParen)) {
                            auto* call = arena_.create<StaticCall>();
                            call->line = line;
                            call->class_name = "static";
                            call->method = member;
                            call->args = parse_call_args();
                            return parse_postfix(std::move(call));
                        }
                        auto* cc = arena_.create<ClassConstAccess>();
                        cc->line = line;
                        cc->class_name = "static";
                        cc->constant = member;
                        return cc;
                    }
                    error_here("unexpected 'static' in expression");
                    return nullptr;
                }
                case Keyword::kEval: {
                    consume();
                    auto* call = arena_.create<FunctionCall>();
                    call->line = line;
                    call->name = "eval";
                    call->args = parse_call_args();
                    return call;
                }
                case Keyword::kMatch: {
                    // PHP 8 match: parse as opaque; evaluate arms for side effects.
                    consume();
                    auto* call = arena_.create<FunctionCall>();
                    call->line = line;
                    call->name = "match";
                    expect(TokenKind::kLParen, "'('");
                    Argument subj;
                    subj.value = parse_expression();
                    if (subj.value) call->args.push_back(std::move(subj));
                    expect(TokenKind::kRParen, "')'");
                    if (accept(TokenKind::kLBrace)) {
                        int depth = 1;
                        while (!at_eof() && depth > 0) {
                            if (check(TokenKind::kLBrace)) ++depth;
                            if (check(TokenKind::kRBrace)) --depth;
                            consume();
                        }
                    }
                    return call;
                }
                default:
                    break;
            }
            break;
        case TokenKind::kBackslash: {
            // Fully-qualified name: \foo\bar(...)
            return parse_identifier_expr();
        }
        default:
            break;
    }
    error_here("unexpected token '" + std::string(tok.text) + "' in expression");
    return nullptr;
}

ExprPtr Parser::parse_variable_expr() {
    auto* var = arena_.create<Variable>();
    var->line = current().line;
    var->name = consume().text;
    return var;
}

ExprPtr Parser::parse_identifier_expr() {
    const int line = current().line;
    const std::string_view name = parse_qualified_name();

    if (iequals(name, "true") || iequals(name, "false")) {
        auto* lit = arena_.create<Literal>();
        lit->line = line;
        lit->type = Literal::Type::kBool;
        lit->value = iequals(name, "true") ? "true" : "false";
        return lit;
    }
    if (iequals(name, "null")) {
        auto* lit = arena_.create<Literal>();
        lit->line = line;
        lit->type = Literal::Type::kNull;
        lit->value = "null";
        return lit;
    }

    if (check(TokenKind::kLParen)) {
        auto* call = arena_.create<FunctionCall>();
        call->line = line;
        call->name = name;
        call->args = parse_call_args();
        return parse_postfix(call);
    }

    if (check(TokenKind::kDoubleColon)) {
        consume();
        if (check(TokenKind::kVariable)) {
            auto* sp = arena_.create<StaticPropertyAccess>();
            sp->line = line;
            sp->class_name = name;
            const std::string_view v = consume().text;
            sp->property = v.size() > 1 ? v.substr(1) : v;
            return parse_postfix(sp);
        }
        std::string_view member;
        if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword))
            member = consume().text;
        if (check(TokenKind::kLParen)) {
            auto* call = arena_.create<StaticCall>();
            call->line = line;
            call->class_name = name;
            call->method = std::move(member);
            call->args = parse_call_args();
            return parse_postfix(std::move(call));
        }
        auto* cc = arena_.create<ClassConstAccess>();
        cc->line = line;
        cc->class_name = name;
        cc->constant = std::move(member);
        return cc;
    }

    // Bare constant: untainted literal from the analysis's point of view.
    auto* lit = arena_.create<Literal>();
    lit->line = line;
    lit->type = Literal::Type::kConstant;
    lit->value = name;
    return parse_postfix(std::move(lit));
}

ExprPtr Parser::parse_postfix(ExprPtr base) {
    if (!base) return nullptr;
    while (!at_eof()) {
        const int line = current().line;
        if (check(TokenKind::kArrow) || check(TokenKind::kNullsafeArrow)) {
            consume();
            std::string_view member;
            ExprPtr member_expr = nullptr;
            if (check(TokenKind::kIdentifier) || check(TokenKind::kKeyword)) {
                member = consume().text;
            } else if (check(TokenKind::kVariable)) {
                member_expr = parse_variable_expr();
            } else if (accept(TokenKind::kLBrace)) {
                member_expr = parse_expression();
                expect(TokenKind::kRBrace, "'}'");
            } else {
                error_here("expected member name after '->'");
                return base;
            }
            if (check(TokenKind::kLParen)) {
                auto* call = arena_.create<MethodCall>();
                call->line = line;
                call->object = std::move(base);
                call->method = std::move(member);
                call->method_expr = std::move(member_expr);
                call->args = parse_call_args();
                base = std::move(call);
            } else {
                auto* prop = arena_.create<PropertyAccess>();
                prop->line = line;
                prop->object = std::move(base);
                prop->property = std::move(member);
                prop->property_expr = std::move(member_expr);
                base = std::move(prop);
            }
            continue;
        }
        if (check(TokenKind::kLBracket)) {
            consume();
            auto* access = arena_.create<ArrayAccess>();
            access->line = line;
            access->base = std::move(base);
            if (!check(TokenKind::kRBracket)) access->index = parse_expression();
            expect(TokenKind::kRBracket, "']'");
            base = std::move(access);
            continue;
        }
        if (check(TokenKind::kLBrace) &&
            (base->kind == NodeKind::kVariable ||
             base->kind == NodeKind::kArrayAccess ||
             base->kind == NodeKind::kPropertyAccess)) {
            // Old string-offset syntax $s{0}; only when an index follows
            // immediately and closes — otherwise it's a block, not an offset.
            // Conservative: require an integer or variable then '}'.
            const Token& n1 = peek(1);
            const Token& n2 = peek(2);
            const bool offset_like =
                (n1.kind == TokenKind::kIntLiteral || n1.kind == TokenKind::kVariable) &&
                n2.kind == TokenKind::kRBrace;
            if (!offset_like) break;
            consume();
            auto* access = arena_.create<ArrayAccess>();
            access->line = line;
            access->base = std::move(base);
            access->index = parse_expression();
            expect(TokenKind::kRBrace, "'}'");
            base = std::move(access);
            continue;
        }
        if (check(TokenKind::kLParen)) {
            // Calling an arbitrary expression: $fn(), ($obj->cb)(), closures.
            auto* call = arena_.create<FunctionCall>();
            call->line = line;
            call->callee = std::move(base);
            call->args = parse_call_args();
            base = std::move(call);
            continue;
        }
        if (check(TokenKind::kInc) || check(TokenKind::kDec)) {
            auto* node = arena_.create<IncDec>();
            node->line = line;
            node->increment = check(TokenKind::kInc);
            node->prefix = false;
            consume();
            node->operand = std::move(base);
            base = std::move(node);
            continue;
        }
        break;
    }
    return base;
}

ArenaVector<Argument> Parser::parse_call_args() {
    ArenaVector<Argument> args;
    if (!expect(TokenKind::kLParen, "'('")) return args;
    if (accept(TokenKind::kRParen)) return args;
    do {
        if (check(TokenKind::kRParen)) break;  // trailing comma
        Argument arg;
        if (accept(TokenKind::kEllipsis)) arg.spread = true;
        if (accept(TokenKind::kAmp)) arg.by_ref = true;
        // Named argument (PHP 8): name: value — skip the label.
        if ((check(TokenKind::kIdentifier) || check(TokenKind::kKeyword)) &&
            peek(1).kind == TokenKind::kColon &&
            peek(2).kind != TokenKind::kColon) {
            consume();
            consume();
        }
        arg.value = parse_expression(kBpAssign);
        if (!arg.value) break;
        args.push_back(std::move(arg));
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, "')'");
    return args;
}

ExprPtr Parser::parse_array_literal(TokenKind closer) {
    // The opener has already been consumed by the caller.
    auto* arr = arena_.create<ArrayLiteral>();
    arr->line = current().line;
    if (closer == TokenKind::kRBracket) consume();  // the caller left '[' intact
    if (accept(closer)) return arr;
    do {
        if (check(closer)) break;  // trailing comma
        ArrayItem item;
        if (accept(TokenKind::kEllipsis)) item.spread = true;
        if (accept(TokenKind::kAmp)) item.by_ref = true;
        ExprPtr first = parse_expression(kBpAssign);
        if (!first) break;
        if (accept(TokenKind::kDoubleArrow)) {
            item.key = std::move(first);
            if (accept(TokenKind::kAmp)) item.by_ref = true;
            item.value = parse_expression(kBpAssign);
            if (!item.value) break;
        } else {
            item.value = std::move(first);
        }
        arr->items.push_back(std::move(item));
    } while (accept(TokenKind::kComma));
    expect(closer, closer == TokenKind::kRParen ? "')'" : "']'");
    return arr;
}

ExprPtr Parser::parse_list_expr() {
    auto* list = arena_.create<ListExpr>();
    list->line = current().line;
    consume();  // list
    expect(TokenKind::kLParen, "'('");
    if (!check(TokenKind::kRParen)) {
        do {
            if (check(TokenKind::kComma) || check(TokenKind::kRParen)) {
                list->elements.push_back(nullptr);  // skipped slot
                continue;
            }
            list->elements.push_back(parse_expression(kBpAssign));
        } while (accept(TokenKind::kComma));
    }
    expect(TokenKind::kRParen, "')'");
    return list;
}

ExprPtr Parser::parse_closure(bool is_static) {
    auto* closure = arena_.create<Closure>();
    closure->line = current().line;
    consume();  // function
    accept(TokenKind::kAmp);  // by-ref return
    closure->params = parse_params();
    if (accept_keyword(Keyword::kUse)) {
        expect(TokenKind::kLParen, "'('");
        if (!check(TokenKind::kRParen)) {
            do {
                bool by_ref = accept(TokenKind::kAmp);
                if (check(TokenKind::kVariable))
                    closure->uses.emplace_back(consume().text, by_ref);
            } while (accept(TokenKind::kComma));
        }
        expect(TokenKind::kRParen, "')'");
    }
    if (accept(TokenKind::kColon)) parse_type_hint();
    skip_tags();
    if (check(TokenKind::kLBrace)) {
        StmtPtr body = parse_statement();
        if (body && body->kind == NodeKind::kBlock)
            closure->body = std::move(static_cast<Block*>(body)->statements);
    }
    (void)is_static;
    return closure;
}

ExprPtr Parser::parse_arrow_fn(bool is_static) {
    auto* closure = arena_.create<Closure>();
    closure->line = current().line;
    closure->is_arrow = true;
    consume();  // fn
    accept(TokenKind::kAmp);
    closure->params = parse_params();
    if (accept(TokenKind::kColon)) parse_type_hint();
    if (accept(TokenKind::kDoubleArrow)) {
        auto* ret = arena_.create<ReturnStmt>();
        ret->line = current().line;
        ret->value = parse_expression(kBpAssign);
        closure->body.push_back(std::move(ret));
    }
    (void)is_static;
    return closure;
}

ExprPtr Parser::parse_new() {
    auto* node = arena_.create<New>();
    node->line = current().line;
    consume();  // new
    if (check(TokenKind::kIdentifier) || check(TokenKind::kBackslash)) {
        node->class_name = parse_qualified_name();
    } else if (check_keyword(Keyword::kStatic) || check_keyword(Keyword::kClass)) {
        if (check_keyword(Keyword::kClass)) {
            // Anonymous class: new class { ... } — parse and discard body.
            consume();
            if (check(TokenKind::kLParen)) node->args = parse_call_args();
            if (check_keyword(Keyword::kExtends)) {
                consume();
                node->class_name = parse_qualified_name();
            }
            if (accept_keyword(Keyword::kImplements)) {
                do {
                    parse_qualified_name();
                } while (accept(TokenKind::kComma));
            }
            if (accept(TokenKind::kLBrace)) {
                int depth = 1;
                while (!at_eof() && depth > 0) {
                    if (check(TokenKind::kLBrace)) ++depth;
                    if (check(TokenKind::kRBrace)) --depth;
                    consume();
                }
            }
            return parse_postfix(std::move(node));
        }
        node->class_name = consume().text;  // "static"
    } else if (check(TokenKind::kVariable)) {
        node->class_expr = parse_variable_expr();
    } else {
        error_here("expected class name after 'new'");
    }
    if (check(TokenKind::kLParen)) node->args = parse_call_args();
    return parse_postfix(std::move(node));
}

ExprPtr Parser::parse_string_token(const Token& tok) {
    if (!tok.has_interpolation()) return make_string_literal(tok.value, tok.line);
    auto* interp = arena_.create<InterpString>();
    interp->line = tok.line;
    for (const StringPart& part : tokens_.parts_of(tok)) {
        if (part.kind == StringPart::Kind::kLiteral) {
            interp->parts.push_back(make_string_literal(part.text, tok.line));
        } else {
            ExprPtr e = parse_expression_text(part.text, file_.name(), tok.line,
                                              sink_, arena_);
            if (e) interp->parts.push_back(std::move(e));
        }
    }
    return interp;
}

ArenaVector<Param> Parser::parse_params() {
    ArenaVector<Param> params;
    if (!expect(TokenKind::kLParen, "'('")) return params;
    if (accept(TokenKind::kRParen)) return params;
    do {
        if (check(TokenKind::kRParen)) break;  // trailing comma
        Param p;
        // Modifiers (constructor promotion) and type hints.
        while (check_keyword(Keyword::kPublic) || check_keyword(Keyword::kProtected) ||
               check_keyword(Keyword::kPrivate) || check_keyword(Keyword::kReadonly))
            consume();
        if (!check(TokenKind::kVariable) && !check(TokenKind::kAmp) &&
            !check(TokenKind::kEllipsis))
            p.type_hint = parse_type_hint();
        if (accept(TokenKind::kAmp)) p.by_ref = true;
        if (accept(TokenKind::kEllipsis)) p.variadic = true;
        if (check(TokenKind::kVariable)) {
            p.name = consume().text;
        } else {
            error_here("expected parameter name");
            break;
        }
        if (accept(TokenKind::kAssign)) p.default_value = parse_expression(kBpAssign);
        params.push_back(std::move(p));
    } while (accept(TokenKind::kComma));
    expect(TokenKind::kRParen, "')'");
    return params;
}

std::string_view Parser::parse_type_hint() {
    // Single-name hints (the overwhelmingly common case) are returned as the
    // token's own view; unions are materialized into the arena.
    std::string_view single;
    std::string multi;
    bool is_multi = false;
    bool any = false;
    accept(TokenKind::kQuestion);  // nullable
    while (true) {
        if (check(TokenKind::kIdentifier) || check(TokenKind::kBackslash) ||
            check_keyword(Keyword::kArray) || check_keyword(Keyword::kCallable) ||
            check_keyword(Keyword::kStatic)) {
            const std::string_view part = parse_qualified_name();
            if (!any) {
                single = part;
                any = true;
            } else {
                multi += part;
            }
        } else {
            break;
        }
        if (accept(TokenKind::kPipe) || accept(TokenKind::kAmp)) {
            if (!is_multi) {
                multi.assign(single);
                is_multi = true;
            }
            multi += "|";
            continue;
        }
        break;
    }
    if (!is_multi) return single;
    return arena_.store(multi);
}

std::string_view Parser::parse_qualified_name() {
    // Unqualified names — nearly every name in plugin code — are views into
    // the source; namespaced paths are joined into the arena.
    const bool rooted = accept(TokenKind::kBackslash);
    std::string_view single;
    std::string multi;
    bool is_multi = rooted;
    if (rooted) multi = "\\";
    while (check(TokenKind::kIdentifier) || check_keyword(Keyword::kArray) ||
           check_keyword(Keyword::kCallable) || check_keyword(Keyword::kStatic) ||
           check_keyword(Keyword::kClass)) {
        const std::string_view part = consume().text;
        if (is_multi)
            multi += part;
        else
            single = part;
        if (check(TokenKind::kBackslash) && peek(1).kind == TokenKind::kIdentifier) {
            consume();
            if (!is_multi) {
                multi.assign(single);
                is_multi = true;
            }
            multi += "\\";
            continue;
        }
        break;
    }
    if (!is_multi) {
        if (single.empty()) {
            error_here("expected identifier");
            return "<error>";
        }
        return single;
    }
    if (multi == "\\") {
        error_here("expected identifier");
        return "\\";
    }
    return arena_.store(multi);
}

ExprPtr Parser::make_string_literal(std::string_view value, int line) {
    auto* lit = arena_.create<Literal>();
    lit->line = line;
    lit->type = Literal::Type::kString;
    lit->value = value;
    return lit;
}

}  // namespace phpsafe::php
