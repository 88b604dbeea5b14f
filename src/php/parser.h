// Recursive-descent parser producing the AST in php/ast.h from the lexer's
// token stream. Covers the PHP 5/7 subset found in CMS plugin code:
// procedural statements, alternative syntax (if: ... endif;), classes /
// interfaces / traits, closures, heredocs, string interpolation, includes
// and inline HTML. Errors are recovered (token skipped, diagnostic logged)
// so one bad construct never aborts a whole-plugin analysis — matching the
// robustness behaviour the paper measures in Section V.E.
#pragma once

#include <initializer_list>
#include <string_view>

#include "php/ast.h"
#include "php/token.h"
#include "util/arena.h"
#include "util/diagnostics.h"
#include "util/source.h"

namespace phpsafe::php {

struct ParserOptions {
    /// Abort with a kFatal diagnostic after this many recovered parse
    /// errors in one file (robustness modelling; 0 = never abort).
    int max_errors = 200;
    /// Combined statement/expression nesting limit. Exceeding it aborts the
    /// file with an explicit kFatal diagnostic instead of letting recursive
    /// descent overflow the stack on adversarial input like 100k nested
    /// parentheses (0 = unlimited; the byte fuzzer runs with the default).
    /// A block statement costs two levels (statement + enclosing block), so
    /// 1000 admits ~500 nested blocks — far beyond real plugin code while
    /// keeping worst-case stack use a few hundred KiB.
    int max_depth = 1000;
};

class Parser {
public:
    using Options = ParserOptions;

    /// All AST nodes, decoded strings and synthesized names are allocated
    /// from `arena`, which must outlive the returned FileUnit.
    Parser(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
           Options options = {});

    /// Lexes and parses the whole file.
    FileUnit parse();

    /// CPU seconds the constructor spent lexing (the parser lexes eagerly);
    /// lets Project::parse_all split its build time into lex vs parse.
    double lex_cpu_seconds() const noexcept { return lex_cpu_seconds_; }

    /// Parses a standalone PHP expression (used for string-interpolation
    /// parts). Returns null on failure. The expression's nodes AND its
    /// backing snippet text live in `arena`.
    static ExprPtr parse_expression_text(std::string_view php_expr,
                                         std::string_view file_name, int line,
                                         DiagnosticSink& sink, Arena& arena);

private:
    // -- token cursor ------------------------------------------------------
    const Token& peek(size_t ahead = 0) const noexcept;
    const Token& current() const noexcept { return peek(0); }
    const Token& consume();
    bool check(TokenKind kind) const noexcept { return current().kind == kind; }
    bool check_keyword(Keyword kw) const noexcept { return current().is_keyword(kw); }
    bool accept(TokenKind kind);
    bool accept_keyword(Keyword kw);
    bool expect(TokenKind kind, std::string_view what);
    void error_here(const std::string& message);
    /// Depth accounting for every recursive production. enter_depth()
    /// returns false once the nesting limit tripped (or after any abort),
    /// so in-flight recursion unwinds by returning null upward.
    bool enter_depth();
    void leave_depth() noexcept { --depth_; }
    struct DepthGuard {
        explicit DepthGuard(Parser& parser)
            : parser_(parser), ok_(parser.enter_depth()) {}
        ~DepthGuard() { parser_.leave_depth(); }
        DepthGuard(const DepthGuard&) = delete;
        DepthGuard& operator=(const DepthGuard&) = delete;
        explicit operator bool() const noexcept { return ok_; }

    private:
        Parser& parser_;
        bool ok_;
    };
    bool at_eof() const noexcept { return current().kind == TokenKind::kEndOfFile; }
    SourceLocation loc_here() const;
    /// Skips open/close tags and inline HTML is NOT skipped (statement).
    void skip_tags();

    // -- statements --------------------------------------------------------
    StmtPtr parse_statement();
    StmtPtr parse_block_or_statement();
    ArenaVector<StmtPtr> parse_statement_list_until(
        std::initializer_list<Keyword> end_keywords);
    StmtPtr parse_if();
    StmtPtr parse_while();
    StmtPtr parse_do_while();
    StmtPtr parse_for();
    StmtPtr parse_foreach();
    StmtPtr parse_switch();
    StmtPtr parse_return();
    StmtPtr parse_echo(bool from_open_tag);
    StmtPtr parse_global();
    StmtPtr parse_static_var();
    StmtPtr parse_unset();
    StmtPtr parse_function_decl();
    StmtPtr parse_class_decl(ClassDecl::Kind kind, bool is_abstract, bool is_final);
    StmtPtr parse_try();
    StmtPtr parse_namespace();
    StmtPtr parse_use();
    StmtPtr parse_const();
    StmtPtr parse_expression_statement();
    void parse_class_member(ClassDecl& cls);

    // -- expressions -------------------------------------------------------
    ExprPtr parse_expression(int min_bp = 0);
    ExprPtr parse_unary();
    ExprPtr parse_primary();
    ExprPtr parse_postfix(ExprPtr base);
    ExprPtr parse_variable_expr();
    ExprPtr parse_identifier_expr();
    ExprPtr parse_array_literal(TokenKind closer);
    ExprPtr parse_list_expr();
    ExprPtr parse_closure(bool is_static);
    ExprPtr parse_arrow_fn(bool is_static);
    ExprPtr parse_new();
    ExprPtr parse_string_token(const Token& tok);
    ArenaVector<Argument> parse_call_args();
    ArenaVector<Param> parse_params();
    std::string_view parse_type_hint();
    std::string_view parse_qualified_name();
    ExprPtr make_string_literal(std::string_view value, int line);

    const SourceFile& file_;
    Arena& arena_;
    /// Declared right after arena_: binds the thread's current arena for
    /// the parser's whole lifetime, so every ArenaVector child list any
    /// parse method constructs lands in the file's arena.
    Arena::Bind arena_bind_{arena_};
    DiagnosticSink& sink_;
    Options options_;
    TokenStream tokens_;
    size_t pos_ = 0;
    int error_count_ = 0;
    int depth_ = 0;
    bool aborted_ = false;
    double lex_cpu_seconds_ = 0;
};

}  // namespace phpsafe::php
