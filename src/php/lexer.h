// PHP lexer: a C++ equivalent of the PHP interpreter's token_get_all(),
// which the paper uses to build its AST (model-construction stage). The
// lexer understands inline HTML, open/close tags, all literal forms
// (including heredoc/nowdoc and interpolated strings), comments and the
// full operator set used by PHP 5/7 plugin code.
//
// One byte picks each path: a 256-entry byte-class table answers "space?",
// "identifier start?" and "digit?", the first byte of a token selects its
// lexing routine, and operators are a switch on that byte that nests for
// the longest match. Keywords are found by a collision-free hash over the
// case-folded word, without allocating.
//
// Zero-copy: token text and values are string_view slices of the source
// buffer whenever the lexeme needs no transformation; only decoded escape
// sequences and synthesized interpolation expressions are materialized —
// into the caller-supplied Arena, never onto the general heap. The
// SourceFile and Arena must outlive every token produced.
#pragma once

#include <string_view>

#include "php/token.h"
#include "util/arena.h"
#include "util/diagnostics.h"
#include "util/source.h"

namespace phpsafe::php {

struct LexerOptions {
    /// Emit kComment tokens instead of skipping them (the paper's tool
    /// "cleans the AST by removing comments"; tests flip this on).
    bool keep_comments = false;
};

class Lexer {
public:
    using Options = LexerOptions;

    Lexer(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
          Options options = {});

    /// Tokenizes the whole file. The tokens always end with kEndOfFile.
    TokenStream tokenize();

private:
    enum class Mode { kHtml, kPhp };

    bool at_end() const noexcept { return pos_ >= text_.size(); }
    char peek(size_t ahead = 0) const noexcept {
        return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
    }
    /// Moves to `end`, counting the newlines passed over.
    void skip_to(size_t end) noexcept;
    /// The end of the identifier characters that start at `from`.
    size_t ident_end(size_t from) const noexcept;

    void lex_html();
    void lex_php_token();
    void lex_close_tag();
    void skip_attribute();
    Token lex_variable();
    Token lex_identifier_or_keyword();
    Token lex_number();
    Token lex_single_quoted();
    Token lex_double_quoted(char quote, TokenKind kind);
    Token lex_heredoc();
    void lex_comment();
    bool try_lex_cast();
    Token lex_operator();

    /// Scans interpolation inside a double-quoted/heredoc body, appends the
    /// parts to the stream and records their range on `token`; `body` is
    /// the raw contents (escapes not yet decoded), a slice of the source.
    void scan_interpolation(std::string_view body, Token& token);

    /// The source bytes scanned since `start` — the zero-copy token text.
    std::string_view slice(size_t start) const noexcept {
        return text_.substr(start, pos_ - start);
    }

    void push(const Token& token) { out_.tokens.push_back(token); }

    static Token make(TokenKind kind, std::string_view text, int line) noexcept {
        Token t;
        t.kind = kind;
        t.text = text;
        t.line = line;
        return t;
    }

    const SourceFile& file_;
    std::string_view text_;
    Arena& arena_;
    DiagnosticSink& sink_;
    Options options_;
    size_t pos_ = 0;
    int line_ = 1;
    Mode mode_ = Mode::kHtml;
    TokenStream out_;
    /// Source bytes tokens view instead of copying; tokenize() credits
    /// them to obs::tls() once, not once per token.
    size_t saved_bytes_ = 0;
};

}  // namespace phpsafe::php
