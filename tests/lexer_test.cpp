// Lexer unit tests: token_get_all-equivalent behaviour on the constructs
// the analysis relies on (tags, variables, strings, interpolation,
// heredocs, comments, operators, casts), the token stream of the whole
// generated corpus pinned by digest, operators checked against a
// brute-force longest match, and truncated or hostile input.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "php/lexer.h"
#include "util/source.h"

namespace phpsafe::php {
namespace {

/// Owns the source text and arena the returned tokens' views point into;
/// kept alive for the whole test run so token text never dangles.
struct LexKeeper {
    explicit LexKeeper(std::string code)
        : file("test.php", std::move(code)) {}
    SourceFile file;
    Arena arena;
};

TokenStream lex(const std::string& code, Lexer::Options options = {}) {
    static std::vector<std::unique_ptr<LexKeeper>> keepers;
    keepers.push_back(std::make_unique<LexKeeper>(code));
    LexKeeper& k = *keepers.back();
    DiagnosticSink sink;
    Lexer lexer(k.file, k.arena, sink, options);
    return lexer.tokenize();
}

std::vector<TokenKind> kinds(const TokenStream& tokens) {
    std::vector<TokenKind> out;
    for (const Token& t : tokens) out.push_back(t.kind);
    return out;
}

TEST(LexerTest, EmptyFileYieldsEof) {
    const auto tokens = lex("");
    ASSERT_EQ(tokens.size(), 1u);
    EXPECT_EQ(tokens[0].kind, TokenKind::kEndOfFile);
}

TEST(LexerTest, PureHtmlIsOneInlineToken) {
    const auto tokens = lex("<html><body>Hello</body></html>");
    ASSERT_EQ(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].kind, TokenKind::kInlineHtml);
    EXPECT_EQ(tokens[0].text, "<html><body>Hello</body></html>");
}

TEST(LexerTest, OpenTagSwitchesToPhpMode) {
    const auto tokens = lex("<?php $x;");
    ASSERT_GE(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].kind, TokenKind::kOpenTag);
    EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
    EXPECT_EQ(tokens[1].text, "$x");
    EXPECT_EQ(tokens[2].kind, TokenKind::kSemicolon);
}

TEST(LexerTest, OpenTagWithEcho) {
    const auto tokens = lex("<?= $msg ?>");
    EXPECT_EQ(tokens[0].kind, TokenKind::kOpenTagWithEcho);
    EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
    EXPECT_EQ(tokens[2].kind, TokenKind::kCloseTag);
}

TEST(LexerTest, CloseTagReturnsToHtml) {
    const auto tokens = lex("<?php echo 1; ?>after");
    const auto k = kinds(tokens);
    // open, keyword(echo), int, ;, close, html, eof
    ASSERT_EQ(k.size(), 7u);
    EXPECT_EQ(k[4], TokenKind::kCloseTag);
    EXPECT_EQ(k[5], TokenKind::kInlineHtml);
    EXPECT_EQ(tokens[5].text, "after");
}

TEST(LexerTest, VariableNamesKeepDollar) {
    const auto tokens = lex("<?php $_GET $_POST $wpdb $this;");
    EXPECT_EQ(tokens[1].text, "$_GET");
    EXPECT_EQ(tokens[2].text, "$_POST");
    EXPECT_EQ(tokens[3].text, "$wpdb");
    EXPECT_EQ(tokens[4].text, "$this");
}

TEST(LexerTest, KeywordLookupRoundTripsEveryKeyword) {
    int count = 0;
#define PHPSAFE_CHECK_KEYWORD(name, text)                       \
    EXPECT_EQ(keyword_of(text), Keyword::name) << text;         \
    EXPECT_EQ(to_string(Keyword::name), std::string_view(text)); \
    ++count;
    PHPSAFE_PHP_KEYWORDS(PHPSAFE_CHECK_KEYWORD)
#undef PHPSAFE_CHECK_KEYWORD
    EXPECT_EQ(count, 69);
    EXPECT_EQ(keyword_of("ElseIf"), Keyword::kElseif);
    for (const char* word : {"", "i", "iff", "self", "parent", "true", "null", "elsif",
                             "include_once_", "require_oncE!", "\xc3if"})
        EXPECT_EQ(keyword_of(word), Keyword::kNone) << word;
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
    const auto tokens = lex("<?php IF ELSE Function CLASS;");
    EXPECT_TRUE(tokens[1].is_keyword(Keyword::kIf));
    EXPECT_TRUE(tokens[2].is_keyword(Keyword::kElse));
    EXPECT_TRUE(tokens[3].is_keyword(Keyword::kFunction));
    EXPECT_TRUE(tokens[4].is_keyword(Keyword::kClass));
    // Keyword text is the lowercase spelling whatever the source's case.
    EXPECT_EQ(tokens[3].text, "function");
    EXPECT_EQ(tokens[5].keyword, Keyword::kNone);  // ';'
}

TEST(LexerTest, IdentifiersKeepCase) {
    const auto tokens = lex("<?php MyClass my_function;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
    EXPECT_EQ(tokens[1].text, "MyClass");
    EXPECT_EQ(tokens[2].text, "my_function");
}

TEST(LexerTest, IntegerLiterals) {
    const auto tokens = lex("<?php 42 0x1F 0b101 1_000;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kIntLiteral);
    EXPECT_EQ(tokens[1].text, "42");
    EXPECT_EQ(tokens[2].text, "0x1F");
    EXPECT_EQ(tokens[3].text, "0b101");
    EXPECT_EQ(tokens[4].text, "1_000");
}

TEST(LexerTest, FloatLiterals) {
    const auto tokens = lex("<?php 3.14 1e10 2.5e-3;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kFloatLiteral);
    EXPECT_EQ(tokens[2].kind, TokenKind::kFloatLiteral);
    EXPECT_EQ(tokens[3].kind, TokenKind::kFloatLiteral);
}

TEST(LexerTest, SingleQuotedStringDecodesEscapes) {
    const auto tokens = lex(R"(<?php 'it\'s \\ raw \n';)");
    ASSERT_EQ(tokens[1].kind, TokenKind::kSingleQuotedString);
    EXPECT_EQ(tokens[1].value, "it's \\ raw \\n");
}

TEST(LexerTest, DoubleQuotedStringDecodesEscapes) {
    const auto tokens = lex(R"(<?php "a\tb\nc\x41";)");
    ASSERT_EQ(tokens[1].kind, TokenKind::kDoubleQuotedString);
    EXPECT_EQ(tokens[1].value, "a\tb\ncA");
}

TEST(LexerTest, SimpleInterpolation) {
    const auto tokens = lex(R"(<?php "Hello $name!";)");
    ASSERT_TRUE(tokens[1].has_interpolation());
    const auto parts = tokens.parts_of(tokens[1]);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0].text, "Hello ");
    EXPECT_EQ(parts[1].kind, StringPart::Kind::kExpression);
    EXPECT_EQ(parts[1].text, "$name");
    EXPECT_EQ(parts[2].text, "!");
}

TEST(LexerTest, PropertyInterpolation) {
    const auto tokens = lex(R"(<?php "v: $obj->prop end";)");
    ASSERT_TRUE(tokens[1].has_interpolation());
    EXPECT_EQ(tokens.parts_of(tokens[1])[1].text, "$obj->prop");
}

TEST(LexerTest, IndexInterpolationQuotesBareKeys) {
    const auto tokens = lex(R"(<?php "v: $row[name]";)");
    ASSERT_TRUE(tokens[1].has_interpolation());
    EXPECT_EQ(tokens.parts_of(tokens[1])[1].text, "$row['name']");
}

TEST(LexerTest, ComplexInterpolation) {
    const auto tokens = lex(R"(<?php "x {$a->b['c']} y";)");
    ASSERT_TRUE(tokens[1].has_interpolation());
    EXPECT_EQ(tokens.parts_of(tokens[1])[1].text, "$a->b['c']");
}

TEST(LexerTest, EscapedDollarIsNotInterpolation) {
    const auto tokens = lex(R"(<?php "costs \$5";)");
    EXPECT_FALSE(tokens[1].has_interpolation());
    EXPECT_EQ(tokens[1].value, "costs $5");
}

TEST(LexerTest, HeredocInterpolates) {
    const auto tokens = lex("<?php $x = <<<EOT\nHello $name\nEOT;\n");
    bool found = false;
    for (const Token& t : tokens) {
        if (t.kind == TokenKind::kHeredoc) {
            found = true;
            EXPECT_TRUE(t.has_interpolation());
        }
    }
    EXPECT_TRUE(found);
}

TEST(LexerTest, NowdocDoesNotInterpolate) {
    const auto tokens = lex("<?php $x = <<<'EOT'\nHello $name\nEOT;\n");
    bool found = false;
    for (const Token& t : tokens) {
        if (t.kind == TokenKind::kNowdoc) {
            found = true;
            EXPECT_FALSE(t.has_interpolation());
            EXPECT_EQ(t.value, "Hello $name");
        }
    }
    EXPECT_TRUE(found);
}

TEST(LexerTest, CommentsSkippedByDefault) {
    const auto tokens = lex("<?php // line\n# hash\n/* block */ $x;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
}

TEST(LexerTest, CommentsKeptOnRequest) {
    Lexer::Options options;
    options.keep_comments = true;
    const auto tokens = lex("<?php // note\n$x;", options);
    EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
    EXPECT_EQ(tokens[1].text, "// note");
}

TEST(LexerTest, LineCommentStopsAtCloseTag) {
    const auto tokens = lex("<?php // c ?>html");
    bool close = false, html = false;
    for (const Token& t : tokens) {
        if (t.kind == TokenKind::kCloseTag) close = true;
        if (t.kind == TokenKind::kInlineHtml) html = true;
    }
    EXPECT_TRUE(close);
    EXPECT_TRUE(html);
}

TEST(LexerTest, MultiCharOperators) {
    const auto tokens = lex("<?php -> :: => === !== <=> ?? ?\?= .= <<= **;");
    const auto k = kinds(tokens);
    EXPECT_EQ(k[1], TokenKind::kArrow);
    EXPECT_EQ(k[2], TokenKind::kDoubleColon);
    EXPECT_EQ(k[3], TokenKind::kDoubleArrow);
    EXPECT_EQ(k[4], TokenKind::kIdentical);
    EXPECT_EQ(k[5], TokenKind::kNotIdentical);
    EXPECT_EQ(k[6], TokenKind::kSpaceship);
    EXPECT_EQ(k[7], TokenKind::kCoalesce);
    EXPECT_EQ(k[8], TokenKind::kCoalesceEq);
    EXPECT_EQ(k[9], TokenKind::kConcatEq);
    EXPECT_EQ(k[10], TokenKind::kShlEq);
    EXPECT_EQ(k[11], TokenKind::kPow);
}

TEST(LexerTest, CastTokens) {
    const auto tokens = lex("<?php (int)$x; (string) $y; (notacast)$z;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kCast);
    EXPECT_EQ(tokens[1].value, "int");
    EXPECT_EQ(tokens[4].kind, TokenKind::kCast);
    EXPECT_EQ(tokens[4].value, "string");
    EXPECT_EQ(tokens[7].kind, TokenKind::kLParen);  // not a cast
}

TEST(LexerTest, LineNumbersTracked) {
    const auto tokens = lex("<?php\n$a;\n\n$b;");
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_EQ(tokens[1].text, "$a");
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[3].text, "$b");
    EXPECT_EQ(tokens[3].line, 4);
}

TEST(LexerTest, UnterminatedStringRecordsError) {
    SourceFile file("bad.php", "<?php $x = 'oops");
    DiagnosticSink sink;
    Arena arena;
    Lexer lexer(file, arena, sink);
    lexer.tokenize();
    EXPECT_GE(sink.count(Severity::kError), 1);
}

TEST(LexerTest, ShortOpenTag) {
    const auto tokens = lex("<? $x;");
    EXPECT_EQ(tokens[0].kind, TokenKind::kOpenTag);
    EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
}

TEST(LexerTest, HeredocWithIndentedTerminator) {
    const auto tokens = lex("<?php $x = <<<EOT\nbody\n  EOT;\n");
    bool found = false;
    for (const Token& t : tokens)
        if (t.kind == TokenKind::kHeredoc) found = true;
    EXPECT_TRUE(found);
}

TEST(LexerTest, BacktickLexedAsString) {
    const auto tokens = lex("<?php `ls $dir`;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kDoubleQuotedString);
    EXPECT_TRUE(tokens[1].has_interpolation());
}

TEST(LexerTest, Php8AttributeSkipped) {
    const auto tokens = lex("<?php #[Attr(1, [2])]\n$x;");
    EXPECT_EQ(tokens[1].kind, TokenKind::kVariable);
}

// -- whole-corpus token stream ---------------------------------------------

/// FNV-1a over every field a consumer of the token stream can observe.
struct Fnv {
    uint64_t hash = 1469598103934665603ull;
    void bytes(const void* data, size_t size) {
        const auto* b = static_cast<const unsigned char*>(data);
        for (size_t i = 0; i < size; ++i) {
            hash ^= b[i];
            hash *= 1099511628211ull;
        }
    }
    void num(uint64_t v) { bytes(&v, sizeof v); }
    void str(std::string_view s) {
        num(s.size());
        bytes(s.data(), s.size());
    }
};

/// Digest of (kind, text, value, line, parts, diagnostics) for every file
/// of the generated corpus at `seed`, lexed without and with comments.
uint64_t corpus_token_digest(unsigned seed) {
    corpus::CorpusOptions options;
    options.seed = seed;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    Fnv f;
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins)
        for (const corpus::PluginVersionSource* version : {&plugin.v2012, &plugin.v2014})
            for (const auto& [name, text] : version->files)
                for (const bool keep_comments : {false, true}) {
                    SourceFile file(name, text);
                    Arena arena;
                    DiagnosticSink sink;
                    Lexer lexer(file, arena, sink, {keep_comments});
                    const TokenStream tokens = lexer.tokenize();
                    f.str(name);
                    f.num(tokens.size());
                    for (const Token& t : tokens) {
                        f.num(static_cast<uint64_t>(t.kind));
                        f.str(t.text);
                        f.str(t.value);
                        f.num(static_cast<uint64_t>(t.line));
                        f.num(t.parts_count);
                        for (const StringPart& part : tokens.parts_of(t)) {
                            f.num(static_cast<uint64_t>(part.kind));
                            f.str(part.text);
                        }
                    }
                    f.num(sink.diagnostics().size());
                    for (const Diagnostic& d : sink.diagnostics()) {
                        f.num(static_cast<uint64_t>(d.severity));
                        f.num(static_cast<uint64_t>(d.location.line));
                        f.str(d.message);
                    }
                }
    return f.hash;
}

// The constants were recorded with the table-walk lexer this one replaced;
// any change to what the lexer emits for plugin code moves them.
TEST(LexerCorpusTest, TokenStreamMatchesRecordedDigestAtSeed2015) {
    EXPECT_EQ(corpus_token_digest(2015), 0x192de3a412cfa4e6ull);
}

TEST(LexerCorpusTest, TokenStreamMatchesRecordedDigestAtSeed31) {
    EXPECT_EQ(corpus_token_digest(31), 0x62b9eebcbbc90332ull);
}

// -- operators against a brute-force oracle ---------------------------------

struct OracleOp {
    std::string_view text;
    TokenKind kind;
};

/// Every multi-character operator, as the table-walk lexer listed them.
constexpr std::array<OracleOp, 34> kMultiCharOps = {{
    {"<<=", TokenKind::kShlEq}, {">>=", TokenKind::kShrEq},
    {"**=", TokenKind::kPowEq}, {"===", TokenKind::kIdentical},
    {"!==", TokenKind::kNotIdentical}, {"<=>", TokenKind::kSpaceship},
    {"?\?=", TokenKind::kCoalesceEq}, {"...", TokenKind::kEllipsis},
    {"?->", TokenKind::kNullsafeArrow},
    {"->", TokenKind::kArrow}, {"::", TokenKind::kDoubleColon},
    {"=>", TokenKind::kDoubleArrow}, {"++", TokenKind::kInc},
    {"--", TokenKind::kDec}, {"**", TokenKind::kPow},
    {"==", TokenKind::kEq}, {"!=", TokenKind::kNotEq},
    {"<>", TokenKind::kNotEq}, {"<=", TokenKind::kLtEq},
    {">=", TokenKind::kGtEq}, {"&&", TokenKind::kAndAnd},
    {"||", TokenKind::kOrOr}, {"??", TokenKind::kCoalesce},
    {"<<", TokenKind::kShiftLeft}, {">>", TokenKind::kShiftRight},
    {"+=", TokenKind::kPlusEq}, {"-=", TokenKind::kMinusEq},
    {".=", TokenKind::kConcatEq},
    {"*=", TokenKind::kMulEq}, {"/=", TokenKind::kDivEq},
    {"%=", TokenKind::kModEq}, {"&=", TokenKind::kAndEq},
    {"|=", TokenKind::kOrEq}, {"^=", TokenKind::kXorEq},
}};

TokenKind single_char_kind(char c) {
    switch (c) {
        case '<': return TokenKind::kLt;
        case '>': return TokenKind::kGt;
        case '=': return TokenKind::kAssign;
        case '!': return TokenKind::kNot;
        case '?': return TokenKind::kQuestion;
        case '*': return TokenKind::kStar;
        case '.': return TokenKind::kDot;
        case '-': return TokenKind::kMinus;
        case ':': return TokenKind::kColon;
        case '+': return TokenKind::kPlus;
        case '&': return TokenKind::kAmp;
        case '|': return TokenKind::kPipe;
        case '/': return TokenKind::kSlash;
        case '%': return TokenKind::kPercent;
        case '^': return TokenKind::kCaret;
        case '~': return TokenKind::kTilde;
        case '@': return TokenKind::kAt;
        case '$': return TokenKind::kDollar;
        default: return TokenKind::kBackslash;
    }
}

/// (kind, length) of each operator in `s` by longest match over the table.
std::vector<std::pair<TokenKind, size_t>> oracle_ops(std::string_view s) {
    std::vector<std::pair<TokenKind, size_t>> out;
    while (!s.empty()) {
        std::pair<TokenKind, size_t> best{single_char_kind(s[0]), 1};
        for (const OracleOp& op : kMultiCharOps)
            if (op.text.size() > best.second && s.substr(0, op.text.size()) == op.text)
                best = {op.kind, op.text.size()};
        out.push_back(best);
        s.remove_prefix(best.second);
    }
    return out;
}

TEST(LexerOperatorTest, EveryShortOperatorStringLexesAsLongestTableMatch) {
    constexpr std::string_view kAlphabet = "<>=!?*.-:+&|/%^~@$\\";
    std::vector<std::string> inputs;
    for (const char a : kAlphabet) {
        inputs.emplace_back(1, a);
        for (const char b : kAlphabet) {
            inputs.push_back({a, b});
            for (const char c : kAlphabet) inputs.push_back({a, b, c});
        }
    }
    size_t checked = 0;
    for (const std::string& ops : inputs) {
        // Comments, close tags and heredocs start with operator bytes but
        // are not operators; the oracle does not model them.
        if (ops.find("//") != std::string::npos || ops.find("/*") != std::string::npos ||
            ops.find("?>") != std::string::npos || ops.find("<<<") != std::string::npos)
            continue;
        const auto tokens = lex("<?php " + ops);
        std::vector<std::pair<TokenKind, size_t>> lexed;
        for (size_t i = 1; i + 1 < tokens.size(); ++i)
            lexed.emplace_back(tokens[i].kind, tokens[i].text.size());
        EXPECT_EQ(lexed, oracle_ops(ops)) << "input: " << ops;
        ++checked;
    }
    EXPECT_GT(checked, 6000u);
}

// -- truncated and hostile input --------------------------------------------

std::string escaped(std::string_view s) {
    if (s.size() > 48) return "<" + std::to_string(s.size()) + " bytes>";
    std::string out;
    for (const unsigned char c : s) {
        if (c < 0x20 || c >= 0x7f || c == '\\' || c == '"') {
            char hex[8];
            std::snprintf(hex, sizeof hex, "\\x%02x", c);
            out += hex;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

/// One line per file: kind'text'=value@line{parts} per token, then
/// "| severity@line message" per diagnostic.
std::string dump(const std::string& code, bool keep_comments = false) {
    SourceFile file("t.php", code);
    Arena arena;
    DiagnosticSink sink;
    Lexer lexer(file, arena, sink, {keep_comments});
    const TokenStream tokens = lexer.tokenize();
    std::string out;
    for (const Token& t : tokens) {
        out += std::string(to_string(t.kind)) + "'" + escaped(t.text) + "'";
        if (!t.value.empty()) out += "=" + escaped(t.value);
        if (t.line != 1) out += "@" + std::to_string(t.line);
        for (const StringPart& p : tokens.parts_of(t))
            out += (p.kind == StringPart::Kind::kLiteral ? "{L:" : "{E:") + escaped(p.text) + "}";
        out += " ";
    }
    for (const Diagnostic& d : sink.diagnostics())
        out += "| " + to_string(d.severity) + "@" + std::to_string(d.location.line) + " " +
               escaped(d.message) + " ";
    return out;
}

// Expected dumps are the output of the table-walk lexer this one replaced.
TEST(LexerBoundaryTest, EveryMultiBytePrefixLexesAsTheLastByte) {
    const std::pair<std::string, std::string> cases[] = {
        {"<?php ?", "open_tag'<?php' ?'?' eof'' "},
        {"<?php <<", "open_tag'<?php' <<'<<' eof'' "},
        {"<?php -", "open_tag'<?php' -'-' eof'' "},
        {"<?php #", "open_tag'<?php' eof'' "},
        {"<?php /", "open_tag'<?php' /'/' eof'' "},
        {"<?php (int", "open_tag'<?php' ('(' identifier'int' eof'' "},
        {"<?php <<<", "open_tag'<?php' heredoc'' eof'' | error@1 unterminated heredoc '' "},
        {"<?php <<< ", "open_tag'<?php' heredoc'' eof'' | error@1 unterminated heredoc '' "},
        {"<?php $", "open_tag'<?php' $'$' eof'' "},
        {"<?php .", "open_tag'<?php' .'.' eof'' "},
        {"<?php <", "open_tag'<?php' <'<' eof'' "},
        {"<?php ??", "open_tag'<?php' ?\?'?\?' eof'' "},
        {"<?php ?-", "open_tag'<?php' ?'?' -'-' eof'' "},
        {"<?php ..", "open_tag'<?php' .'.' .'.' eof'' "},
        {"abc<?", "inline_html'abc' open_tag'<?' eof'' "},
        {"abc<", "inline_html'abc<' eof'' "},
        {"<?php 'abc",
         "open_tag'<?php' sq_string''abc'=abc eof'' | error@1 unterminated string literal "},
        {"<?php \"abc\\",
         "open_tag'<?php' dq_string'\\x22abc\\x5c'=abc\\x5c{L:abc\\x5c} eof'' "
         "| error@1 unterminated string literal "},
        {"<?php /*", "open_tag'<?php' eof'' | warning@1 unterminated block comment "},
        {"<?php /* *", "open_tag'<?php' eof'' | warning@1 unterminated block comment "},
        {"<?php #[", "open_tag'<?php' eof'' "},
        {"<?php 0x", "open_tag'<?php' int'0x' eof'' "},
        {"<?php 1e", "open_tag'<?php' int'1' identifier'e' eof'' "},
        {"<?php 1e+", "open_tag'<?php' int'1' identifier'e' +'+' eof'' "},
        {"<?php 1.", "open_tag'<?php' int'1' .'.' eof'' "},
        {"<?php ?>", "open_tag'<?php' close_tag'?>' eof'' "},
        {"<?php ?>\n", "open_tag'<?php' close_tag'?>' eof''@2 "},
        {"<?php ( INT )$x", "open_tag'<?php' cast'( INT )'=int variable'$x' eof'' "},
        {"<?php \"a $",
         "open_tag'<?php' dq_string'\\x22a $'=a ${L:a $} eof'' "
         "| error@1 unterminated string literal "},
        {"<?php \"{$a",
         "open_tag'<?php' dq_string'\\x22{$a'{E:$a} eof'' | error@1 unterminated string literal "},
        {"<?php \"${a",
         "open_tag'<?php' dq_string'\\x22${a'{E:$a} eof'' | error@1 unterminated string literal "},
        {"<?php \"$a[b\"", "open_tag'<?php' dq_string'\\x22$a[b\\x22'=[b{E:$a}{L:[b} eof'' "},
        {"<?php \"$a->\"", "open_tag'<?php' dq_string'\\x22$a->\\x22'=->{E:$a}{L:->} eof'' "},
    };
    for (const auto& [code, expected] : cases) EXPECT_EQ(dump(code), expected) << code;
    EXPECT_EQ(dump("<?php #", true), "open_tag'<?php' comment'#' eof'' ");
    EXPECT_EQ(dump("<?php /* *", true),
              "open_tag'<?php' comment'/* *' eof'' | warning@1 unterminated block comment ");
}

TEST(LexerBoundaryTest, NulBytesWarnAndLexingGoesOn) {
    EXPECT_EQ(dump(std::string("<?php $a\0$b;\0", 14)),
              "open_tag'<?php' variable'$a' @'\\x00' variable'$b' ;';' @'\\x00' @'\\x00' eof'' "
              "| warning@1 unexpected character '\\x00' "
              "| warning@1 unexpected character '\\x00' "
              "| warning@1 unexpected character '\\x00' ");
    EXPECT_EQ(dump(std::string("a\0b<?php $c", 11)),
              "inline_html'a\\x00b' open_tag'<?php' variable'$c' eof'' ");
    EXPECT_EQ(dump("<?php \x01\x7f\x0b\x0c;"),
              "open_tag'<?php' @'\\x01' @'\\x7f' ;';' eof'' "
              "| warning@1 unexpected character '\\x01' "
              "| warning@1 unexpected character '\\x7f' ");
}

TEST(LexerBoundaryTest, HighBytesAreIdentifierCharacters) {
    EXPECT_EQ(dump("<?php $caf\xc3\xa9 = fun\xc3\xa7(\xff);"),
              "open_tag'<?php' variable'$caf\\xc3\\xa9' ='=' identifier'fun\\xc3\\xa7' "
              "('(' identifier'\\xff' )')' ;';' eof'' ");
    EXPECT_EQ(dump("<?php \xe2\x82\xac IF Echo"),
              "open_tag'<?php' identifier'\\xe2\\x82\\xac' keyword'if' keyword'echo' eof'' ");
}

TEST(LexerBoundaryTest, OneMegabyteLine) {
    const std::string big(1 << 20, 'a');
    EXPECT_EQ(dump("<?php $x = '" + big + "';"),
              "open_tag'<?php' variable'$x' ='=' sq_string'<1048578 bytes>'=<1048576 bytes> "
              ";';' eof'' ");
    EXPECT_EQ(dump(big + "<?php"), "inline_html'<1048576 bytes>' open_tag'<?php' eof'' ");
    EXPECT_EQ(dump("<?php //" + big), "open_tag'<?php' eof'' ");
    EXPECT_EQ(dump("<?php //" + big, true), "open_tag'<?php' comment'<1048578 bytes>' eof'' ");

    // One line of 350k tokens: `$x = $a.$a. … $a;`.
    std::string chain = "<?php $x = ";
    size_t terms = 0;
    for (; chain.size() < big.size(); ++terms) chain += "$a.";
    chain += "$a;";
    const auto tokens = lex(chain);
    ASSERT_EQ(tokens.size(), 2 * terms + 6);
    for (size_t i = 0; i < terms; ++i) {
        ASSERT_EQ(tokens[3 + 2 * i].text, "$a");
        ASSERT_EQ(tokens[4 + 2 * i].kind, TokenKind::kDot);
    }
    EXPECT_EQ(tokens[tokens.size() - 2].kind, TokenKind::kSemicolon);
    EXPECT_EQ(tokens.back().line, 1);
}

}  // namespace
}  // namespace phpsafe::php
