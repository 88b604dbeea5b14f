#include "php/lexer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>

#include "obs/counters.h"
#include "util/strings.h"

namespace phpsafe::php {

namespace {

/// Byte classes, one bit each, looked up in kByteClass. The sets are those
/// of the C locale, so no locale state is consulted.
enum : std::uint8_t {
    kIdentStart = 1 << 0,  ///< [A-Za-z_] and every byte >= 0x80
    kIdentChar = 1 << 1,   ///< kIdentStart plus [0-9]
    kSpace = 1 << 2,       ///< ' ', \t, \n, \v, \f, \r
    kDigit = 1 << 3,       ///< [0-9]
    kHexDigit = 1 << 4,    ///< [0-9A-Fa-f]
    kAlpha = 1 << 5,       ///< [A-Za-z]
};

constexpr std::array<std::uint8_t, 256> kByteClass = [] {
    std::array<std::uint8_t, 256> table{};
    for (int c = 0; c < 256; ++c) {
        const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
        const bool digit = c >= '0' && c <= '9';
        std::uint8_t bits = 0;
        if (alpha) bits |= kAlpha;
        if (digit) bits |= kDigit | kIdentChar | kHexDigit;
        if ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')) bits |= kHexDigit;
        if (alpha || c == '_' || c >= 0x80) bits |= kIdentStart | kIdentChar;
        if (c == ' ' || (c >= '\t' && c <= '\r')) bits |= kSpace;
        table[c] = bits;
    }
    return table;
}();

constexpr bool in_class(char c, std::uint8_t bits) noexcept {
    return (kByteClass[static_cast<unsigned char>(c)] & bits) != 0;
}
constexpr bool is_ident_start(char c) noexcept { return in_class(c, kIdentStart); }
constexpr bool is_ident_char(char c) noexcept { return in_class(c, kIdentChar); }
constexpr bool is_digit(char c) noexcept { return in_class(c, kDigit); }

constexpr char fold(char c) noexcept {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

int hex_value(char c) noexcept {
    if (c <= '9') return c - '0';
    return fold(c) - 'a' + 10;
}

// --- keywords -------------------------------------------------------------

constexpr std::string_view kKeywordText[] = {
    "",
#define PHPSAFE_KEYWORD_TEXT(name, text) text,
    PHPSAFE_PHP_KEYWORDS(PHPSAFE_KEYWORD_TEXT)
#undef PHPSAFE_KEYWORD_TEXT
};

constexpr size_t kMaxKeywordSize = [] {
    size_t longest = 0;
    for (const std::string_view kw : kKeywordText) longest = std::max(longest, kw.size());
    return longest;
}();

/// Hash of a lowercase word of at least two bytes. The multipliers were
/// chosen so that no two keywords share a slot; kKeywordSlots fails to
/// compile if an edit to the keyword list breaks that.
constexpr unsigned keyword_hash(const char* word, size_t size) noexcept {
    const auto byte = [&](size_t i) { return static_cast<unsigned char>(word[i]); };
    return (byte(0) * 62u + byte(size - 1) * 16u + static_cast<unsigned>(size) * 9u +
            byte(1)) & 255u;
}

constexpr std::array<Keyword, 256> kKeywordSlots = [] {
    std::array<Keyword, 256> slots{};
    for (size_t k = 1; k < std::size(kKeywordText); ++k) {
        const unsigned h = keyword_hash(kKeywordText[k].data(), kKeywordText[k].size());
        if (slots[h] != Keyword::kNone) throw "two keywords share a hash slot";
        slots[h] = static_cast<Keyword>(k);
    }
    return slots;
}();

/// The lowercase cast name `name` spells in any letter case, or "".
std::string_view cast_name_of(std::string_view name) noexcept {
    static constexpr std::string_view kCasts[] = {
        "int", "integer", "bool", "boolean", "float", "double", "real",
        "string", "array", "object", "unset", "binary",
    };
    for (const std::string_view cast : kCasts)
        if (folded_compare(name, cast) == 0) return cast;
    return {};
}

struct Op {
    TokenKind kind;
    size_t size;  ///< 0: no operator starts with the byte
};

/// The longest operator that starts with the bytes c, c1, c2 (c1 and c2
/// read '\0' past the end of the text, and no operator contains it). An
/// unknown byte yields the placeholder kAt with size 0.
constexpr Op operator_at(char c, char c1, char c2) noexcept {
    using K = TokenKind;
    switch (c) {
        case '<':
            if (c1 == '<') return c2 == '=' ? Op{K::kShlEq, 3} : Op{K::kShiftLeft, 2};
            if (c1 == '=') return c2 == '>' ? Op{K::kSpaceship, 3} : Op{K::kLtEq, 2};
            if (c1 == '>') return {K::kNotEq, 2};
            return {K::kLt, 1};
        case '>':
            if (c1 == '>') return c2 == '=' ? Op{K::kShrEq, 3} : Op{K::kShiftRight, 2};
            if (c1 == '=') return {K::kGtEq, 2};
            return {K::kGt, 1};
        case '*':
            if (c1 == '*') return c2 == '=' ? Op{K::kPowEq, 3} : Op{K::kPow, 2};
            if (c1 == '=') return {K::kMulEq, 2};
            return {K::kStar, 1};
        case '=':
            if (c1 == '=') return c2 == '=' ? Op{K::kIdentical, 3} : Op{K::kEq, 2};
            if (c1 == '>') return {K::kDoubleArrow, 2};
            return {K::kAssign, 1};
        case '!':
            if (c1 == '=') return c2 == '=' ? Op{K::kNotIdentical, 3} : Op{K::kNotEq, 2};
            return {K::kNot, 1};
        case '?':
            if (c1 == '?') return c2 == '=' ? Op{K::kCoalesceEq, 3} : Op{K::kCoalesce, 2};
            if (c1 == '-' && c2 == '>') return {K::kNullsafeArrow, 3};
            return {K::kQuestion, 1};
        case '.':
            if (c1 == '.' && c2 == '.') return {K::kEllipsis, 3};
            if (c1 == '=') return {K::kConcatEq, 2};
            return {K::kDot, 1};
        case '-':
            if (c1 == '>') return {K::kArrow, 2};
            if (c1 == '-') return {K::kDec, 2};
            if (c1 == '=') return {K::kMinusEq, 2};
            return {K::kMinus, 1};
        case '+':
            if (c1 == '+') return {K::kInc, 2};
            if (c1 == '=') return {K::kPlusEq, 2};
            return {K::kPlus, 1};
        case '&':
            if (c1 == '&') return {K::kAndAnd, 2};
            if (c1 == '=') return {K::kAndEq, 2};
            return {K::kAmp, 1};
        case '|':
            if (c1 == '|') return {K::kOrOr, 2};
            if (c1 == '=') return {K::kOrEq, 2};
            return {K::kPipe, 1};
        case ':': return c1 == ':' ? Op{K::kDoubleColon, 2} : Op{K::kColon, 1};
        case '/': return c1 == '=' ? Op{K::kDivEq, 2} : Op{K::kSlash, 1};
        case '%': return c1 == '=' ? Op{K::kModEq, 2} : Op{K::kPercent, 1};
        case '^': return c1 == '=' ? Op{K::kXorEq, 2} : Op{K::kCaret, 1};
        case ';': return {K::kSemicolon, 1};
        case ',': return {K::kComma, 1};
        case '(': return {K::kLParen, 1};
        case ')': return {K::kRParen, 1};
        case '{': return {K::kLBrace, 1};
        case '}': return {K::kRBrace, 1};
        case '[': return {K::kLBracket, 1};
        case ']': return {K::kRBracket, 1};
        case '~': return {K::kTilde, 1};
        case '@': return {K::kAt, 1};
        case '$': return {K::kDollar, 1};
        case '`': return {K::kBacktick, 1};
        case '\\': return {K::kBackslash, 1};
        default: return {K::kAt, 0};
    }
}

/// Decodes escape sequences of a single-quoted string body.
std::string decode_single_quoted(std::string_view body) {
    std::string out;
    out.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] == '\\' && i + 1 < body.size() &&
            (body[i + 1] == '\\' || body[i + 1] == '\'')) {
            out.push_back(body[++i]);
        } else {
            out.push_back(body[i]);
        }
    }
    return out;
}

/// Decodes escape sequences of a double-quoted string literal segment.
std::string decode_double_quoted(std::string_view body) {
    std::string out;
    out.reserve(body.size());
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] != '\\' || i + 1 >= body.size()) {
            out.push_back(body[i]);
            continue;
        }
        const char c = body[++i];
        switch (c) {
            case 'n': out.push_back('\n'); break;
            case 't': out.push_back('\t'); break;
            case 'r': out.push_back('\r'); break;
            case 'v': out.push_back('\v'); break;
            case 'f': out.push_back('\f'); break;
            case 'e': out.push_back('\x1b'); break;
            case '\\': out.push_back('\\'); break;
            case '$': out.push_back('$'); break;
            case '"': out.push_back('"'); break;
            case 'x': {
                int value = 0, digits = 0;
                while (digits < 2 && i + 1 < body.size() && in_class(body[i + 1], kHexDigit)) {
                    value = value * 16 + hex_value(body[++i]);
                    ++digits;
                }
                if (digits == 0) {
                    out.push_back('\\');
                    out.push_back('x');
                } else {
                    out.push_back(static_cast<char>(value));
                }
                break;
            }
            default:
                if (c >= '0' && c <= '7') {
                    int value = c - '0', digits = 1;
                    while (digits < 3 && i + 1 < body.size() && body[i + 1] >= '0' &&
                           body[i + 1] <= '7') {
                        value = value * 8 + (body[++i] - '0');
                        ++digits;
                    }
                    out.push_back(static_cast<char>(value & 0xFF));
                } else {
                    out.push_back('\\');
                    out.push_back(c);
                }
        }
    }
    return out;
}

}  // namespace

std::string_view to_string(Keyword keyword) noexcept {
    return kKeywordText[static_cast<size_t>(keyword)];
}

Keyword keyword_of(std::string_view word) noexcept {
    if (word.size() < 2 || word.size() > kMaxKeywordSize) return Keyword::kNone;
    char folded[kMaxKeywordSize];
    for (size_t i = 0; i < word.size(); ++i) folded[i] = fold(word[i]);
    const Keyword kw = kKeywordSlots[keyword_hash(folded, word.size())];
    return to_string(kw) == std::string_view(folded, word.size()) ? kw : Keyword::kNone;
}

const char* to_string(TokenKind kind) {
    switch (kind) {
        case TokenKind::kEndOfFile: return "eof";
        case TokenKind::kInlineHtml: return "inline_html";
        case TokenKind::kOpenTag: return "open_tag";
        case TokenKind::kOpenTagWithEcho: return "open_tag_with_echo";
        case TokenKind::kCloseTag: return "close_tag";
        case TokenKind::kVariable: return "variable";
        case TokenKind::kIdentifier: return "identifier";
        case TokenKind::kKeyword: return "keyword";
        case TokenKind::kIntLiteral: return "int";
        case TokenKind::kFloatLiteral: return "float";
        case TokenKind::kSingleQuotedString: return "sq_string";
        case TokenKind::kDoubleQuotedString: return "dq_string";
        case TokenKind::kHeredoc: return "heredoc";
        case TokenKind::kNowdoc: return "nowdoc";
        case TokenKind::kComment: return "comment";
        case TokenKind::kCast: return "cast";
        case TokenKind::kArrow: return "->";
        case TokenKind::kNullsafeArrow: return "?->";
        case TokenKind::kDoubleColon: return "::";
        case TokenKind::kDoubleArrow: return "=>";
        case TokenKind::kInc: return "++";
        case TokenKind::kDec: return "--";
        case TokenKind::kPow: return "**";
        case TokenKind::kEq: return "==";
        case TokenKind::kNotEq: return "!=";
        case TokenKind::kIdentical: return "===";
        case TokenKind::kNotIdentical: return "!==";
        case TokenKind::kSpaceship: return "<=>";
        case TokenKind::kLtEq: return "<=";
        case TokenKind::kGtEq: return ">=";
        case TokenKind::kAndAnd: return "&&";
        case TokenKind::kOrOr: return "||";
        case TokenKind::kCoalesce: return "??";
        case TokenKind::kShiftLeft: return "<<";
        case TokenKind::kShiftRight: return ">>";
        case TokenKind::kPlusEq: return "+=";
        case TokenKind::kMinusEq: return "-=";
        case TokenKind::kMulEq: return "*=";
        case TokenKind::kDivEq: return "/=";
        case TokenKind::kConcatEq: return ".=";
        case TokenKind::kModEq: return "%=";
        case TokenKind::kPowEq: return "**=";
        case TokenKind::kAndEq: return "&=";
        case TokenKind::kOrEq: return "|=";
        case TokenKind::kXorEq: return "^=";
        case TokenKind::kShlEq: return "<<=";
        case TokenKind::kShrEq: return ">>=";
        case TokenKind::kCoalesceEq: return "?\?=";
        case TokenKind::kEllipsis: return "...";
        case TokenKind::kPlus: return "+";
        case TokenKind::kMinus: return "-";
        case TokenKind::kStar: return "*";
        case TokenKind::kSlash: return "/";
        case TokenKind::kPercent: return "%";
        case TokenKind::kDot: return ".";
        case TokenKind::kAssign: return "=";
        case TokenKind::kLt: return "<";
        case TokenKind::kGt: return ">";
        case TokenKind::kNot: return "!";
        case TokenKind::kQuestion: return "?";
        case TokenKind::kColon: return ":";
        case TokenKind::kSemicolon: return ";";
        case TokenKind::kComma: return ",";
        case TokenKind::kLParen: return "(";
        case TokenKind::kRParen: return ")";
        case TokenKind::kLBrace: return "{";
        case TokenKind::kRBrace: return "}";
        case TokenKind::kLBracket: return "[";
        case TokenKind::kRBracket: return "]";
        case TokenKind::kAmp: return "&";
        case TokenKind::kPipe: return "|";
        case TokenKind::kCaret: return "^";
        case TokenKind::kTilde: return "~";
        case TokenKind::kAt: return "@";
        case TokenKind::kDollar: return "$";
        case TokenKind::kBacktick: return "`";
        case TokenKind::kBackslash: return "\\";
    }
    return "?";
}

Lexer::Lexer(const SourceFile& file, Arena& arena, DiagnosticSink& sink,
             Options options)
    : file_(file),
      text_(file.text()),
      arena_(arena),
      sink_(sink),
      options_(options) {}

void Lexer::skip_to(size_t end) noexcept {
    line_ += static_cast<int>(std::count(text_.begin() + pos_, text_.begin() + end, '\n'));
    pos_ = end;
}

size_t Lexer::ident_end(size_t from) const noexcept {
    while (from < text_.size() && is_ident_char(text_[from])) ++from;
    return from;
}

TokenStream Lexer::tokenize() {
    // Plugin code averages one token per ~6 source bytes; one up-front
    // reservation replaces the dozen-plus geometric growth reallocations a
    // multi-thousand-token file would otherwise pay.
    out_.tokens.reserve(text_.size() / 6 + 16);
    while (!at_end()) {
        if (mode_ == Mode::kHtml) {
            lex_html();
        } else {
            lex_php_token();
        }
    }
    push(make(TokenKind::kEndOfFile, "", line_));
    obs::Counters& counters = obs::tls();
    counters.tokens_lexed += out_.tokens.size();
    counters.alloc_string_bytes_saved += saved_bytes_;
    return std::move(out_);
}

void Lexer::lex_html() {
    const int start_line = line_;
    const size_t start = pos_;
    skip_to(std::min(text_.find("<?", pos_), text_.size()));
    const std::string_view html = slice(start);
    if (!html.empty()) {
        push(make(TokenKind::kInlineHtml, html, start_line));
        saved_bytes_ += html.size();
    }
    if (at_end()) return;
    TokenKind kind = TokenKind::kOpenTag;
    size_t size = 2;  // short open tag "<?"
    if (peek(2) == 'p' && peek(3) == 'h' && peek(4) == 'p') {
        size = 5;
    } else if (peek(2) == '=') {
        kind = TokenKind::kOpenTagWithEcho;
        size = 3;
    }
    push(make(kind, text_.substr(pos_, size), line_));
    pos_ += size;
    mode_ = Mode::kPhp;
}

void Lexer::lex_php_token() {
    while (!at_end() && in_class(text_[pos_], kSpace)) {
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
    }
    if (at_end()) return;

    const char c = text_[pos_];
    switch (c) {
        case '?':
            if (peek(1) == '>') return lex_close_tag();
            break;
        case '/':
            if (peek(1) == '/' || peek(1) == '*') return lex_comment();
            break;
        case '#':  // "#[" opens a PHP 8 attribute; anything else a comment
            if (peek(1) == '[') return skip_attribute();
            return lex_comment();
        case '$':
            if (is_ident_start(peek(1))) return push(lex_variable());
            break;
        case '.':
            if (is_digit(peek(1))) return push(lex_number());
            break;
        case '\'':
            return push(lex_single_quoted());
        case '"':
            return push(lex_double_quoted('"', TokenKind::kDoubleQuotedString));
        case '`':
            // Shell-exec operator: lex the body like a double-quoted string so
            // interpolation is visible to the analysis (a potential sink).
            return push(lex_double_quoted('`', TokenKind::kDoubleQuotedString));
        case '<':
            if (peek(1) == '<' && peek(2) == '<') return push(lex_heredoc());
            break;
        case '(':
            if (try_lex_cast()) return;
            break;
        default:
            if (is_ident_start(c)) return push(lex_identifier_or_keyword());
            if (is_digit(c)) return push(lex_number());
            break;
    }
    push(lex_operator());
}

void Lexer::lex_close_tag() {
    push(make(TokenKind::kCloseTag, text_.substr(pos_, 2), line_));
    pos_ += 2;
    // PHP swallows a single newline immediately after the close tag.
    if (peek() == '\n') skip_to(pos_ + 1);
    mode_ = Mode::kHtml;
}

void Lexer::skip_attribute() {
    // Skips to the ']' that closes the attribute's '['.
    size_t p = pos_;
    int depth = 0;
    while (p < text_.size()) {
        const char a = text_[p++];
        if (a == '[') ++depth;
        else if (a == ']' && --depth == 0) break;
    }
    skip_to(p);
}

Token Lexer::lex_variable() {
    const size_t start = pos_;
    pos_ = ident_end(pos_ + 1);  // past the '$'
    Token t = make(TokenKind::kVariable, slice(start), line_);
    saved_bytes_ += t.text.size();
    return t;
}

Token Lexer::lex_identifier_or_keyword() {
    const size_t start = pos_;
    pos_ = ident_end(pos_);
    const std::string_view raw = slice(start);
    const Keyword keyword = keyword_of(raw);
    if (keyword == Keyword::kNone) {
        saved_bytes_ += raw.size();
        return make(TokenKind::kIdentifier, raw, line_);
    }
    // A keyword written in capitals takes its static lowercase spelling.
    const std::string_view lower = to_string(keyword);
    if (lower == raw) saved_bytes_ += raw.size();
    Token t = make(TokenKind::kKeyword, lower == raw ? raw : lower, line_);
    t.keyword = keyword;
    return t;
}

Token Lexer::lex_number() {
    const size_t start = pos_;
    const size_t n = text_.size();
    size_t p = pos_;
    bool is_float = false;
    const auto digits_from = [&](size_t q, std::uint8_t digit_class, bool underscores) {
        while (q < n && (in_class(text_[q], digit_class) || (underscores && text_[q] == '_')))
            ++q;
        return q;
    };
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        p = digits_from(p + 2, kHexDigit, true);
    } else if (peek() == '0' && (peek(1) == 'b' || peek(1) == 'B')) {
        p += 2;
        while (p < n && (text_[p] == '0' || text_[p] == '1' || text_[p] == '_')) ++p;
    } else {
        p = digits_from(p, kDigit, true);
        if (p + 1 < n && text_[p] == '.' && is_digit(text_[p + 1])) {
            is_float = true;
            p = digits_from(p + 1, kDigit, false);
        }
        if (p < n && (text_[p] == 'e' || text_[p] == 'E')) {
            size_t look = p + 1;
            if (look < n && (text_[look] == '+' || text_[look] == '-')) ++look;
            if (look < n && is_digit(text_[look])) {
                is_float = true;
                p = digits_from(look, kDigit, false);
            }
        }
    }
    pos_ = p;
    return make(is_float ? TokenKind::kFloatLiteral : TokenKind::kIntLiteral,
                slice(start), line_);
}

Token Lexer::lex_single_quoted() {
    const int start_line = line_;
    const size_t tok_start = pos_;
    const size_t n = text_.size();
    size_t p = pos_ + 1;  // past the opening quote
    bool terminated = false;
    while (p < n) {
        const char c = text_[p];
        if (c == '\\' && p + 1 < n && (text_[p + 1] == '\\' || text_[p + 1] == '\'')) {
            p += 2;
            continue;
        }
        if (c == '\'') {
            terminated = true;
            break;
        }
        ++p;
    }
    const std::string_view body = text_.substr(tok_start + 1, p - tok_start - 1);
    skip_to(terminated ? p + 1 : p);
    if (!terminated)
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated string literal");
    Token t = make(TokenKind::kSingleQuotedString, slice(tok_start), start_line);
    if (body.find('\\') == std::string_view::npos) {
        t.value = body;  // nothing to decode: reuse the source bytes
        saved_bytes_ += body.size();
    } else {
        t.value = arena_.store(decode_single_quoted(body));
    }
    return t;
}

Token Lexer::lex_double_quoted(char quote, TokenKind kind) {
    const int start_line = line_;
    const size_t tok_start = pos_;
    const size_t n = text_.size();
    size_t p = pos_ + 1;  // past the opening quote
    bool terminated = false;
    while (p < n) {
        const char c = text_[p];
        if (c == '\\' && p + 1 < n) {
            p += 2;
            continue;
        }
        if (c == quote) {
            terminated = true;
            break;
        }
        ++p;
    }
    const std::string_view body = text_.substr(tok_start + 1, p - tok_start - 1);
    skip_to(terminated ? p + 1 : p);
    if (!terminated)
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated string literal");
    Token t = make(kind, slice(tok_start), start_line);
    scan_interpolation(body, t);
    return t;
}

Token Lexer::lex_heredoc() {
    const int start_line = line_;
    const size_t n = text_.size();
    size_t p = pos_ + 3;  // past "<<<"
    while (p < n && (text_[p] == ' ' || text_[p] == '\t')) ++p;
    bool nowdoc = false;
    bool quoted = false;
    if (p < n && text_[p] == '\'') {
        nowdoc = true;
        ++p;
    } else if (p < n && text_[p] == '"') {
        quoted = true;
        ++p;
    }
    const size_t label_start = p;
    p = ident_end(p);
    const std::string_view label = text_.substr(label_start, p - label_start);
    if (p < n && ((nowdoc && text_[p] == '\'') || (quoted && text_[p] == '"'))) ++p;
    // The body starts on the next line.
    pos_ = p;
    skip_to(std::min(text_.find('\n', pos_), n - 1) + 1);

    const size_t body_start = pos_;
    size_t body_end = pos_;
    bool terminated = false;
    while (!at_end()) {
        // Check for terminator at line start (PHP 7.3 allows indentation).
        size_t probe = pos_;
        while (probe < n && (text_[probe] == ' ' || text_[probe] == '\t')) ++probe;
        if (text_.compare(probe, label.size(), label) == 0) {
            const size_t after = probe + label.size();
            if (after >= n || !is_ident_char(text_[after])) {
                body_end = pos_;
                pos_ = after;  // the label line holds no newline before `after`
                terminated = true;
                break;
            }
        }
        skip_to(std::min(text_.find('\n', pos_), n - 1) + 1);  // past one full line
        body_end = pos_;
    }
    if (!terminated)
        sink_.add(Severity::kError, {file_.name(), start_line},
                  "unterminated heredoc '" + std::string(label) + "'");
    std::string_view body = text_.substr(body_start, body_end - body_start);
    if (!body.empty() && body.back() == '\n') body.remove_suffix(1);

    Token t = make(nowdoc ? TokenKind::kNowdoc : TokenKind::kHeredoc, body, start_line);
    if (nowdoc) {
        t.value = body;
        saved_bytes_ += body.size();
    } else {
        scan_interpolation(body, t);
    }
    return t;
}

void Lexer::scan_interpolation(std::string_view body, Token& token) {
    // `body` is a slice of the retained source buffer, so literal runs and
    // embedded-expression sources that need no transformation are kept as
    // subviews; only decoded escapes and synthesized expressions (${name},
    // re-quoted indexes) are copied into the arena.
    std::vector<StringPart>& parts = out_.parts;
    const size_t first_part = parts.size();
    size_t seg_start = 0;
    auto flush_literal = [&](size_t end_pos) {
        if (end_pos <= seg_start) return;
        const std::string_view raw = body.substr(seg_start, end_pos - seg_start);
        StringPart part;
        part.kind = StringPart::Kind::kLiteral;
        if (raw.find('\\') == std::string_view::npos) {
            part.text = raw;
            saved_bytes_ += raw.size();
        } else {
            part.text = arena_.store(decode_double_quoted(raw));
        }
        parts.push_back(part);
    };
    auto add_expr = [&](size_t lit_end, std::string_view expr) {
        flush_literal(lit_end);
        parts.push_back({StringPart::Kind::kExpression, expr});
        token.interpolates = true;
    };

    size_t i = 0;
    while (i < body.size()) {
        const char c = body[i];
        if (c == '\\' && i + 1 < body.size()) {
            i += 2;
            continue;
        }
        // Complex syntax: {$expr}
        if (c == '{' && i + 1 < body.size() && body[i + 1] == '$') {
            size_t j = i + 1;
            int depth = 1;
            while (j < body.size() && depth > 0) {
                if (body[j] == '{') ++depth;
                if (body[j] == '}') {
                    --depth;
                    if (depth == 0) break;
                }
                ++j;
            }
            add_expr(i, body.substr(i + 1, j - (i + 1)));
            saved_bytes_ += j - (i + 1);
            seg_start = i = (j < body.size()) ? j + 1 : j;
            continue;
        }
        // ${name} syntax.
        if (c == '$' && i + 1 < body.size() && body[i + 1] == '{') {
            size_t j = i + 2;
            while (j < body.size() && body[j] != '}') ++j;
            std::string synth = "$";
            synth += body.substr(i + 2, j - (i + 2));
            add_expr(i, arena_.store(synth));
            seg_start = i = (j < body.size()) ? j + 1 : j;
            continue;
        }
        // Simple syntax: $name, $name->prop, $name[index]
        if (c == '$' && i + 1 < body.size() && is_ident_start(body[i + 1])) {
            size_t j = i + 1;
            while (j < body.size() && is_ident_char(body[j])) ++j;
            size_t expr_end = j;
            bool synthesized = false;
            std::string synth;
            if (j + 1 < body.size() && body[j] == '-' && body[j + 1] == '>' &&
                j + 2 < body.size() && is_ident_start(body[j + 2])) {
                j += 2;
                while (j < body.size() && is_ident_char(body[j])) ++j;
                expr_end = j;
            } else if (j < body.size() && body[j] == '[') {
                size_t k = j + 1;
                while (k < body.size() && body[k] != ']') ++k;
                if (k < body.size()) {
                    const std::string_view index = body.substr(j + 1, k - (j + 1));
                    const std::string_view idx = trim(index);
                    const bool numeric =
                        !idx.empty() && std::all_of(idx.begin(), idx.end(), is_digit);
                    if (!idx.empty() && (idx.front() == '\'' || idx.front() == '"' ||
                                         idx.front() == '$' || numeric)) {
                        if (idx.size() == index.size()) {
                            // "$name[idx]" is already verbatim in the source.
                            expr_end = k + 1;
                        } else {
                            synth.assign(body.substr(i, j - i));
                            synth += '[';
                            synth += idx;
                            synth += ']';
                            synthesized = true;
                        }
                    } else {
                        // PHP's simple syntax allows unquoted string keys.
                        synth.assign(body.substr(i, j - i));
                        synth += "['";
                        synth += idx;
                        synth += "']";
                        synthesized = true;
                    }
                    j = k + 1;
                }
            }
            if (synthesized) {
                add_expr(i, arena_.store(synth));
            } else {
                add_expr(i, body.substr(i, expr_end - i));
                saved_bytes_ += expr_end - i;
            }
            seg_start = i = j;
            continue;
        }
        ++i;
    }
    flush_literal(body.size());
    token.parts_begin = static_cast<std::uint32_t>(first_part);
    token.parts_count = static_cast<std::uint32_t>(parts.size() - first_part);

    // The decoded value is the concatenation of literal parts (expressions
    // contribute nothing to the static value). Single-literal tokens — the
    // overwhelmingly common case — reuse the part's view.
    size_t literal_count = 0;
    std::string_view single;
    for (const StringPart& p : out_.parts_of(token)) {
        if (p.kind != StringPart::Kind::kLiteral) continue;
        ++literal_count;
        single = p.text;
    }
    if (literal_count == 0) {
        token.value = {};
    } else if (literal_count == 1) {
        token.value = single;
    } else {
        std::string value;
        for (const StringPart& p : out_.parts_of(token))
            if (p.kind == StringPart::Kind::kLiteral) value += p.text;
        token.value = arena_.store(value);
    }
}

void Lexer::lex_comment() {
    const int start_line = line_;
    const size_t start = pos_;
    if (peek() == '/' && peek(1) == '*') {
        const size_t close = text_.find("*/", pos_ + 2);
        if (close == std::string_view::npos) {
            skip_to(text_.size());
            sink_.add(Severity::kWarning, {file_.name(), start_line},
                      "unterminated block comment");
        } else {
            skip_to(close + 2);
        }
    } else {
        // Line comment ("//" or "#"): ends at newline or before '?>'.
        const size_t body = pos_ + (peek() == '#' ? 1 : 2);
        const std::string_view line =
            text_.substr(body, std::min(text_.find('\n', body), text_.size()) - body);
        pos_ = body + std::min(line.find("?>"), line.size());
    }
    if (options_.keep_comments) {
        Token t = make(TokenKind::kComment, slice(start), start_line);
        saved_bytes_ += t.text.size();
        push(t);
    }
}

bool Lexer::try_lex_cast() {
    // Lookahead: "(" ws* castname ws* ")".
    const size_t n = text_.size();
    const auto blanks_from = [&](size_t q) {
        while (q < n && (text_[q] == ' ' || text_[q] == '\t')) ++q;
        return q;
    };
    size_t probe = blanks_from(pos_ + 1);
    const size_t name_start = probe;
    while (probe < n && in_class(text_[probe], kAlpha)) ++probe;
    const std::string_view name = text_.substr(name_start, probe - name_start);
    probe = blanks_from(probe);
    if (probe >= n || text_[probe] != ')') return false;
    const std::string_view cast = cast_name_of(name);
    if (cast.empty()) return false;

    const size_t tok_start = pos_;
    pos_ = probe + 1;  // blanks and letters only: no newline passed
    Token t = make(TokenKind::kCast, slice(tok_start), line_);
    t.value = cast;
    push(t);
    return true;
}

Token Lexer::lex_operator() {
    const Op op = operator_at(text_[pos_], peek(1), peek(2));
    if (op.size == 0)
        sink_.add(Severity::kWarning, {file_.name(), line_},
                  std::string("unexpected character '") + text_[pos_] + "'");
    const size_t start = pos_;
    pos_ += std::max<size_t>(op.size, 1);  // operators span no newline
    return make(op.kind, slice(start), line_);
}

}  // namespace phpsafe::php
