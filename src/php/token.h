// Token taxonomy for the PHP lexer. Kinds mirror the PHP interpreter's
// token_get_all() taxonomy (T_VARIABLE, T_OBJECT_OPERATOR, ...) that the
// paper's model-construction stage is built on, with two simplifications:
//  * interpolated double-quoted strings / heredocs are one token carrying a
//    structured part list instead of an ENCAPSED token run;
//  * one-character punctuation is a kind per character family.
//
// Tokens are plain 48-byte values. `text` and `value` are string_views into
// the SourceFile's retained text whenever the lexeme needs no
// transformation, into the per-file Arena when it does (decoded escapes,
// synthesized interpolation expressions), and into static storage for the
// lowercase spelling of a keyword or cast written with capitals. A keyword
// token also carries its Keyword, so the parser switches on an enum instead
// of comparing strings. Interpolation parts live in one side vector of the
// TokenStream; a token holds only its range there.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/source.h"

namespace phpsafe::php {

enum class TokenKind : std::uint8_t {
    kEndOfFile,
    kInlineHtml,        ///< text outside <?php ... ?>
    kOpenTag,           ///< "<?php"
    kOpenTagWithEcho,   ///< "<?="
    kCloseTag,          ///< "?>"

    kVariable,          ///< $name (text keeps the '$')
    kIdentifier,        ///< T_STRING: function/class/const names, true/false/null
    kKeyword,           ///< reserved word (text is the lowercase keyword)

    kIntLiteral,
    kFloatLiteral,
    kSingleQuotedString, ///< value() holds the decoded contents
    kDoubleQuotedString, ///< may carry interpolation parts
    kHeredoc,            ///< behaves like kDoubleQuotedString
    kNowdoc,             ///< behaves like kSingleQuotedString
    kComment,            ///< only emitted when Lexer::Options::keep_comments

    kCast,               ///< "(int)" etc.; value() holds the cast name

    // Multi-character operators.
    kArrow,              ///< ->
    kNullsafeArrow,      ///< ?->
    kDoubleColon,        ///< ::
    kDoubleArrow,        ///< =>
    kInc,                ///< ++
    kDec,                ///< --
    kPow,                ///< **
    kEq, kNotEq,         ///< == !=  (also <>)
    kIdentical, kNotIdentical, ///< === !==
    kSpaceship,          ///< <=>
    kLtEq, kGtEq,        ///< <= >=
    kAndAnd, kOrOr,      ///< && ||
    kCoalesce,           ///< ??
    kShiftLeft, kShiftRight, ///< << >>
    kPlusEq, kMinusEq, kMulEq, kDivEq, kConcatEq, kModEq, kPowEq,
    kAndEq, kOrEq, kXorEq, kShlEq, kShrEq, kCoalesceEq,
    kEllipsis,           ///< ...

    // Single-character punctuation.
    kPlus, kMinus, kStar, kSlash, kPercent, kDot,
    kAssign,             ///< =
    kLt, kGt,
    kNot,                ///< !
    kQuestion, kColon, kSemicolon, kComma,
    kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
    kAmp, kPipe, kCaret, kTilde, kAt, kDollar, kBacktick, kBackslash,
};

const char* to_string(TokenKind kind);

/// PHP's reserved words, one X(enumerator, lowercase spelling) per keyword.
#define PHPSAFE_PHP_KEYWORDS(X) \
    X(kAbstract, "abstract") \
    X(kAnd, "and") \
    X(kArray, "array") \
    X(kAs, "as") \
    X(kBreak, "break") \
    X(kCallable, "callable") \
    X(kCase, "case") \
    X(kCatch, "catch") \
    X(kClass, "class") \
    X(kClone, "clone") \
    X(kConst, "const") \
    X(kContinue, "continue") \
    X(kDeclare, "declare") \
    X(kDefault, "default") \
    X(kDie, "die") \
    X(kDo, "do") \
    X(kEcho, "echo") \
    X(kElse, "else") \
    X(kElseif, "elseif") \
    X(kEmpty, "empty") \
    X(kEnddeclare, "enddeclare") \
    X(kEndfor, "endfor") \
    X(kEndforeach, "endforeach") \
    X(kEndif, "endif") \
    X(kEndswitch, "endswitch") \
    X(kEndwhile, "endwhile") \
    X(kEval, "eval") \
    X(kExit, "exit") \
    X(kExtends, "extends") \
    X(kFinal, "final") \
    X(kFinally, "finally") \
    X(kFn, "fn") \
    X(kFor, "for") \
    X(kForeach, "foreach") \
    X(kFunction, "function") \
    X(kGlobal, "global") \
    X(kGoto, "goto") \
    X(kIf, "if") \
    X(kImplements, "implements") \
    X(kInclude, "include") \
    X(kIncludeOnce, "include_once") \
    X(kInstanceof, "instanceof") \
    X(kInsteadof, "insteadof") \
    X(kInterface, "interface") \
    X(kIsset, "isset") \
    X(kList, "list") \
    X(kMatch, "match") \
    X(kNamespace, "namespace") \
    X(kNew, "new") \
    X(kOr, "or") \
    X(kPrint, "print") \
    X(kPrivate, "private") \
    X(kProtected, "protected") \
    X(kPublic, "public") \
    X(kReadonly, "readonly") \
    X(kRequire, "require") \
    X(kRequireOnce, "require_once") \
    X(kReturn, "return") \
    X(kStatic, "static") \
    X(kSwitch, "switch") \
    X(kThrow, "throw") \
    X(kTrait, "trait") \
    X(kTry, "try") \
    X(kUnset, "unset") \
    X(kUse, "use") \
    X(kVar, "var") \
    X(kWhile, "while") \
    X(kXor, "xor") \
    X(kYield, "yield")

enum class Keyword : std::uint8_t {
    kNone,  ///< the token is not a keyword
#define PHPSAFE_KEYWORD_ENUM(name, text) name,
    PHPSAFE_PHP_KEYWORDS(PHPSAFE_KEYWORD_ENUM)
#undef PHPSAFE_KEYWORD_ENUM
};

/// The keyword's lowercase spelling ("" for kNone).
std::string_view to_string(Keyword keyword) noexcept;

/// The keyword `word` spells in any letter case, or kNone. Allocates nothing.
Keyword keyword_of(std::string_view word) noexcept;

/// One piece of an interpolated string: either literal text or an embedded
/// expression kept as raw PHP source (re-parsed by the parser on demand).
struct StringPart {
    enum class Kind { kLiteral, kExpression } kind = Kind::kLiteral;
    std::string_view text;  ///< literal contents or raw expression source
};

struct Token {
    std::string_view text;          ///< raw lexeme (keyword text is lowercased)
    std::string_view value;         ///< decoded value for strings / cast name
    /// Interpolation parts (strings only): a range of TokenStream::parts.
    std::uint32_t parts_begin = 0;
    std::uint32_t parts_count = 0;
    int line = 0;
    TokenKind kind = TokenKind::kEndOfFile;
    Keyword keyword = Keyword::kNone;  ///< set exactly when kind is kKeyword
    /// True if the string token interpolates at least one expression.
    bool interpolates = false;

    bool is_keyword(Keyword kw) const noexcept { return keyword == kw; }
    bool has_interpolation() const noexcept { return interpolates; }
};
static_assert(sizeof(Token) <= 48, "Token is a plain value the parser scans by the million");

/// A lexed file: its tokens, ending with kEndOfFile, and the interpolation
/// parts they index. Indexing and iteration reach the tokens.
struct TokenStream {
    std::vector<Token> tokens;
    std::vector<StringPart> parts;

    std::span<const StringPart> parts_of(const Token& token) const noexcept {
        return {parts.data() + token.parts_begin, token.parts_count};
    }
    size_t size() const noexcept { return tokens.size(); }
    const Token& operator[](size_t i) const noexcept { return tokens[i]; }
    const Token& back() const noexcept { return tokens.back(); }
    auto begin() const noexcept { return tokens.begin(); }
    auto end() const noexcept { return tokens.end(); }
};

}  // namespace phpsafe::php
