// Second wave of lexer/parser tests: edge constructs from real plugin code
// — template mixing, odd operators, nested structures, magic constants,
// casts vs parens, and precedence corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "php/lexer.h"
#include "php/parser.h"
#include "util/source.h"

namespace phpsafe::php {
namespace {

/// Owns the source text and arena a parsed unit's nodes point into; kept
/// alive for the whole test run so returned FileUnits never dangle.
struct ParseKeeper {
    explicit ParseKeeper(std::string code)
        : file("edge.php", std::move(code)) {}
    SourceFile file;
    Arena arena;
};

FileUnit parse(const std::string& code) {
    static std::vector<std::unique_ptr<ParseKeeper>> keepers;
    keepers.push_back(std::make_unique<ParseKeeper>(code));
    ParseKeeper& k = *keepers.back();
    DiagnosticSink sink;
    Parser parser(k.file, k.arena, sink);
    return parser.parse();
}

std::string first_stmt(const std::string& code) {
    FileUnit unit = parse("<?php " + code);
    if (unit.statements.empty()) return "<none>";
    return dump(*unit.statements.front());
}

TEST(ParserEdgeTest, NestedTernary) {
    EXPECT_EQ(first_stmt("$x = $a ? 1 : ($b ? 2 : 3);"),
              "(= $x (?: $a 1 (?: $b 2 3)))");
}

TEST(ParserEdgeTest, ChainedMethodCalls) {
    EXPECT_EQ(first_stmt("$db->table('x')->where($c)->get();"),
              "(mcall (mcall (mcall $db table \"x\") where $c) get)");
}

TEST(ParserEdgeTest, ArrayAccessOnMethodResult) {
    EXPECT_EQ(first_stmt("$v = $o->rows()[0];"),
              "(= $v (index (mcall $o rows) 0))");
}

TEST(ParserEdgeTest, NewInParenthesesThenMethod) {
    EXPECT_EQ(first_stmt("$v = (new Widget())->render();"),
              "(= $v (mcall (new Widget) render))");
}

TEST(ParserEdgeTest, NegativeNumbersAndUnaryChains) {
    EXPECT_EQ(first_stmt("$x = -1 + - $y;"), "(= $x (+ (- 1) (- $y)))");
    EXPECT_EQ(first_stmt("$b = !!$a;"), "(= $b (! (! $a)))");
}

TEST(ParserEdgeTest, PowerIsRightAssociative) {
    EXPECT_EQ(first_stmt("$x = 2 ** 3 ** 2;"), "(= $x (** 2 (** 3 2)))");
}

TEST(ParserEdgeTest, CoalesceIsRightAssociative) {
    EXPECT_EQ(first_stmt("$x = $a ?? $b ?? 'd';"),
              "(= $x (?? $a (?? $b \"d\")))");
}

TEST(ParserEdgeTest, ConcatChainsLeftAssociative) {
    EXPECT_EQ(first_stmt("$s = 'a' . 'b' . 'c';"),
              "(= $s (. (. \"a\" \"b\") \"c\"))");
}

TEST(ParserEdgeTest, CastBindsTighterThanConcat) {
    EXPECT_EQ(first_stmt("$s = (int) $a . 'x';"),
              "(= $s (. (cast int $a) \"x\"))");
}

TEST(ParserEdgeTest, ParenthesizedExpressionNotCast) {
    // (int) is a cast; ($int) is a parenthesized variable read... and
    // (intval) would be a constant, not a cast.
    EXPECT_EQ(first_stmt("$x = (5);"), "(= $x 5)");
}

TEST(ParserEdgeTest, MagicConstantsAreConstants) {
    EXPECT_EQ(first_stmt("$f = __FILE__;"), "(= $f __FILE__)");
}

TEST(ParserEdgeTest, KeywordAsMethodName) {
    // `list`, `print`, `unset` are valid method names after ->.
    EXPECT_EQ(first_stmt("$q->list();"), "(mcall $q list)");
    EXPECT_EQ(first_stmt("$q->print($x);"), "(mcall $q print $x)");
}

TEST(ParserEdgeTest, PropertyNamedLikeKeyword) {
    EXPECT_EQ(first_stmt("$v = $o->default;"), "(= $v (prop $o default))");
}

TEST(ParserEdgeTest, DynamicPropertyAccess) {
    EXPECT_EQ(first_stmt("$v = $o->$name;"), "(= $v (prop $o <dyn>))");
}

TEST(ParserEdgeTest, NestedArrayLiterals) {
    EXPECT_EQ(first_stmt("$a = array('k' => array(1, 2), 'j' => [3]);"),
              "(= $a (array [\"k\"]=(array 1 2) [\"j\"]=(array 3)))");
}

TEST(ParserEdgeTest, TrailingCommasAccepted) {
    EXPECT_EQ(first_stmt("$a = array(1, 2,);"), "(= $a (array 1 2))");
    EXPECT_EQ(first_stmt("f($x, $y,);"), "(call f $x $y)");
}

TEST(ParserEdgeTest, ByRefArgument) {
    EXPECT_EQ(first_stmt("preg_match($re, $s, $m);"),
              "(call preg_match $re $s $m)");
}

TEST(ParserEdgeTest, MultipleStatementsPerLine) {
    FileUnit unit = parse("<?php $a = 1; $b = 2; $c = 3;");
    EXPECT_EQ(unit.statements.size(), 3u);
}

TEST(ParserEdgeTest, EmptyClassAndFunction) {
    FileUnit unit = parse("<?php class Empty1 {} function empty2() {}");
    EXPECT_EQ(unit.statements.size(), 2u);
}

TEST(ParserEdgeTest, AbstractClassWithAbstractMethod) {
    FileUnit unit = parse(
        "<?php abstract class A { abstract public function run($x); }");
    const auto& cls = static_cast<const ClassDecl&>(*unit.statements[0]);
    EXPECT_TRUE(cls.is_abstract);
    ASSERT_EQ(cls.methods.size(), 1u);
    EXPECT_TRUE(cls.methods[0]->is_abstract);
    EXPECT_TRUE(cls.methods[0]->body.empty());
}

TEST(ParserEdgeTest, FinalClass) {
    FileUnit unit = parse("<?php final class F {}");
    EXPECT_TRUE(static_cast<const ClassDecl&>(*unit.statements[0]).is_final);
}

TEST(ParserEdgeTest, VarKeywordProperty) {
    FileUnit unit = parse("<?php class Old { var $legacy = 1; }");
    const auto& cls = static_cast<const ClassDecl&>(*unit.statements[0]);
    ASSERT_EQ(cls.properties.size(), 1u);
    EXPECT_EQ(cls.properties[0].visibility, "public");
}

TEST(ParserEdgeTest, MultiplePropertiesOneDeclaration) {
    FileUnit unit = parse("<?php class C { public $a, $b = 2, $c; }");
    const auto& cls = static_cast<const ClassDecl&>(*unit.statements[0]);
    EXPECT_EQ(cls.properties.size(), 3u);
}

TEST(ParserEdgeTest, ConstantsInClass) {
    FileUnit unit = parse("<?php class C { const A = 1, B = 'two'; }");
    const auto& cls = static_cast<const ClassDecl&>(*unit.statements[0]);
    EXPECT_EQ(cls.constants.size(), 2u);
}

TEST(ParserEdgeTest, DoWhileWithComplexBody) {
    EXPECT_EQ(first_stmt("do { $i++; } while ($i < 3);"),
              "(do (block (post++ $i)) (< $i 3))");
}

TEST(ParserEdgeTest, BreakContinueWithLevels) {
    FileUnit unit = parse("<?php while (1) { break 2; continue 1; }");
    EXPECT_EQ(unit.statements.size(), 1u);  // parsed without error
}

TEST(ParserEdgeTest, GlobalThenUse) {
    EXPECT_EQ(first_stmt("global $wpdb;"), "(global $wpdb)");
}

TEST(ParserEdgeTest, StringOffsetOldSyntax) {
    EXPECT_EQ(first_stmt("$c = $s{0};"), "(= $c (index $s 0))");
}

TEST(ParserEdgeTest, SuppressedInclude) {
    EXPECT_EQ(first_stmt("@include 'x.php';"), "(@ (include \"x.php\"))");
}

TEST(ParserEdgeTest, CloneExpression) {
    EXPECT_EQ(first_stmt("$b = clone $a;"), "(= $b (call clone $a))");
}

TEST(ParserEdgeTest, InstanceofInCondition) {
    EXPECT_EQ(first_stmt("if ($e instanceof WP_Error) { log_it($e); }"),
              "(if (instanceof $e WP_Error) (block (call log_it $e)))");
}

TEST(ParserEdgeTest, ReturnWithoutValue) {
    EXPECT_EQ(first_stmt("function f() { return; }"),
              "(function f () (return))");
}

TEST(ParserEdgeTest, EchoBeforeCloseTagWithoutSemicolon) {
    // PHP allows omitting the final semicolon before ?>.
    FileUnit unit = parse("<?php echo $x ?>");
    ASSERT_EQ(unit.statements.size(), 1u);
    EXPECT_EQ(dump(*unit.statements[0]), "(echo $x)");
}

TEST(ParserEdgeTest, HtmlBetweenCases) {
    FileUnit unit = parse(
        "<?php switch ($t) { case 1: ?><b>one</b><?php break; }");
    ASSERT_EQ(unit.statements.size(), 1u);
    EXPECT_EQ(unit.statements[0]->kind, NodeKind::kSwitchStmt);
}

TEST(ParserEdgeTest, NamespacedFunctionCall) {
    EXPECT_EQ(first_stmt("\\Acme\\Util\\render($x);"),
              "(call \\Acme\\Util\\render $x)");
}

TEST(ParserEdgeTest, ClosureImmediatelyInvoked) {
    EXPECT_EQ(first_stmt("$r = (function ($x) { return $x; })(5);"),
              "(= $r (call <expr> 5))");
}

TEST(LexerEdgeTest, DollarBraceInterpolation) {
    SourceFile file("t.php", "<?php \"pre ${name} post\";");
    DiagnosticSink sink;
    Arena arena;
    Lexer lexer(file, arena, sink);
    const auto tokens = lexer.tokenize();
    ASSERT_TRUE(tokens[1].has_interpolation());
    EXPECT_EQ(tokens.parts_of(tokens[1])[1].text, "$name");
}

TEST(LexerEdgeTest, ConsecutiveInterpolations) {
    SourceFile file("t.php", "<?php \"$a$b\";");
    DiagnosticSink sink;
    Arena arena;
    Lexer lexer(file, arena, sink);
    const auto tokens = lexer.tokenize();
    const auto parts = tokens.parts_of(tokens[1]);
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts[0].text, "$a");
    EXPECT_EQ(parts[1].text, "$b");
}

TEST(LexerEdgeTest, DollarWithoutNameIsLiteral) {
    SourceFile file("t.php", "<?php \"costs $5\";");
    DiagnosticSink sink;
    Arena arena;
    Lexer lexer(file, arena, sink);
    const auto tokens = lexer.tokenize();
    EXPECT_FALSE(tokens[1].has_interpolation());
    EXPECT_EQ(tokens[1].value, "costs $5");
}

TEST(LexerEdgeTest, WindowsLineEndings) {
    SourceFile file("t.php", "<?php\r\n$a = 1;\r\n$b = 2;\r\n");
    DiagnosticSink sink;
    Arena arena;
    Lexer lexer(file, arena, sink);
    const auto tokens = lexer.tokenize();
    EXPECT_EQ(tokens[1].text, "$a");
    EXPECT_EQ(tokens[1].line, 2);
}

// -- adversarial inputs the byte fuzzer surfaces first ----------------------

/// Parses with default options and returns the collected diagnostics.
std::vector<Diagnostic> parse_diags(const std::string& code,
                                    ParserOptions options = {}) {
    SourceFile file("edge.php", code);
    DiagnosticSink sink;
    Arena arena;
    Parser parser(file, arena, sink, options);
    (void)parser.parse();
    return sink.diagnostics();
}

bool any_diag_contains(const std::vector<Diagnostic>& diags,
                       std::string_view needle) {
    for (const auto& d : diags)
        if (d.message.find(needle) != std::string::npos) return true;
    return false;
}

TEST(ParserEdgeTest, UnterminatedSingleQuoteAtEofDiagnosed) {
    EXPECT_TRUE(any_diag_contains(parse_diags("<?php $x = 'abc"),
                                  "unterminated string literal"));
}

TEST(ParserEdgeTest, UnterminatedDoubleQuoteAtEofDiagnosed) {
    EXPECT_TRUE(any_diag_contains(parse_diags("<?php echo \"hello $name"),
                                  "unterminated string literal"));
}

TEST(ParserEdgeTest, UnterminatedHeredocAtEofDiagnosed) {
    EXPECT_TRUE(any_diag_contains(parse_diags("<?php $x = <<<EOT\nbody text"),
                                  "unterminated heredoc"));
}

TEST(ParserEdgeTest, UnterminatedBlockCommentAtEofDiagnosed) {
    EXPECT_TRUE(any_diag_contains(parse_diags("<?php $a = 1; /* trailing"),
                                  "unterminated block comment"));
}

TEST(ParserEdgeTest, NulBytesDoNotAbortParsing) {
    std::string code = "<?php $a = 1; ";
    code.push_back('\0');
    code += " $b = 2;";
    const FileUnit unit = parse(code);
    // Both assignments around the nul byte must survive.
    ASSERT_GE(unit.statements.size(), 2u);
}

TEST(ParserEdgeTest, NulByteInsideStringLiteralPreserved) {
    std::string code = "<?php $x = 'a";
    code.push_back('\0');
    code += "b';";
    const FileUnit unit = parse(code);
    ASSERT_EQ(unit.statements.size(), 1u);
}

TEST(ParserEdgeTest, DeepParenNestingEmitsRecursionDiagnostic) {
    std::string code = "<?php $x = ";
    for (int i = 0; i < 5000; ++i) code += '(';
    code += '1';
    for (int i = 0; i < 5000; ++i) code += ')';
    code += ';';
    const auto diags = parse_diags(code);
    EXPECT_TRUE(any_diag_contains(diags, "nesting deeper than"));
}

TEST(ParserEdgeTest, DeepUnaryChainEmitsRecursionDiagnostic) {
    std::string code = "<?php $x = ";
    code.append(5000, '!');
    code += "$y;";
    EXPECT_TRUE(any_diag_contains(parse_diags(code), "nesting deeper than"));
}

TEST(ParserEdgeTest, AbortedParseReportsNoErrorsWhileUnwinding) {
    std::string code = "<?php $a = ";
    code.append(5000, '[');
    code.append(5000, ']');
    code += ';';
    const auto diags = parse_diags(code);
    const auto fatal = std::find_if(diags.begin(), diags.end(), [](const auto& d) {
        return d.severity == Severity::kFatal;
    });
    ASSERT_NE(fatal, diags.end());
    EXPECT_NE(fatal->message.find("nesting deeper than"), std::string::npos);
    // The fatal is the last word: no error for each unclosed '['.
    EXPECT_EQ(std::distance(fatal + 1, diags.end()), 0);
}

TEST(ParserEdgeTest, MaxDepthOptionIsConfigurable) {
    ParserOptions tight;
    tight.max_depth = 8;
    const std::string code = "<?php $x = ((((((1))))));";
    EXPECT_TRUE(any_diag_contains(parse_diags(code, tight),
                                  "nesting deeper than 8 levels"));
    // The default limit admits the same input without complaint.
    EXPECT_FALSE(any_diag_contains(parse_diags(code), "nesting deeper than"));
}

}  // namespace
}  // namespace phpsafe::php
