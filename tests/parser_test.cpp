// Parser unit tests: AST construction for the PHP subset used by plugins,
// verified through compact s-expression dumps.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "php/parser.h"
#include "util/source.h"

namespace phpsafe::php {
namespace {

/// Owns the source text and arena a parsed unit's nodes point into; kept
/// alive for the whole test run so returned FileUnits never dangle.
struct ParseKeeper {
    explicit ParseKeeper(std::string code)
        : file("test.php", std::move(code)) {}
    SourceFile file;
    Arena arena;
};

FileUnit parse(const std::string& code, DiagnosticSink* sink_out = nullptr) {
    static std::vector<std::unique_ptr<ParseKeeper>> keepers;
    keepers.push_back(std::make_unique<ParseKeeper>(code));
    ParseKeeper& k = *keepers.back();
    DiagnosticSink sink;
    Parser parser(k.file, k.arena, sink);
    FileUnit unit = parser.parse();
    if (sink_out) *sink_out = sink;
    return unit;
}

/// Parses `<?php` + code and dumps the first statement.
std::string first_stmt(const std::string& code) {
    FileUnit unit = parse("<?php " + code);
    if (unit.statements.empty()) return "<none>";
    return dump(*unit.statements.front());
}

TEST(ParserTest, SimpleAssignment) {
    EXPECT_EQ(first_stmt("$x = 1;"), "(= $x 1)");
}

TEST(ParserTest, ConcatAssignment) {
    EXPECT_EQ(first_stmt("$x .= $y;"), "(.= $x $y)");
}

TEST(ParserTest, SuperglobalIndex) {
    EXPECT_EQ(first_stmt("$m = $_GET['msg'];"), "(= $m (index $_GET \"msg\"))");
}

TEST(ParserTest, EchoMultipleArgs) {
    EXPECT_EQ(first_stmt("echo $a, $b;"), "(echo $a $b)");
}

TEST(ParserTest, ConcatPrecedenceWithComparison) {
    // '.' binds tighter than '=='.
    EXPECT_EQ(first_stmt("$r = $a . $b == $c;"), "(= $r (== (. $a $b) $c))");
}

TEST(ParserTest, ArithmeticPrecedence) {
    EXPECT_EQ(first_stmt("$r = 1 + 2 * 3;"), "(= $r (+ 1 (* 2 3)))");
}

TEST(ParserTest, RightAssociativeAssignment) {
    EXPECT_EQ(first_stmt("$a = $b = 1;"), "(= $a (= $b 1))");
}

TEST(ParserTest, WordOperatorsBindLooserThanAssignment) {
    // `$a = $b or die()` groups as ($a = $b) or die().
    EXPECT_EQ(first_stmt("$a = $b or $c;"), "(|| (= $a $b) $c)");
}

TEST(ParserTest, TernaryAndElvis) {
    EXPECT_EQ(first_stmt("$x = $c ? 1 : 2;"), "(= $x (?: $c 1 2))");
    EXPECT_EQ(first_stmt("$x = $c ?: 2;"), "(= $x (?: $c <elvis> 2))");
}

TEST(ParserTest, MethodCall) {
    EXPECT_EQ(first_stmt("$wpdb->query($sql);"), "(mcall $wpdb query $sql)");
}

TEST(ParserTest, ChainedPropertyAndMethod) {
    EXPECT_EQ(first_stmt("$a->b->c($d);"), "(mcall (prop $a b) c $d)");
}

TEST(ParserTest, StaticCallAndProperty) {
    EXPECT_EQ(first_stmt("Foo::bar($x);"), "(scall Foo bar $x)");
    EXPECT_EQ(first_stmt("$v = Foo::$prop;"), "(= $v (sprop Foo prop))");
    EXPECT_EQ(first_stmt("$v = Foo::BAR;"), "(= $v (cconst Foo BAR))");
}

TEST(ParserTest, NewWithArgs) {
    EXPECT_EQ(first_stmt("$o = new Widget($a);"), "(= $o (new Widget $a))");
}

TEST(ParserTest, NewWithoutParens) {
    EXPECT_EQ(first_stmt("$o = new Widget;"), "(= $o (new Widget))");
}

TEST(ParserTest, ArrayLiteralBothSyntaxes) {
    EXPECT_EQ(first_stmt("$a = array(1, 2);"), "(= $a (array 1 2))");
    EXPECT_EQ(first_stmt("$a = [1, 'k' => 2];"), "(= $a (array 1 [\"k\"]=2))");
}

TEST(ParserTest, InterpolatedString) {
    EXPECT_EQ(first_stmt("$s = \"hi $name!\";"),
              "(= $s (interp \"hi \" $name \"!\"))");
}

TEST(ParserTest, InterpolatedPropertyAccess) {
    EXPECT_EQ(first_stmt("$s = \"v {$row->name} w\";"),
              "(= $s (interp \"v \" (prop $row name) \" w\"))");
}

TEST(ParserTest, IfElseChain) {
    EXPECT_EQ(first_stmt("if ($a) { $x = 1; } elseif ($b) { $x = 2; } else { $x = 3; }"),
              "(if $a (block (= $x 1)) (if $b (block (= $x 2)) (block (= $x 3))))");
}

TEST(ParserTest, AlternativeIfSyntax) {
    EXPECT_EQ(first_stmt("if ($a): $x = 1; else: $x = 2; endif;"),
              "(if $a (block (= $x 1)) (block (= $x 2)))");
}

TEST(ParserTest, WhileLoop) {
    EXPECT_EQ(first_stmt("while ($r = next_row()) { echo $r; }"),
              "(while (= $r (call next_row)) (block (echo $r)))");
}

TEST(ParserTest, ForLoop) {
    EXPECT_EQ(first_stmt("for ($i = 0; $i < 5; $i++) { echo $i; }"),
              "(for (= $i 0) ; (< $i 5) ; (post++ $i) (block (echo $i)))");
}

TEST(ParserTest, ForeachWithKey) {
    EXPECT_EQ(first_stmt("foreach ($rows as $k => $v) { echo $v; }"),
              "(foreach $rows as $k => $v (block (echo $v)))");
}

TEST(ParserTest, ForeachAlternativeSyntax) {
    EXPECT_EQ(first_stmt("foreach ($rows as $v): echo $v; endforeach;"),
              "(foreach $rows as $v (block (echo $v)))");
}

TEST(ParserTest, SwitchCases) {
    EXPECT_EQ(first_stmt("switch ($x) { case 1: echo $a; break; default: echo $b; }"),
              "(switch $x (case 1 (echo $a) (break)) (case default (echo $b)))");
}

TEST(ParserTest, FunctionDeclWithDefaults) {
    EXPECT_EQ(first_stmt("function f($a, $b = 1) { return $a; }"),
              "(function f ($a $b) (return $a))");
}

TEST(ParserTest, FunctionWithTypeHintsAndByRef) {
    EXPECT_EQ(first_stmt("function g(array $a, &$b, ...$rest) {}"),
              "(function g ($a $b $rest))");
}

TEST(ParserTest, ClassWithEverything) {
    const std::string code =
        "class Widget extends Base implements I1, I2 {\n"
        "  const VERSION = '1.0';\n"
        "  public static $count = 0;\n"
        "  private $name;\n"
        "  public function __construct($n) { $this->name = $n; }\n"
        "  public function render() { echo $this->name; }\n"
        "}";
    EXPECT_EQ(first_stmt(code),
              "(class Widget extends Base $count $name "
              "(function __construct ($n) (= (prop $this name) $n)) "
              "(function render () (echo (prop $this name))))");
}

TEST(ParserTest, GlobalStatement) {
    EXPECT_EQ(first_stmt("global $wpdb, $post;"), "(global $wpdb $post)");
}

TEST(ParserTest, UnsetStatement) {
    EXPECT_EQ(first_stmt("unset($a, $b['k']);"), "(unset $a (index $b \"k\"))");
}

TEST(ParserTest, IncludeRequire) {
    EXPECT_EQ(first_stmt("require_once 'inc.php';"), "(require_once \"inc.php\")");
    EXPECT_EQ(first_stmt("include dirname(__FILE__) . '/x.php';"),
              "(include (. (call dirname __FILE__) \"/x.php\"))");
}

TEST(ParserTest, ClosureWithUse) {
    EXPECT_EQ(first_stmt("$f = function ($a) use ($b) { echo $a . $b; };"),
              "(= $f (closure ($a) (echo (. $a $b))))");
}

TEST(ParserTest, TryCatchFinally) {
    EXPECT_EQ(first_stmt("try { risky(); } catch (Exception $e) { log_it($e); } "
                         "finally { done(); }"),
              "(try (call risky) (catch $e (call log_it $e)) "
              "(finally (call done)))");
}

TEST(ParserTest, ListAssignment) {
    EXPECT_EQ(first_stmt("list($a, $b) = $pair;"), "(= (list $a $b) $pair)");
}

TEST(ParserTest, CastExpression) {
    EXPECT_EQ(first_stmt("$n = (int) $_GET['n'];"),
              "(= $n (cast int (index $_GET \"n\")))");
}

TEST(ParserTest, ErrorSuppression) {
    EXPECT_EQ(first_stmt("$c = @file_get_contents($p);"),
              "(= $c (@ (call file_get_contents $p)))");
}

TEST(ParserTest, PrintIsExpression) {
    EXPECT_EQ(first_stmt("$ok = print $msg;"), "(= $ok (print $msg))");
}

TEST(ParserTest, ExitWithMessage) {
    EXPECT_EQ(first_stmt("exit('bye');"), "(exit \"bye\")");
    EXPECT_EQ(first_stmt("die;"), "(exit)");
}

TEST(ParserTest, InstanceOf) {
    EXPECT_EQ(first_stmt("$ok = $o instanceof WP_Error;"),
              "(= $ok (instanceof $o WP_Error))");
}

TEST(ParserTest, NotRanksBelowInstanceof) {
    // PHP ranks instanceof above `!` but below `-`, `~`, casts and `@`.
    EXPECT_EQ(first_stmt("$ok = !$o instanceof WP_Error;"),
              "(= $ok (! (instanceof $o WP_Error)))");
    EXPECT_EQ(first_stmt("$ok = -$o instanceof WP_Error;"),
              "(= $ok (instanceof (- $o) WP_Error))");
    EXPECT_EQ(first_stmt("$ok = !$o instanceof A && $b;"),
              "(= $ok (&& (! (instanceof $o A)) $b))");
}

TEST(ParserTest, InlineHtmlBetweenPhpBlocks) {
    FileUnit unit = parse("<?php $a = 1; ?><b>html</b><?php echo $a;");
    ASSERT_EQ(unit.statements.size(), 3u);
    EXPECT_EQ(unit.statements[0]->kind, NodeKind::kExprStmt);
    EXPECT_EQ(unit.statements[1]->kind, NodeKind::kInlineHtmlStmt);
    EXPECT_EQ(unit.statements[2]->kind, NodeKind::kEchoStmt);
}

TEST(ParserTest, OpenTagEchoBecomesEchoStmt) {
    FileUnit unit = parse("<?= $msg ?>");
    ASSERT_EQ(unit.statements.size(), 1u);
    ASSERT_EQ(unit.statements[0]->kind, NodeKind::kEchoStmt);
    EXPECT_TRUE(static_cast<const EchoStmt&>(*unit.statements[0]).from_open_tag);
}

TEST(ParserTest, HtmlInsideIfBody) {
    FileUnit unit =
        parse("<?php if ($show) { ?><div>x</div><?php } echo 'done';");
    ASSERT_GE(unit.statements.size(), 2u);
    EXPECT_EQ(unit.statements[0]->kind, NodeKind::kIfStmt);
}

TEST(ParserTest, StaticVariableDeclaration) {
    EXPECT_EQ(first_stmt("static $cache = null;"), "(static $cache=null)");
}

TEST(ParserTest, StaticMethodCallNotVarDecl) {
    EXPECT_EQ(first_stmt("static::helper($x);"), "(scall static helper $x)");
}

TEST(ParserTest, NamespaceAndUse) {
    FileUnit unit = parse("<?php namespace Acme\\Plugin; use WP\\DB as Database;");
    ASSERT_EQ(unit.statements.size(), 2u);
    EXPECT_EQ(unit.statements[0]->kind, NodeKind::kNamespaceStmt);
    EXPECT_EQ(static_cast<const NamespaceStmt&>(*unit.statements[0]).name,
              "Acme\\Plugin");
    EXPECT_EQ(unit.statements[1]->kind, NodeKind::kUseStmt);
}

TEST(ParserTest, HeredocInExpression) {
    FileUnit unit = parse("<?php $html = <<<EOT\n<b>$name</b>\nEOT;\necho $html;");
    ASSERT_GE(unit.statements.size(), 2u);
    EXPECT_EQ(dump(*unit.statements[0]), "(= $html (interp \"<b>\" $name \"</b>\"))");
}

TEST(ParserTest, LineNumbersOnNodes) {
    FileUnit unit = parse("<?php\n\n$x = 1;\necho $x;");
    ASSERT_EQ(unit.statements.size(), 2u);
    EXPECT_EQ(unit.statements[0]->line, 3);
    EXPECT_EQ(unit.statements[1]->line, 4);
}

TEST(ParserTest, RecoversFromGarbage) {
    DiagnosticSink sink;
    FileUnit unit = parse("<?php $a = 1; ^^^ ; echo $a;", &sink);
    EXPECT_GE(sink.count(Severity::kError) + sink.count(Severity::kWarning), 1);
    // The echo after the garbage must still be parsed.
    bool has_echo = false;
    for (const StmtPtr& s : unit.statements)
        if (s && s->kind == NodeKind::kEchoStmt) has_echo = true;
    EXPECT_TRUE(has_echo);
}

TEST(ParserTest, DynamicVariableVariable) {
    EXPECT_EQ(first_stmt("$$name = 1;"), "(= $$name 1)");
}

TEST(ParserTest, CompactArrowFn) {
    EXPECT_EQ(first_stmt("$f = fn($x) => $x * 2;"),
              "(= $f (closure ($x) (return (* $x 2))))");
}

TEST(ParserTest, ReferenceAssignment) {
    EXPECT_EQ(first_stmt("$a =& $b;"), "(=& $a $b)");
}

TEST(ParserTest, InterfaceDecl) {
    FileUnit unit = parse("<?php interface Renderable { public function render(); }");
    ASSERT_EQ(unit.statements.size(), 1u);
    const auto& cls = static_cast<const ClassDecl&>(*unit.statements[0]);
    EXPECT_EQ(cls.class_kind, ClassDecl::Kind::kInterface);
    ASSERT_EQ(cls.methods.size(), 1u);
    EXPECT_TRUE(cls.methods[0]->body.empty());
}

TEST(ParserTest, TraitUseInsideClass) {
    FileUnit unit = parse("<?php class A { use Loggable; public $x; }");
    const auto& cls = static_cast<const ClassDecl&>(*unit.statements[0]);
    ASSERT_EQ(cls.interfaces.size(), 1u);
    EXPECT_EQ(cls.interfaces[0], "Loggable");
    ASSERT_EQ(cls.properties.size(), 1u);
}

TEST(ParserTest, NestedFunctionInsideIf) {
    FileUnit unit = parse(
        "<?php if (!function_exists('helper')) { function helper($x) { return $x; } }");
    ASSERT_EQ(unit.statements.size(), 1u);
    EXPECT_EQ(unit.statements[0]->kind, NodeKind::kIfStmt);
}

TEST(ParserTest, ParseExpressionText) {
    DiagnosticSink sink;
    Arena arena;
    ExprPtr expr =
        Parser::parse_expression_text("$a->b['c']", "f.php", 7, sink, arena);
    ASSERT_NE(expr, nullptr);
    EXPECT_EQ(dump(*expr), "(index (prop $a b) \"c\")");
    EXPECT_EQ(expr->line, 7);
}

TEST(ParserTest, ToPhpSourceRendersNestedChainsInSourceOrder) {
    // Left- and right-nested binary chains, calls, casts and interpolation
    // render through one output buffer; parentheses are not retained.
    DiagnosticSink sink;
    Arena arena;
    const ExprPtr expr = Parser::parse_expression_text(
        "$a . ($b . 'x') . f($c[1], $d->e) . (int) $n + \"v{$w}\"",
        "f.php", 1, sink, arena);
    ASSERT_NE(expr, nullptr);
    EXPECT_EQ(to_php_source(*expr),
              "$a . $b . 'x' . f($c[1], $d->e) . (int) $n + \"v{$w}\"");
}

TEST(ParserTest, ThrowStatementKeepsItsExpression) {
    EXPECT_EQ(first_stmt("throw new Exception($_GET['m']);"),
              "(throw (new Exception (index $_GET \"m\")))");
}

TEST(ParserTest, TopLevelConstDeclaresEveryName) {
    const FileUnit unit = parse("<?php const T = 'x', N = 2 + 3; echo T;");
    ASSERT_EQ(unit.statements.size(), 2u);
    ASSERT_EQ(unit.statements[0]->kind, NodeKind::kConstStmt);
    EXPECT_EQ(dump(*unit.statements[0]), "(const T=\"x\" N=(+ 2 3))");
    EXPECT_EQ(dump(*unit.statements[1]), "(echo T)");
}

TEST(ParserTest, FloatLiteralsKeepTheirText) {
    EXPECT_EQ(first_stmt("$x = 1.5 * 2e3;"), "(= $x (* 1.5 2e3))");
}

}  // namespace
}  // namespace phpsafe::php
