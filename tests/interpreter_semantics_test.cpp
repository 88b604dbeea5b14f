// Second wave of dynamic-interpreter tests: sanitizer round-trips the
// validator depends on, include semantics, recursion limits, and the
// WordPress stub behaviours.
#include <gtest/gtest.h>

#include "dynamic/interpreter.h"
#include "php/project.h"

namespace phpsafe::dynamic {
namespace {

ExecResult run(const std::string& code,
               const std::function<void(Interpreter&)>& setup = {}) {
    static php::Project* keep = nullptr;
    delete keep;
    keep = new php::Project("dyn2");
    keep->add_file("main.php", code);
    DiagnosticSink sink;
    keep->parse_all(sink);
    Interpreter interpreter(*keep);
    if (setup) setup(interpreter);
    return interpreter.run_file("main.php");
}

struct OperatorCase {
    const char* code;      ///< statements after `<?php `
    const char* expected;  ///< what PHP prints (the PHP manual's examples)
};

TEST(InterpreterConformanceTest, OperatorsFollowThePhpManual) {
    static constexpr OperatorCase kCases[] = {
        {"echo 2 ** 3;", "8"},
        {"echo 2 ** 3 ** 2;", "512"},  // right-associative
        {"echo 2 ** -1;", "0.5"},
        {"echo -2 ** 2;", "-4"},  // ** binds tighter than unary minus
        {"echo 6 & 3;", "2"},
        {"echo 6 | 1;", "7"},
        {"echo 6 ^ 3;", "5"},
        {"echo '12' & '10';", "10"},  // two strings: byte-wise
        {"echo 1 << 4;", "16"},
        {"echo 256 >> 4;", "16"},
        {"echo -8 >> 1;", "-4"},
        {"echo 1 << 64;", "0"},
        {"echo 2 <=> 1;", "1"},
        {"echo 1 <=> 1;", "0"},
        {"echo 1 <=> 2;", "-1"},
        {"echo 1.5 <=> 1.5;", "0"},
        {"echo 'a' <=> 'b';", "-1"},
        {"echo '10' <=> '9';", "1"},  // numeric strings compare as numbers
        {"echo 'a' < 'b' ? 'y' : 'n';", "y"},  // two strings: byte-wise
        {"echo 'b' > 'a' ? 'y' : 'n';", "y"},
        {"echo 'abc' <= 'abd' ? 'y' : 'n';", "y"},
        {"echo '10' < '9' ? 'y' : 'n';", "n"},  // both numeric: 10 < 9
        {"class B {} $a = 1; echo (!$a instanceof B) ? 'y' : 'n';", "y"},
        {"$a = 5; $a **= 2; echo $a;", "25"},
        {"$b = 6; $b &= 3; echo $b;", "2"},
        {"$c = 6; $c |= 1; echo $c;", "7"},
        {"$d = 6; $d ^= 3; echo $d;", "5"},
        {"$e = 1; $e <<= 4; echo $e;", "16"},
        {"$f = 256; $f >>= 4; echo $f;", "16"},
        {"$g = 'a'; $g .= 'b'; $g .= 1 + 2; echo $g;", "ab3"},
    };
    for (const OperatorCase& c : kCases) {
        const ExecResult r = run(std::string("<?php ") + c.code);
        EXPECT_EQ(r.output, c.expected) << c.code;
    }
}

TEST(InterpreterSemanticsTest, HtmlspecialcharsNeutralizesPayload) {
    const ExecResult r = run("<?php echo htmlspecialchars($_GET['x']);",
                             [](Interpreter& i) {
                                 i.set_superglobal_default("$_GET",
                                                           "<script>x</script>");
                             });
    EXPECT_EQ(r.output.find("<script>"), std::string::npos);
    EXPECT_NE(r.output.find("&lt;script&gt;"), std::string::npos);
}

TEST(InterpreterSemanticsTest, StripTagsRemovesPayload) {
    const ExecResult r = run("<?php echo sanitize_text_field($_POST['x']);",
                             [](Interpreter& i) {
                                 i.set_superglobal_default("$_POST",
                                                           "a<script>b</script>c");
                             });
    EXPECT_EQ(r.output, "abc");
}

TEST(InterpreterSemanticsTest, IntvalDestroysPayload) {
    const ExecResult r = run("<?php echo intval($_GET['n']);",
                             [](Interpreter& i) {
                                 i.set_superglobal_default("$_GET", "7<script>");
                             });
    EXPECT_EQ(r.output, "7");
}

TEST(InterpreterSemanticsTest, AddslashesEscapesQuote) {
    const ExecResult r = run(
        "<?php $q = addslashes($_POST['id']);\n"
        "mysql_query(\"SELECT '$q'\");",
        [](Interpreter& i) {
            i.set_superglobal_default("$_POST", "1' OR '1'='1");
        });
    ASSERT_EQ(r.queries.size(), 1u);
    EXPECT_EQ(r.queries[0].find("1' OR"), std::string::npos);
    EXPECT_NE(r.queries[0].find("1\\' OR"), std::string::npos);
}

TEST(InterpreterSemanticsTest, HeredocInterpolationExecutes) {
    const ExecResult r = run(
        "<?php $name = 'Ann';\n"
        "echo <<<EOT\nHello $name!\nEOT;\n");
    EXPECT_EQ(r.output, "Hello Ann!");
}

TEST(InterpreterSemanticsTest, AlternativeSyntaxRuns) {
    const ExecResult r = run(
        "<?php $on = true; if ($on): ?>YES<?php else: ?>NO<?php endif;");
    EXPECT_EQ(r.output, "YES");
}

TEST(InterpreterSemanticsTest, RecursionBounded) {
    const ExecResult r = run(
        "<?php function down($n) { if ($n <= 0) { return 0; } "
        "return down($n - 1); } echo down(1000);");
    // Call depth is capped; execution must terminate without crashing.
    SUCCEED() << r.output;
}

TEST(InterpreterSemanticsTest, IncludeOnceSemanticsViaGuard) {
    php::Project project("inc");
    project.add_file("main.php",
                     "<?php include 'part.php'; include 'part.php';");
    project.add_file("part.php", "<?php echo 'x';");
    DiagnosticSink sink;
    project.parse_all(sink);
    Interpreter interpreter(project);
    const ExecResult r = interpreter.run_file("main.php");
    // Re-inclusion of an actively-included file is skipped; sequential
    // repeats run again (plain `include`).
    EXPECT_EQ(r.output, "xx");
}

TEST(InterpreterSemanticsTest, SelfIncludeDoesNotLoopForever) {
    php::Project project("inc");
    project.add_file("main.php", "<?php echo 'a'; include 'main.php'; echo 'b';");
    DiagnosticSink sink;
    project.parse_all(sink);
    Interpreter interpreter(project);
    const ExecResult r = interpreter.run_file("main.php");
    EXPECT_EQ(r.output, "ab");
    EXPECT_TRUE(r.completed);
}

TEST(InterpreterSemanticsTest, PropertyStatePersistsAcrossMethodCalls) {
    const ExecResult r = run(
        "<?php class Counter {\n"
        "  public $n = 0;\n"
        "  public function bump() { $this->n = $this->n + 1; }\n"
        "  public function show() { echo $this->n; }\n"
        "}\n"
        "$c = new Counter(); $c->bump(); $c->bump(); $c->show();");
    EXPECT_EQ(r.output, "2");
}

TEST(InterpreterSemanticsTest, TwoInstancesHaveDistinctState) {
    const ExecResult r = run(
        "<?php class Box { public $v = ''; }\n"
        "$a = new Box(); $b = new Box();\n"
        "$a->v = 'A'; $b->v = 'B';\n"
        "echo $a->v, $b->v;");
    EXPECT_EQ(r.output, "AB");
}

TEST(InterpreterSemanticsTest, WpdbGetColReturnsStrings) {
    const ExecResult r = run(
        "<?php global $wpdb;\n"
        "$names = $wpdb->get_col('SELECT name FROM t');\n"
        "echo implode(',', $names);",
        [](Interpreter& i) { i.seed_database("N", 2); });
    EXPECT_EQ(r.output, "N,N");
}

TEST(InterpreterSemanticsTest, GetVarReturnsSeed) {
    const ExecResult r = run(
        "<?php global $wpdb; echo $wpdb->get_var('SELECT 1');",
        [](Interpreter& i) { i.seed_database("CELL", 1); });
    EXPECT_EQ(r.output, "CELL");
}

TEST(InterpreterSemanticsTest, UrlencodeRoundTrip) {
    const ExecResult r = run(
        "<?php echo urldecode(urlencode('<a b>'));");
    EXPECT_EQ(r.output, "<a b>");
}

TEST(InterpreterSemanticsTest, HtmlEntityDecodeRevertsEscaping) {
    const ExecResult r = run(
        "<?php echo html_entity_decode(htmlspecialchars('<i>'));");
    EXPECT_EQ(r.output, "<i>");
}

TEST(InterpreterSemanticsTest, SubstrAndStrlen) {
    const ExecResult r = run(
        "<?php echo substr('abcdef', 1, 3), '|', substr('abc', -2), '|', "
        "strlen('hello');");
    EXPECT_EQ(r.output, "bcd|bc|5");
}

TEST(InterpreterSemanticsTest, ExplodeAndCount) {
    const ExecResult r = run(
        "<?php $parts = explode(',', 'a,b,c'); echo count($parts), $parts[1];");
    EXPECT_EQ(r.output, "3b");
}

TEST(InterpreterSemanticsTest, WpDieStopsAndEmits) {
    const ExecResult r = run("<?php wp_die('denied'); echo 'after';");
    EXPECT_EQ(r.output, "denied");
    EXPECT_TRUE(r.exited);
}

TEST(InterpreterSemanticsTest, VariableFunctionByName) {
    const ExecResult r = run(
        "<?php function hello() { echo 'hi'; } $fn = 'hello'; $fn();");
    EXPECT_EQ(r.output, "hi");
}

TEST(InterpreterSemanticsTest, StaticPropertyViaGlobalsStore) {
    const ExecResult r = run(
        "<?php class S { public static $m = ''; }\n"
        "S::$m = 'stored';\n"
        "echo S::$m;");
    EXPECT_EQ(r.output, "stored");
}

TEST(InterpreterSemanticsTest, GlobalsSuperglobalRead) {
    const ExecResult r = run(
        "<?php $site = 'acme'; $all = $GLOBALS; echo $all['site'];");
    EXPECT_EQ(r.output, "acme");
}

TEST(InterpreterSemanticsTest, StaticVariablePersistsAcrossCalls) {
    const ExecResult r = run(
        "<?php function tick() { static $n = 0; $n = $n + 1; echo $n; }\n"
        "tick(); tick(); tick();");
    EXPECT_EQ(r.output, "123");
}

TEST(InterpreterSemanticsTest, GeneratorYieldsIterable) {
    const ExecResult r = run(
        "<?php function nums() { yield 'a'; yield 'b'; }\n"
        "foreach (nums() as $n) { echo $n; }");
    EXPECT_EQ(r.output, "ab");
}

TEST(InterpreterSemanticsTest, NumericStringJuggling) {
    const ExecResult r = run(
        "<?php echo ('5' + '3'), '|', ('5' . '3'), '|', ('05' == '5' ? 'eq' : 'ne');");
    EXPECT_EQ(r.output, "8|53|eq");
}

TEST(InterpreterSemanticsTest, UncaughtThrowStopsTheRun) {
    const ExecResult r = run(
        "<?php echo 'a'; throw new Exception($_GET['m']); echo 'b';",
        [](Interpreter& i) { i.set_superglobal_default("$_GET", "<script>"); });
    EXPECT_EQ(r.output, "a");
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.error, "uncaught exception");
}

TEST(InterpreterSemanticsTest, ConstAndDefineNameValues) {
    const ExecResult r = run(
        "<?php const T = 'x', N = 2 + 3; echo T, N;\n"
        "define('U', $_GET['u']); define('U', 'second'); echo '|', U;\n"
        "echo '|', UNDEFINED_NAME, '|', dirname(__FILE__);",
        [](Interpreter& i) { i.set_superglobal_default("$_GET", "<script>"); });
    EXPECT_EQ(r.output, "x5|<script>||.");
    EXPECT_TRUE(r.completed);
}

TEST(InterpreterSemanticsTest, FloatArithmetic) {
    const ExecResult r = run(
        "<?php echo 1.5 + 1.5, '|', 7 / 2, '|', 6 / 2, '|', 0.1 + 0.2, '|',\n"
        "  -1.5, '|', 2 * 1.25, '|', '1.5' + 1, '|', 10 - 0.5;");
    EXPECT_EQ(r.output, "3|3.5|3|0.3|-1.5|2.5|2.5|9.5");
}

TEST(InterpreterSemanticsTest, IntegerOverflowBecomesFloat) {
    // PHP_INT_MIN / -1 and PHP_INT_MIN % -1 trap in C++ integer division.
    const ExecResult r = run(
        "<?php $min = -9223372036854775807 - 1;\n"
        "echo 9223372036854775807 + 1, '|', $min / -1, '|', $min % -1, '|', -$min;");
    EXPECT_EQ(r.output,
              "9.2233720368548E+18|9.2233720368548E+18|0|9.2233720368548E+18");
}

TEST(InterpreterSemanticsTest, FloatCompoundAssignment) {
    const ExecResult r = run(
        "<?php $x = 1.25; $x *= 2; echo $x, '|';\n"
        "$y = 10; $y /= 4; echo $y, '|';\n"
        "$z = 0.5; $z += 1; $z -= 0.25; echo $z, '|';\n"
        "$n = 7; $n %= 4; echo $n, '|';\n"
        "$f = 1.5; $f++; echo $f;");
    EXPECT_EQ(r.output, "2.5|2.5|1.25|3|2.5");
}

TEST(InterpreterSemanticsTest, FloatConversionsDestroyPayload) {
    const ExecResult r = run(
        "<?php echo floatval($_GET['a']), '|', (float) $_GET['a'] + 0.5, '|',\n"
        "  floatval('3.14abc') * 2, '|', doubleval('x<script>');",
        [](Interpreter& i) { i.set_superglobal_default("$_GET", "2.5<script>"); });
    EXPECT_EQ(r.output, "2.5|3|6.28|0");
}

TEST(InterpreterSemanticsTest, FloatsPrintWithFourteenDigits) {
    const ExecResult r = run(
        "<?php echo 3.14159265358, '|', 1e20, '|', 1.5e-7, '|', 2.0, '|', 1/3;");
    EXPECT_EQ(r.output, "3.14159265358|1.0E+20|1.5E-7|2|0.33333333333333");
}

}  // namespace
}  // namespace phpsafe::dynamic
