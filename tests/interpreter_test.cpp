// Dynamic-interpreter tests: concrete execution semantics of the PHP
// subset — output capture, loose typing, control flow, functions, objects,
// the WordPress stubs and the sanitization built-ins.
#include <gtest/gtest.h>

#include "dynamic/interpreter.h"
#include "php/project.h"

namespace phpsafe::dynamic {
namespace {

php::Project make_project(const std::string& code) {
    php::Project project("dyn");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    return project;
}

ExecResult run(const std::string& code,
               const std::function<void(Interpreter&)>& setup = {}) {
    static php::Project* keep = nullptr;
    delete keep;
    keep = new php::Project(make_project(code));
    Interpreter interpreter(*keep);
    if (setup) setup(interpreter);
    return interpreter.run_file("main.php");
}

TEST(InterpreterTest, EchoLiteral) {
    const ExecResult r = run("<?php echo 'hello'; echo ' ', 'world';");
    EXPECT_EQ(r.output, "hello world");
    EXPECT_TRUE(r.completed);
}

TEST(InterpreterTest, InlineHtmlEmitted) {
    const ExecResult r = run("<b>bold</b><?php echo '!'; ?> done");
    EXPECT_EQ(r.output, "<b>bold</b>! done");
}

TEST(InterpreterTest, VariablesAndConcat) {
    const ExecResult r = run("<?php $a = 'x'; $b = $a . 'y'; $b .= 'z'; echo $b;");
    EXPECT_EQ(r.output, "xyz");
}

TEST(InterpreterTest, SuperglobalValues) {
    const ExecResult r = run("<?php echo $_GET['name'];", [](Interpreter& i) {
        i.set_superglobal("$_GET", "name", "alice");
    });
    EXPECT_EQ(r.output, "alice");
}

TEST(InterpreterTest, SuperglobalDefaultFloods) {
    const ExecResult r = run("<?php echo $_GET['whatever_key'];",
                             [](Interpreter& i) {
                                 i.set_superglobal_default("$_GET", "PAYLOAD");
                             });
    EXPECT_EQ(r.output, "PAYLOAD");
}

TEST(InterpreterTest, ArithmeticAndComparison) {
    const ExecResult r =
        run("<?php echo 2 + 3 * 4; echo ' '; echo 10 == '10' ? 'eq' : 'ne';");
    EXPECT_EQ(r.output, "14 eq");
}

TEST(InterpreterTest, InterpolatedString) {
    const ExecResult r = run("<?php $n = 'Bob'; echo \"Hi $n!\";");
    EXPECT_EQ(r.output, "Hi Bob!");
}

TEST(InterpreterTest, IfElseExecution) {
    const ExecResult r =
        run("<?php $x = 5; if ($x > 3) { echo 'big'; } else { echo 'small'; }");
    EXPECT_EQ(r.output, "big");
}

TEST(InterpreterTest, WhileLoopWithBreak) {
    const ExecResult r = run(
        "<?php $i = 0; while (true) { $i++; if ($i >= 3) { break; } } echo $i;");
    EXPECT_EQ(r.output, "3");
}

TEST(InterpreterTest, ForLoop) {
    const ExecResult r =
        run("<?php for ($i = 0; $i < 4; $i++) { echo $i; }");
    EXPECT_EQ(r.output, "0123");
}

TEST(InterpreterTest, ForeachWithKeys) {
    const ExecResult r = run(
        "<?php $a = array('x' => 1, 'y' => 2); "
        "foreach ($a as $k => $v) { echo $k, '=', $v, ';'; }");
    EXPECT_EQ(r.output, "x=1;y=2;");
}

TEST(InterpreterTest, SwitchWithFallthrough) {
    const ExecResult r = run(
        "<?php $t = 2; switch ($t) { case 1: echo 'one'; case 2: echo 'two'; "
        "case 3: echo 'three'; break; default: echo 'other'; }");
    EXPECT_EQ(r.output, "twothree");
}

TEST(InterpreterTest, UserFunctionCallAndReturn) {
    const ExecResult r = run(
        "<?php function add($a, $b) { return $a + $b; } echo add(2, 3);");
    EXPECT_EQ(r.output, "5");
}

TEST(InterpreterTest, DefaultParameters) {
    const ExecResult r = run(
        "<?php function greet($name = 'world') { return 'hi ' . $name; } "
        "echo greet(); echo '|'; echo greet('bob');");
    EXPECT_EQ(r.output, "hi world|hi bob");
}

TEST(InterpreterTest, GlobalKeyword) {
    const ExecResult r = run(
        "<?php $site = 'acme'; function show() { global $site; echo $site; } "
        "show();");
    EXPECT_EQ(r.output, "acme");
}

TEST(InterpreterTest, ObjectsAndMethods) {
    const ExecResult r = run(
        "<?php class Greeter {\n"
        "  public $name = 'x';\n"
        "  public function __construct($n) { $this->name = $n; }\n"
        "  public function hello() { return 'hello ' . $this->name; }\n"
        "}\n"
        "$g = new Greeter('ann'); echo $g->hello();");
    EXPECT_EQ(r.output, "hello ann");
}

// Mirrors the engine regression found by phpsafe_fuzz: a property default
// that `new`s its own class must not re-enter construction forever.
TEST(InterpreterTest, SelfReferentialPropertyDefaultTerminates) {
    const ExecResult r = run(
        "<?php\n"
        "class C { public $p = new C(); }\n"
        "$o = new C();\n"
        "echo 'done';");
    EXPECT_EQ(r.output, "done");
    EXPECT_TRUE(r.completed);
}

TEST(InterpreterTest, StaticMethodAndSelf) {
    const ExecResult r = run(
        "<?php class M { public static function twice($x) { return $x * 2; } "
        "public static function quad($x) { return self::twice(self::twice($x)); } }\n"
        "echo M::quad(3);");
    EXPECT_EQ(r.output, "12");
}

TEST(InterpreterTest, ExitStopsExecution) {
    const ExecResult r = run("<?php echo 'a'; exit; echo 'b';");
    EXPECT_EQ(r.output, "a");
    EXPECT_TRUE(r.exited);
}

TEST(InterpreterTest, DieWithMessageEmitsIt) {
    const ExecResult r = run("<?php die('fatal: stop');");
    EXPECT_EQ(r.output, "fatal: stop");
    EXPECT_TRUE(r.exited);
}

TEST(InterpreterTest, SanitizersActuallySanitize) {
    const ExecResult r = run(
        "<?php echo htmlspecialchars('<b>'), '|', intval('12abc'), '|', "
        "addslashes(\"o'clock\");");
    EXPECT_EQ(r.output, "&lt;b&gt;|12|o\\'clock");
}

TEST(InterpreterTest, StripslashesUndoesAddslashes) {
    const ExecResult r = run("<?php echo stripslashes(addslashes(\"a'b\"));");
    EXPECT_EQ(r.output, "a'b");
}

TEST(InterpreterTest, IsNumericAndCtype) {
    const ExecResult r = run(
        "<?php echo is_numeric('42') ? 'y' : 'n'; echo is_numeric('4x') ? 'y' : 'n';"
        "echo ctype_digit('007') ? 'y' : 'n'; echo ctype_digit('a1') ? 'y' : 'n';");
    EXPECT_EQ(r.output, "ynyn");
}

TEST(InterpreterTest, PregMatchWithCapture) {
    const ExecResult r = run(
        "<?php if (preg_match('/(\\d+)/', 'id=982;', $m)) { echo $m[1]; }");
    EXPECT_EQ(r.output, "982");
}

TEST(InterpreterTest, QueriesCaptured) {
    const ExecResult r = run(
        "<?php mysql_query(\"SELECT 1\"); global $wpdb; "
        "$wpdb->query(\"DELETE FROM t\");");
    ASSERT_EQ(r.queries.size(), 2u);
    EXPECT_EQ(r.queries[0], "SELECT 1");
    EXPECT_EQ(r.queries[1], "DELETE FROM t");
}

TEST(InterpreterTest, WpdbResultsIterate) {
    const ExecResult r = run(
        "<?php global $wpdb;\n"
        "$rows = $wpdb->get_results(\"SELECT * FROM x\");\n"
        "foreach ($rows as $row) { echo '[', $row->name, ']'; }",
        [](Interpreter& i) { i.seed_database("CELL", 3); });
    EXPECT_EQ(r.output, "[CELL][CELL][CELL]");
}

TEST(InterpreterTest, MysqlFetchLoopTerminates) {
    const ExecResult r = run(
        "<?php $res = mysql_query('q');\n"
        "while ($row = mysql_fetch_assoc($res)) { echo $row['c'], ';'; }",
        [](Interpreter& i) { i.seed_database("V", 2); });
    EXPECT_EQ(r.output, "V;V;");
    EXPECT_TRUE(r.completed);
}

TEST(InterpreterTest, WpdbPrepareQuotesAndEscapes) {
    const ExecResult r = run(
        "<?php global $wpdb;\n"
        "$wpdb->query($wpdb->prepare(\"SELECT %s WHERE id = %d\", \"a'b\", '9x'));");
    ASSERT_EQ(r.queries.size(), 1u);
    EXPECT_EQ(r.queries[0], "SELECT 'a\\'b' WHERE id = 9");
}

TEST(InterpreterTest, FileSeedsReadable) {
    const ExecResult r = run(
        "<?php $fp = fopen('f.txt', 'r'); echo fgets($fp, 128);",
        [](Interpreter& i) { i.seed_file_contents("FILEDATA"); });
    EXPECT_EQ(r.output, "FILEDATA");
}

TEST(InterpreterTest, CmsStoreSeeds) {
    const ExecResult r = run("<?php echo get_option('greeting');",
                             [](Interpreter& i) { i.seed_cms_store("OPT"); });
    EXPECT_EQ(r.output, "OPT");
}

TEST(InterpreterTest, ClosuresViaAddActionRun) {
    const ExecResult r = run(
        "<?php add_action('init', function () { echo 'hooked'; });");
    EXPECT_EQ(r.output, "hooked");
}

TEST(InterpreterTest, NamedHookHandlersRun) {
    const ExecResult r = run(
        "<?php function my_init() { echo 'named'; } add_action('init', 'my_init');");
    EXPECT_EQ(r.output, "named");
}

TEST(InterpreterTest, ClosureCapturesUseValues) {
    const ExecResult r = run(
        "<?php $msg = 'cap'; $f = function () use ($msg) { echo $msg; }; $f();");
    EXPECT_EQ(r.output, "cap");
}

TEST(InterpreterTest, IncludeExecutesOtherFile) {
    php::Project project("multi");
    project.add_file("main.php", "<?php $x = 'inc'; include 'other.php';");
    project.add_file("other.php", "<?php echo $x, 'luded';");
    DiagnosticSink sink;
    project.parse_all(sink);
    Interpreter interpreter(project);
    const ExecResult r = interpreter.run_file("main.php");
    EXPECT_EQ(r.output, "included");
}

TEST(InterpreterTest, InfiniteLoopHitsBudget) {
    const ExecResult r = run("<?php while (true) { $x = 1; } echo 'after';");
    EXPECT_TRUE(r.budget_exhausted);
}

TEST(InterpreterTest, BinaryChainsSpendTheSameStepsAsNestedEvaluation) {
    // Left-deep chains are folded over an explicit spine, not recursion;
    // each case's exact step need was measured on the recursive evaluator,
    // so a fold that moved a step would move these budget verdicts.
    std::string long_chain = "<?php $z = $_GET['a']";
    for (int i = 0; i < 300; ++i)
        long_chain += i % 3 == 0 ? " . 'p'" : i % 3 == 1 ? " + 1" : " . $_GET['b']";
    long_chain += "; echo $z;";
    const struct {
        std::string code;
        int steps;
        const char* output;
    } cases[] = {
        {"<?php $x = $_GET['a'] . 'b' . $_GET['c'] . 'd'; echo $x;", 13,
         "Ab<X>d"},
        {"<?php function f($v){ return $v . '!'; } echo f($_GET['a']) . "
         "f('x') . f(f('y')) . (3 % 0) . (7 / 2) . (1 == '1') . (1 === '1')"
         " . (2 < 3);",
         48, "A!x!y!!3.511"},
        {"<?php echo 0 && $_GET['a'] && 1; echo 1 || $_GET['x'] || 0;", 8,
         "1"},
        {long_chain, 706, "100<X>"},
    };
    for (const auto& c : cases) {
        const php::Project project = make_project(c.code);
        for (const int budget : {c.steps - 1, c.steps}) {
            ExecOptions options;
            options.max_steps = budget;
            Interpreter interpreter(project, options);
            interpreter.set_superglobal("$_GET", "a", "A");
            interpreter.set_superglobal_default("$_GET", "<X>");
            const ExecResult r = interpreter.run_file("main.php");
            const bool enough = budget == c.steps;
            EXPECT_EQ(r.budget_exhausted, !enough) << c.code << " @" << budget;
            EXPECT_EQ(r.completed, enough) << c.code << " @" << budget;
            if (enough) {
                EXPECT_EQ(r.output, c.output) << c.code;
            }
        }
    }
}

TEST(InterpreterTest, UnsetRemovesVariable) {
    const ExecResult r = run(
        "<?php $a = 'v'; unset($a); echo isset($a) ? 'set' : 'unset';");
    EXPECT_EQ(r.output, "unset");
}

TEST(InterpreterTest, ListAssignment) {
    const ExecResult r = run(
        "<?php list($a, $b) = array('x', 'y'); echo $a, $b;");
    EXPECT_EQ(r.output, "xy");
}

TEST(InterpreterTest, InArrayWhitelist) {
    const ExecResult r = run(
        "<?php $t = 'evil'; "
        "$v = in_array($t, array('one', 'two')) ? $t : 'one'; echo $v;");
    EXPECT_EQ(r.output, "one");
}

TEST(InterpreterTest, StrReplaceAndSprintf) {
    const ExecResult r = run(
        "<?php echo str_replace('a', 'o', 'banana'), '|', sprintf('%s=%d', 'n', '7');");
    EXPECT_EQ(r.output, "bonono|n=7");
}

}  // namespace
}  // namespace phpsafe::dynamic
