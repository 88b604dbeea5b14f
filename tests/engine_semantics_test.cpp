// Second wave of engine tests: PHP-specific semantics the first suite
// doesn't cover — heredocs, alternative syntax templates, string
// interpolation of members, static variables, $GLOBALS flows in functions,
// switch/try structure, multi-arg echoes, nested data shapes, and the
// WordPress idioms seen in real plugin code.
#include <gtest/gtest.h>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "php/project.h"

namespace phpsafe {
namespace {

AnalysisResult analyze(const std::string& code, const Tool& tool) {
    php::Project project("sem");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    return Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
}

AnalysisResult analyze(const std::string& code) {
    return analyze(code, make_phpsafe_tool());
}

TEST(EngineSemanticsTest, HeredocInterpolationIsSink) {
    const auto r = analyze(
        "<?php $q = $_GET['q'];\n"
        "echo <<<HTML\n"
        "<div>$q</div>\n"
        "HTML;\n");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, NowdocDoesNotInterpolate) {
    const auto r = analyze(
        "<?php $q = $_GET['q'];\n"
        "echo <<<'HTML'\n"
        "<div>$q</div>\n"
        "HTML;\n");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, AlternativeSyntaxTemplate) {
    const auto r = analyze(
        "<?php if ($show): ?>\n"
        "<div><?php echo $_GET['m']; ?></div>\n"
        "<?php endif; ?>");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ForeachAlternativeSyntaxWithWpdb) {
    const auto r = analyze(
        "<?php global $wpdb;\n"
        "$rows = $wpdb->get_results('SELECT 1');\n"
        "foreach ($rows as $row): ?>\n"
        "<li><?php echo $row->name; ?></li>\n"
        "<?php endforeach;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, InterpolatedPropertyInString) {
    const auto r = analyze(
        "<?php global $wpdb;\n"
        "$row = $wpdb->get_row('SELECT 1');\n"
        "echo \"<td>{$row->title}</td>\";");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_TRUE(r.findings[0].via_oop);
}

TEST(EngineSemanticsTest, InterpolatedArrayElementInString) {
    const auto r = analyze("<?php echo \"Hello $_GET[name]!\";");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, StaticVariableKeepsTaint) {
    const auto r = analyze(
        "<?php function cache_it() {\n"
        "  static $cached = null;\n"
        "  $cached = $_GET['v'];\n"
        "  echo $cached;\n"
        "}\n"
        "cache_it();");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, GlobalsArrayWriteInFunction) {
    const auto r = analyze(
        "<?php function setup() { $GLOBALS['banner'] = $_GET['b']; }\n"
        "setup();\n"
        "echo $banner;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, TryCatchBodiesAnalyzed) {
    const auto r = analyze(
        "<?php try { echo $_GET['a']; } catch (Exception $e) { echo $_GET['b']; } "
        "finally { echo $_GET['c']; }");
    EXPECT_EQ(r.findings.size(), 3u);
}

TEST(EngineSemanticsTest, CaughtExceptionVariableIsClean) {
    const auto r = analyze(
        "<?php try { risky(); } catch (Exception $e) { echo $e; }");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, MultiArgEchoEachChecked) {
    const auto r = analyze("<?php echo '<b>', $_GET['a'], '</b>', $_GET['b'];");
    // One echo statement, two tainted arguments at the same line: they
    // deduplicate to distinct findings because the variable text differs.
    EXPECT_EQ(r.findings.size(), 2u);
}

TEST(EngineSemanticsTest, NestedArrayTaint) {
    const auto r = analyze(
        "<?php $cfg = array('items' => array('first' => $_GET['x']));\n"
        "echo $cfg['items']['first'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, VariableFunctionCallPropagates) {
    const auto r = analyze(
        "<?php $fn = 'strtoupper'; echo $fn($_GET['x']);");
    // Dynamic call: conservative propagation keeps the taint alive.
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, MethodChainOnWpdbRow) {
    const auto r = analyze(
        "<?php global $wpdb;\n"
        "echo $wpdb->get_row('SELECT 1')->content;");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kDatabase);
}

TEST(EngineSemanticsTest, WordpressOptionRoundTrip) {
    // update_option is unknown (propagate); get_option is a DB source —
    // the classic stored-XSS pair in options pages.
    const auto r = analyze(
        "<?php update_option('msg', $_POST['msg']);\n"
        "echo get_option('msg');");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kDatabase);
}

TEST(EngineSemanticsTest, SprintfWithStringFormatPropagates) {
    const auto r = analyze("<?php echo sprintf('<b>%s</b>', $_GET['x']);");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ConcatInsideFunctionArgs) {
    const auto r = analyze(
        "<?php printf('%s', 'pre' . $_COOKIE['c'] . 'post');");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, UnsetOnlyAffectsNamedVariable) {
    const auto r = analyze(
        "<?php $a = $_GET['a']; $b = $_GET['b']; unset($a); echo $a; echo $b;");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_NE(r.findings[0].variable.find("$b"), std::string::npos);
}

TEST(EngineSemanticsTest, SelfPropertyViaStaticStore) {
    const auto r = analyze(
        "<?php class Cfg {\n"
        "  public static $msg = '';\n"
        "  public static function load() { self::$msg = $_GET['m']; }\n"
        "  public static function show() { echo self::$msg; }\n"
        "}\n"
        "Cfg::load();\n"
        "Cfg::show();");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ParentMethodCall) {
    const auto r = analyze(
        "<?php class Base { public function out($v) { echo $v; } }\n"
        "class Child extends Base {\n"
        "  public function show() { parent::out($_GET['x']); }\n"
        "}\n"
        "$c = new Child(); $c->show();");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, SinkInsideSwitchCase) {
    const auto r = analyze(
        "<?php switch ($_GET['tab']) {\n"
        "  case 'a': echo htmlspecialchars($_GET['q']); break;\n"
        "  case 'b': echo $_GET['q']; break;\n"
        "}");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, EchoInsideHtmlHeavyTemplate) {
    const auto r = analyze(
        "<html><body>\n"
        "<?php $t = $_GET['title']; ?>\n"
        "<h1><?php echo $t; ?></h1>\n"
        "<p>static</p>\n"
        "</body></html>");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, FilesFailedCountsParseFailures) {
    php::Project project("mix");
    std::string garbage = "<?php ";
    for (int i = 0; i < 300; ++i) garbage += ")( ";
    project.add_file("bad.php", garbage);
    project.add_file("good.php", "<?php echo $_GET['x'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    const AnalysisResult r =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
    EXPECT_EQ(r.files_failed, 1);
    EXPECT_EQ(r.findings.size(), 1u);  // the good file is still analyzed
}

TEST(EngineSemanticsTest, LoopIterations2CatchesLoopCarriedFlow) {
    const std::string code =
        "<?php $prev = 'clean';\n"
        "foreach ($_POST as $cur) {\n"
        "  echo $prev;\n"
        "  $prev = $cur;\n"
        "}";
    // One pass: $prev is clean at the echo. Two passes: loop-carried taint.
    Tool once = make_phpsafe_tool();
    EXPECT_TRUE(analyze(code, once).findings.empty());
    Tool twice = make_phpsafe_tool();
    twice.options.loop_iterations = 2;
    EXPECT_EQ(analyze(code, twice).findings.size(), 1u);
}

TEST(EngineSemanticsTest, ExitValueInsideCondition) {
    const auto r = analyze(
        "<?php $ok = is_dir('/tmp') or die('no tmp');\n"
        "echo $_GET['x'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, CoalesceKeepsTaint) {
    const auto r = analyze("<?php $v = $_GET['v'] ?? 'default'; echo $v;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ElvisKeepsTaint) {
    const auto r = analyze("<?php $v = $_GET['v'] ?: 'default'; echo $v;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ByRefParameterTaintsCallerVariable) {
    const auto r = analyze(
        "<?php function fill(&$out) { $out = $_GET['q']; }\n"
        "$value = '';\n"
        "fill($value);\n"
        "echo $value;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ByRefSanitizerClearsCallerVariable) {
    const auto r = analyze(
        "<?php function clean(&$v) { $v = htmlspecialchars($v); }\n"
        "$value = $_GET['q'];\n"
        "clean($value);\n"
        "echo $value;");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, GeneratorYieldFlowsToConsumer) {
    const auto r = analyze(
        "<?php function rows() {\n"
        "  yield $_GET['a'];\n"
        "  yield 'safe';\n"
        "}\n"
        "foreach (rows() as $row) { echo $row; }");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, GeneratorKeyValueYield) {
    const auto r = analyze(
        "<?php function pairs() { yield 'k' => $_POST['v']; }\n"
        "foreach (pairs() as $k => $v) { echo $v; }");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, CleanGeneratorIsClean) {
    const auto r = analyze(
        "<?php function nums() { yield 1; yield 2; }\n"
        "foreach (nums() as $n) { echo $n; }");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, ExtractInjectsTaintIntoUndefinedReads) {
    const auto r = analyze(
        "<?php function handler() {\n"
        "  extract($_POST);\n"
        "  echo $message;\n"
        "}\n"
        "handler();");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kPost);
}

TEST(EngineSemanticsTest, ExtractDoesNotTaintAssignedVariables) {
    const auto r = analyze(
        "<?php function handler() {\n"
        "  $message = 'safe';\n"
        "  extract($_POST);\n"
        "  echo $message;\n"
        "}\n"
        "handler();");
    EXPECT_TRUE(r.findings.empty());  // explicit assignment wins in our model
}

TEST(EngineSemanticsTest, ExtractOfCleanArrayIsHarmless) {
    const auto r = analyze(
        "<?php function handler() {\n"
        "  extract(array('a' => 1));\n"
        "  echo $b;\n"
        "}\n"
        "handler();");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, ReferenceAliasSharesTaint) {
    // $a =& $b: taint written through one name is visible through the other
    // (the paper enables Pixy's "-A" flag for exactly this, §IV.B.4).
    const auto r = analyze(
        "<?php function f() {\n"
        "  $a =& $b;\n"
        "  $b = $_GET['x'];\n"
        "  echo $a;\n"
        "}\n"
        "f();");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ReferenceAliasWriteThrough) {
    const auto r = analyze(
        "<?php function f() {\n"
        "  $b = $_GET['x'];\n"
        "  $a =& $b;\n"
        "  $a = 'safe';\n"
        "  echo $b;\n"
        "}\n"
        "f();");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, ReferenceAliasSanitizeThrough) {
    const auto r = analyze(
        "<?php function f() {\n"
        "  $b = $_GET['x'];\n"
        "  $a =& $b;\n"
        "  $a = htmlspecialchars($a);\n"
        "  echo $b;\n"
        "}\n"
        "f();");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineSemanticsTest, ByRefFlowFromAnotherParameter) {
    const auto r = analyze(
        "<?php function copy_into($src, &$dst) { $dst = $src; }\n"
        "$out = '';\n"
        "copy_into($_POST['body'], $out);\n"
        "echo $out;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineSemanticsTest, ThrownTaintIsNotOutput) {
    // Constructing and throwing an exception echoes nothing; the echo after
    // the guard is the only sink.
    EXPECT_TRUE(analyze("<?php throw new Exception($_GET['m']);").findings.empty());
    const auto r = analyze(
        "<?php $m = $_GET['m'];\n"
        "if ($m === '') throw new Exception('empty: ' . $m);\n"
        "echo $m;");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].location.line, 3);
}

TEST(EngineSemanticsTest, TopLevelConstantIsUntainted) {
    EXPECT_TRUE(analyze("<?php const T = 'x'; echo T;").findings.empty());
    EXPECT_EQ(analyze("<?php const T = 'x'; echo T . $_GET['a'];").findings.size(),
              1u);
}

TEST(EngineSemanticsTest, FloatCoercionsSanitize) {
    EXPECT_TRUE(analyze("<?php echo floatval($_GET['x']) * 1.5;").findings.empty());
    EXPECT_TRUE(analyze("<?php echo (float) $_GET['x'];").findings.empty());
    EXPECT_EQ(analyze("<?php echo 1.5 . $_GET['x'];").findings.size(), 1u);
}

}  // namespace
}  // namespace phpsafe
