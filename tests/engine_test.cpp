// Engine unit tests: taint propagation, sanitizers/reverts, sinks, function
// summaries, includes, and analysis options — the paper's §III semantics.
#include <gtest/gtest.h>

#include "baselines/analyzers.h"
#include "core/engine.h"
#include "php/project.h"

namespace phpsafe {
namespace {

AnalysisResult analyze(const std::string& code, const Tool& tool) {
    php::Project project("test");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    Engine engine(tool.kb, tool.options);
    return engine.analyze(project);
}

AnalysisResult analyze(const std::string& code) {
    return analyze(code, make_phpsafe_tool());
}

int count_kind(const AnalysisResult& r, VulnKind k) { return r.count(k); }

TEST(EngineTest, DirectGetEchoIsXss) {
    const auto r = analyze("<?php echo $_GET['x'];");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, VulnKind::kXss);
    EXPECT_EQ(r.findings[0].vector, InputVector::kGet);
    EXPECT_EQ(r.findings[0].location.line, 1);
}

TEST(EngineTest, TaintFlowsThroughAssignment) {
    const auto r = analyze("<?php $a = $_POST['x']; $b = $a; echo $b;");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kPost);
}

TEST(EngineTest, TaintFlowsThroughConcatenation) {
    const auto r = analyze("<?php $s = '<b>' . $_GET['x'] . '</b>'; echo $s;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, TaintFlowsThroughInterpolation) {
    const auto r = analyze("<?php $x = $_GET['x']; echo \"value: $x\";");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, ConcatCompoundAssignmentKeepsTaint) {
    const auto r = analyze("<?php $s = 'a'; $s .= $_GET['x']; echo $s;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, PlainLiteralIsClean) {
    const auto r = analyze("<?php $s = 'hello'; echo $s;");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, HtmlspecialcharsStopsXss) {
    const auto r = analyze("<?php echo htmlspecialchars($_GET['x']);");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, XssSanitizerDoesNotStopSqli) {
    // htmlspecialchars leaves SQL metacharacters; the query stays vulnerable.
    const auto r = analyze(
        "<?php $q = htmlspecialchars($_GET['x']);"
        "mysql_query(\"SELECT * FROM t WHERE a = '$q'\");");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, VulnKind::kSqli);
}

TEST(EngineTest, SqlEscapeStopsSqliButNotXss) {
    const auto r = analyze(
        "<?php $v = mysql_real_escape_string($_GET['x']);"
        "mysql_query(\"SELECT '$v'\");"
        "echo $v;");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, VulnKind::kXss);
}

TEST(EngineTest, IntvalStopsBoth) {
    const auto r = analyze(
        "<?php $n = intval($_GET['n']); echo $n;"
        "mysql_query(\"SELECT $n\");");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, IntCastSanitizes) {
    const auto r = analyze("<?php echo (int) $_GET['n'];");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, StringCastKeepsTaint) {
    const auto r = analyze("<?php echo (string) $_GET['n'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, StripslashesRevertsSqlEscaping) {
    // Paper §III.A: revert functions re-enable the attack.
    const auto r = analyze(
        "<?php $v = addslashes($_GET['x']);"
        "$w = stripslashes($v);"
        "mysql_query(\"SELECT '$w'\");");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, VulnKind::kSqli);
}

TEST(EngineTest, HtmlEntityDecodeRevertsXssEscaping) {
    const auto r = analyze(
        "<?php $v = htmlentities($_GET['x']);"
        "echo html_entity_decode($v);");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].kind, VulnKind::kXss);
}

TEST(EngineTest, SanitizedStaysCleanWithoutRevert) {
    const auto r = analyze(
        "<?php $v = addslashes($_GET['x']); mysql_query(\"SELECT '$v'\");");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, ArithmeticResultIsClean) {
    const auto r = analyze("<?php $n = $_GET['a'] + 1; echo $n;");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, TernaryMergesBothArms) {
    const auto r = analyze("<?php $v = $c ? $_GET['x'] : 'safe'; echo $v;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, ArrayElementWriteTaintsArray) {
    const auto r = analyze("<?php $a = array(); $a['k'] = $_GET['x']; echo $a['k'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, ArrayLiteralCarriesElementTaint) {
    const auto r = analyze("<?php $a = array('x' => $_GET['x']); echo $a['x'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, UnsetClearsTaint) {
    // Paper §III.C T_UNSET: the variable becomes untainted.
    const auto r = analyze("<?php $x = $_GET['x']; unset($x); echo $x;");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, ReassignmentKillsTaint) {
    const auto r = analyze("<?php $x = $_GET['x']; $x = 'safe'; echo $x;");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, PrintAndExitAreXssSinks) {
    const auto r = analyze("<?php print $_GET['a']; die($_GET['b']);");
    EXPECT_EQ(count_kind(r, VulnKind::kXss), 2);
}

TEST(EngineTest, OpenTagEchoIsSink) {
    const auto r = analyze("<?php $m = $_GET['m']; ?><?= $m ?>");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].sink, "<?=");
}

TEST(EngineTest, PrintfFamilyAreSinks) {
    const auto r = analyze("<?php printf('%s', $_GET['x']); print_r($_GET['y']);");
    EXPECT_EQ(count_kind(r, VulnKind::kXss), 2);
}

TEST(EngineTest, UnknownFunctionPropagatesTaint) {
    const auto r = analyze("<?php echo some_unknown_transform($_GET['x']);");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, SafeBuiltinsReturnClean) {
    const auto r = analyze("<?php echo count($_GET); echo strlen($_GET['x']);");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, PregMatchRefFlowTaintsMatches) {
    const auto r = analyze(
        "<?php preg_match('/(\\w+)/', $_GET['x'], $m); echo $m[1];");
    EXPECT_EQ(r.findings.size(), 1u);
}

// -- inter-procedural -------------------------------------------------------

TEST(EngineTest, ParamFlowsToSinkInsideFunction) {
    const auto r = analyze(
        "<?php function show($v) { echo '<b>' . $v . '</b>'; }\n"
        "show($_GET['x']);");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].location.line, 1);  // sink is the echo inside
}

TEST(EngineTest, CleanArgumentDoesNotTriggerParamSink) {
    const auto r = analyze(
        "<?php function show($v) { echo $v; }\n"
        "show('static text');");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, TaintThroughReturnValue) {
    const auto r = analyze(
        "<?php function pick() { return $_POST['v']; }\n"
        "echo pick();");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, ParamToReturnFlow) {
    const auto r = analyze(
        "<?php function wrap($v) { return '<i>' . $v . '</i>'; }\n"
        "echo wrap($_GET['x']);");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, UserSanitizerFunctionIsLearned) {
    // The summary must record that the function sanitizes XSS on the flow
    // from parameter to return (paper: inter-procedural analysis "verifies
    // if the function is able to sanitize the tainted data").
    const auto r = analyze(
        "<?php function clean($v) { return htmlspecialchars($v); }\n"
        "echo clean($_GET['x']);");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, TransitiveParamSinkThroughTwoCalls) {
    const auto r = analyze(
        "<?php function inner($v) { echo $v; }\n"
        "function outer($w) { inner($w); }\n"
        "outer($_COOKIE['c']);");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kCookie);
}

TEST(EngineTest, RecursionTerminates) {
    const auto r = analyze(
        "<?php function rec($v, $n) { if ($n > 0) { return rec($v, $n - 1); } "
        "return $v; }\n"
        "echo rec($_GET['x'], 5);");
    // Must terminate; detection through the recursive return is best-effort.
    SUCCEED();
}

TEST(EngineTest, FunctionAnalyzedOnceFindingsNotDuplicated) {
    const auto r = analyze(
        "<?php function show($v) { echo $v; }\n"
        "show($_GET['a']);\n"
        "show($_GET['b']);");
    // Two call sites, one sink line: the deduplicated report keeps one
    // finding per (kind, location, variable).
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, MultipleReturnsMerge) {
    const auto r = analyze(
        "<?php function pick($c) { if ($c) { return 'safe'; } return $_GET['x']; }\n"
        "echo pick(1);");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, InternalSourceInCalledFunction) {
    const auto r = analyze(
        "<?php function handler() { echo $_REQUEST['q']; }\n"
        "handler();");
    EXPECT_EQ(r.findings.size(), 1u);
}

// -- uncalled functions ------------------------------------------------------

TEST(EngineTest, UncalledFunctionWithInternalSourceIsAnalyzed) {
    // Paper §III.C: functions never called from plugin code must still be
    // analyzed — the CMS may invoke them directly.
    const auto r = analyze("<?php function ajax_cb() { echo $_GET['q']; }");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, UncalledAnalysisCanBeDisabled) {
    Tool tool = make_phpsafe_tool();
    tool.options.analyze_uncalled_functions = false;
    const auto r = analyze("<?php function ajax_cb() { echo $_GET['q']; }", tool);
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, UncalledParamsNotTaintedByDefault) {
    const auto r = analyze("<?php function fmt($v) { echo $v; }");
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, UncalledParamsTaintedWhenOptionSet) {
    Tool tool = make_phpsafe_tool();
    tool.options.assume_params_tainted_in_uncalled = true;
    const auto r = analyze("<?php function fmt($v) { echo $v; }", tool);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kFunction);
}

// -- globals -----------------------------------------------------------------

TEST(EngineTest, GlobalKeywordSharesTaint) {
    const auto r = analyze(
        "<?php $msg = $_GET['m'];\n"
        "function show() { global $msg; echo $msg; }\n"
        "show();");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, GlobalsArrayAccess) {
    const auto r = analyze(
        "<?php $GLOBALS['m'] = $_GET['m']; echo $GLOBALS['m'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, FunctionLocalsDoNotLeakToGlobalScope) {
    const auto r = analyze(
        "<?php function f() { $t = $_GET['x']; }\n"
        "f();\n"
        "echo $t;");
    EXPECT_TRUE(r.findings.empty());
}

// -- conditionals and loops (paper: blocks parsed normally) -------------------

TEST(EngineTest, SinksInBothBranchesChecked) {
    const auto r = analyze(
        "<?php if ($c) { echo $_GET['a']; } else { echo $_GET['b']; }");
    EXPECT_EQ(r.findings.size(), 2u);
}

TEST(EngineTest, SequentialBranchSemantics) {
    // Paper-faithful: the else-branch assignment is processed after the
    // then-branch, so the final state of $x is the else value.
    const auto r = analyze(
        "<?php if ($c) { $x = 'safe'; } else { $x = $_GET['x']; } echo $x;");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, WhileConditionAssignmentTaints) {
    const auto r = analyze(
        "<?php $res = mysql_query('SELECT 1');\n"
        "while ($row = mysql_fetch_assoc($res)) { echo $row['n']; }");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kDatabase);
}

TEST(EngineTest, ForeachPropagatesToValueVar) {
    const auto r = analyze(
        "<?php $rows = mysql_fetch_array(mysql_query('q'));\n"
        "foreach ($rows as $k => $v) { echo $v; }");
    EXPECT_GE(r.findings.size(), 1u);
}

TEST(EngineTest, SwitchCasesAllChecked) {
    const auto r = analyze(
        "<?php switch ($t) { case 1: echo $_GET['a']; break; "
        "default: echo $_GET['b']; }");
    EXPECT_EQ(r.findings.size(), 2u);
}

// -- includes -----------------------------------------------------------------

TEST(EngineTest, TaintFlowsAcrossInclude) {
    php::Project project("multi");
    project.add_file("main.php", "<?php $x = $_GET['x']; include 'out.php';");
    project.add_file("out.php", "<?php echo $x;");
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    Engine engine(tool.kb, tool.options);
    const auto r = engine.analyze(project);
    bool found = false;
    for (const Finding& f : r.findings)
        if (f.location.file == "out.php") found = true;
    EXPECT_TRUE(found);
}

TEST(EngineTest, IncludeOnceNotRepeated) {
    php::Project project("multi");
    project.add_file("main.php",
                     "<?php require_once 'inc.php'; require_once 'inc.php';");
    project.add_file("inc.php", "<?php echo $_GET['x'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    Engine engine(tool.kb, tool.options);
    const auto r = engine.analyze(project);
    EXPECT_EQ(r.findings.size(), 1u);  // deduplicated single finding
}

TEST(EngineTest, IncludeOnceOfARepeatedNameCountsTheEntryFile) {
    // Two files share a name; the second runs as an entry and includes its
    // own name, which resolves to the first. Include-once bookkeeping goes
    // by the resolved file, so the entry counts as that name: require_once
    // skips the first file, a plain include runs it.
    for (const bool once : {true, false}) {
        php::Project project("dup");
        project.add_file("a.php", "<?php echo $x;");
        project.add_file("a.php", std::string("<?php $x = $_GET['q']; ") +
                                      (once ? "require_once" : "include") +
                                      " 'a.php';");
        DiagnosticSink sink;
        project.parse_all(sink);
        const Tool tool = make_phpsafe_tool();
        Engine engine(tool.kb, tool.options);
        const auto r = engine.analyze(project);
        EXPECT_EQ(r.findings.size(), once ? 0u : 1u) << (once ? "once" : "plain");
        EXPECT_EQ(r.stats.includes_followed, once ? 0 : 1);
    }
}

TEST(EngineTest, DeepIncludeChainFailsFile) {
    php::Project project("deep");
    const int chain_length = 12;
    for (int i = 0; i < chain_length; ++i) {
        std::string code = "<?php\n";
        if (i + 1 < chain_length)
            code += "require_once 'c" + std::to_string(i + 1) + ".php';\n";
        code += "$pad_" + std::to_string(i) + " = 1;\n";
        if (i == 0) code += "echo $_GET['deep'];\n";
        project.add_file("c" + std::to_string(i) + ".php", code);
    }
    DiagnosticSink sink;
    project.parse_all(sink);
    Tool tool = make_phpsafe_tool();  // max_include_depth = 8
    Engine engine(tool.kb, tool.options);
    const auto r = engine.analyze(project);
    EXPECT_GE(r.files_failed, 1);
    // The vuln after the too-deep include is missed by phpSAFE...
    EXPECT_TRUE(r.findings.empty());
    // ...but found by the RIPS-like configuration with a deeper limit.
    Tool rips = make_rips_like_tool();
    Engine rips_engine(rips.kb, rips.options);
    const auto r2 = rips_engine.analyze(project);
    EXPECT_EQ(r2.findings.size(), 1u);
    EXPECT_EQ(r2.files_failed, 0);
}

// -- misc ---------------------------------------------------------------------

TEST(EngineTest, RegisterGlobalsModeling) {
    Tool pixy = make_pixy_like_tool();
    const auto r = analyze("<?php if (!empty($theme)) { echo $theme; }", pixy);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kGet);

    // Without register_globals modeling, nothing is reported.
    const auto r2 = analyze("<?php if (!empty($theme)) { echo $theme; }");
    EXPECT_TRUE(r2.findings.empty());
}

TEST(EngineTest, RegisterGlobalsNotAppliedToAssignedVariables) {
    Tool pixy = make_pixy_like_tool();
    const auto r = analyze("<?php $theme = 'dark'; echo $theme;", pixy);
    EXPECT_TRUE(r.findings.empty());
}

TEST(EngineTest, ClosureBodyAnalyzed) {
    const auto r = analyze(
        "<?php add_action('init', function () { echo $_GET['q']; });");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, ClosureCapturesUseVariables) {
    const auto r = analyze(
        "<?php $m = $_GET['m'];\n"
        "$f = function () use ($m) { echo $m; };");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, FileSourcesAreTainted) {
    const auto r = analyze(
        "<?php $fp = fopen('x.txt', 'r'); $res = fgets($fp, 128); echo $res;");
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].vector, InputVector::kFile);
}

TEST(EngineTest, ErrorSuppressionPassesThrough) {
    const auto r = analyze("<?php echo @$_GET['x'];");
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(EngineTest, TraceContainsSourceAndSink) {
    const auto r = analyze("<?php $a = $_GET['x']; echo $a;");
    ASSERT_EQ(r.findings.size(), 1u);
    ASSERT_GE(r.findings[0].trace.size(), 3u);
    EXPECT_NE(r.findings[0].trace.front().description.find("source"),
              std::string::npos);
    EXPECT_NE(r.findings[0].trace.back().description.find("sink"),
              std::string::npos);
}

TEST(EngineTest, RepeatedAnalysisIsDeterministic) {
    const std::string code =
        "<?php $a = $_GET['x']; echo $a; echo htmlspecialchars($a);";
    php::Project project("det");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    Engine engine(tool.kb, tool.options);
    const auto r1 = engine.analyze(project);
    const auto r2 = engine.analyze(project);
    ASSERT_EQ(r1.findings.size(), r2.findings.size());
    for (size_t i = 0; i < r1.findings.size(); ++i)
        EXPECT_EQ(r1.findings[i].dedup_key(), r2.findings[i].dedup_key());
}

}  // namespace
}  // namespace phpsafe
