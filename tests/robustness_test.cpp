// Robustness / failure-injection tests: the analyzer must terminate and
// produce a result on arbitrary malformed input (paper §IV.A: "robustness
// is the ability to finish the analysis and produce a result... a tool
// must be able to analyze any given file and deliver the results in due
// time using a reasonable amount of resources").
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "php/parser.h"
#include "php/project.h"
#include "service/server.h"

namespace phpsafe {
namespace {

/// Analyzes arbitrary (possibly malformed) input; the assertion is simply
/// that we return rather than crash, hang, or blow the stack.
AnalysisResult analyze_garbage(const std::string& code) {
    php::Project project("garbage");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    return Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
}

class MalformedInputSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedInputSweep, TerminatesWithoutCrash) {
    const AnalysisResult r = analyze_garbage(GetParam());
    SUCCEED() << "findings: " << r.findings.size();
}

INSTANTIATE_TEST_SUITE_P(
    Fragments, MalformedInputSweep,
    ::testing::Values(
        "",
        "<?php",
        "<?php ;;;;;",
        "<?php $",
        "<?php $x =",
        "<?php $x = ;",
        "<?php if (",
        "<?php if ($a { echo $a; }",
        "<?php while",
        "<?php foreach ($a as) {}",
        "<?php function",
        "<?php function f(",
        "<?php function f($a {}",
        "<?php class",
        "<?php class C {",
        "<?php class C { public function }",
        "<?php class C extends {}",
        "<?php echo 'unterminated",
        "<?php echo \"unterminated $x",
        "<?php $x = <<<EOT\nnever closed",
        "<?php /* never closed",
        "<?php )))((( }{ ][",
        "<?php $a->;",
        "<?php $a->->b;",
        "<?php new;",
        "<?php X::;",
        "<?php echo $_GET[;",
        "<?php @@@@;",
        "<?php ?????;",
        "<?php $x = array(1, => 2);",
        "<?php switch ($x) { case }",
        "<?php try {} catch {}",
        "<?php global;",
        "<?php 0x 0b;",
        "<?php \xFF\xFE binary \x00 junk",
        "no php at all <b>html</b>",
        "<?php echo $_GET['x'] <?php echo $_GET['y'];"));

TEST(RobustnessTest, DeeplyNestedExpressionsTerminate) {
    std::string code = "<?php $x = ";
    for (int i = 0; i < 200; ++i) code += "(1 + ";
    code += "2";
    for (int i = 0; i < 200; ++i) code += ")";
    code += "; echo $x;";
    analyze_garbage(code);
    SUCCEED();
}

TEST(RobustnessTest, DeeplyNestedBlocksTerminate) {
    std::string code = "<?php ";
    for (int i = 0; i < 300; ++i) code += "if ($a) { ";
    code += "echo $_GET['x'];";
    for (int i = 0; i < 300; ++i) code += " }";
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_GE(r.findings.size(), 1u);
}

TEST(RobustnessTest, PathologicalNestingFailsTheFileNotTheProcess) {
    // 100k nested parens would overflow the stack without the parser's
    // recursion-depth limit; with it, the file is marked failed and the
    // analysis still returns a result.
    std::string code = "<?php $x = ";
    code.append(100000, '(');
    code += '1';
    code.append(100000, ')');
    code += ';';
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_EQ(r.files_failed, 1);
}

TEST(RobustnessTest, PathologicalBlockNestingFailsTheFileNotTheProcess) {
    std::string code = "<?php ";
    for (int i = 0; i < 50000; ++i) code += "if($a){";
    code += "echo 1;";
    for (int i = 0; i < 50000; ++i) code += '}';
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_EQ(r.files_failed, 1);
}

TEST(RobustnessTest, NulBytesInsideCodeStillFindTaint) {
    std::string code = "<?php echo $_GET['x']; ";
    code.push_back('\0');
    code += " echo $_GET['y'];";
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_GE(r.findings.size(), 2u);
}

TEST(RobustnessTest, LongConcatenationChain) {
    std::string code = "<?php $s = $_GET['x']";
    for (int i = 0; i < 2000; ++i) code += " . 'part'";
    code += "; echo $s;";
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(RobustnessTest, FortyThousandTermConcatBuildsModelAndGraph) {
    // One ~480 KB line: the parser builds the chain in a loop, and the
    // parse-time facts walk uses an explicit stack, so model construction
    // and the NDJSON "graph" op (which walks no AST at all) answer with a
    // structured result instead of overflowing the call stack.
    std::string code = "<?php $x = $_GET['a']";
    for (int i = 1; i < 40000; ++i) code += " . $_GET['a']";
    code += ";";

    php::Project project("deep");
    project.add_file("deep.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    ASSERT_EQ(project.files().size(), 1u);
    EXPECT_FALSE(project.files()[0]->parse_failed);
    EXPECT_TRUE(project.all_functions().empty());
    EXPECT_EQ(project.resolve_include("deep.php"), project.files()[0].get());

    std::istringstream in(
        "{\"op\":\"graph\",\"plugin\":\"deep\",\"files\":[{\"name\":"
        "\"deep.php\",\"text\":\"" + code + "\"}]}\n");
    std::ostringstream out;
    service::ServerOptions options;
    options.deterministic = true;
    EXPECT_EQ(service::AnalysisServer(options).serve_serial(in, out), 1);
    const std::string line = out.str();
    EXPECT_EQ(line.rfind("{\"ok\":true", 0), 0u) << line.substr(0, 200);
    EXPECT_NE(line.find("\"files\":1"), std::string::npos)
        << line.substr(0, 200);
}

/// Serves one NDJSON scan of `<?php echo $_GET['a'] . … ;` with `terms`
/// operands and returns the response line. The engine renders the echo
/// argument for the finding (to_php_source), which walks the whole chain.
std::string serve_echo_concat(int terms) {
    std::string code = "<?php echo $_GET['a']";
    for (int i = 1; i < terms; ++i) code += " . $_GET['a']";
    code += ";";
    std::istringstream in(
        "{\"op\":\"scan\",\"plugin\":\"deep\",\"files\":[{\"name\":"
        "\"deep.php\",\"text\":\"" + code + "\"}]}\n");
    std::ostringstream out;
    service::ServerOptions options;
    options.deterministic = true;
    EXPECT_EQ(service::AnalysisServer(options).serve_serial(in, out), 1);
    return out.str();
}

TEST(RobustnessTest, TwentyThousandTermEchoScanAnswers) {
    const std::string line = serve_echo_concat(20000);
    EXPECT_EQ(line.rfind("{\"ok\":true", 0), 0u) << line.substr(0, 200);
    EXPECT_NE(line.find("\"kind\":\"XSS\""), std::string::npos);
}

TEST(RobustnessTest, ThirtyThousandTermEchoScanAnswers) {
    // Rendering the sink argument must not take a C++ frame per binary
    // level: 30k levels overflow an 8 MiB stack.
    const std::string line = serve_echo_concat(30000);
    EXPECT_EQ(line.rfind("{\"ok\":true", 0), 0u) << line.substr(0, 200);
    EXPECT_NE(line.find("\"kind\":\"XSS\""), std::string::npos);
}

TEST(RobustnessTest, ManyVariablesManyFindings) {
    std::string code = "<?php\n";
    for (int i = 0; i < 500; ++i) {
        code += "$v" + std::to_string(i) + " = $_GET['k" + std::to_string(i) +
                "'];\n";
        code += "echo $v" + std::to_string(i) + ";\n";
    }
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_EQ(r.findings.size(), 500u);
}

TEST(RobustnessTest, MutualRecursionTerminates) {
    const AnalysisResult r = analyze_garbage(
        "<?php function a($x) { return b($x); }\n"
        "function b($x) { return a($x); }\n"
        "echo a($_GET['q']);");
    SUCCEED() << r.findings.size();
}

TEST(RobustnessTest, SelfIncludeDoesNotLoop) {
    php::Project project("loop");
    project.add_file("main.php", "<?php include 'main.php'; echo $_GET['x'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    const AnalysisResult r =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(RobustnessTest, MutualIncludesDoNotLoop) {
    php::Project project("loop");
    project.add_file("a.php", "<?php include 'b.php'; echo $_GET['a'];");
    project.add_file("b.php", "<?php include 'a.php'; echo $_GET['b'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    const AnalysisResult r =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
    EXPECT_EQ(r.findings.size(), 2u);
}

TEST(RobustnessTest, GiantFileCompletesQuickly) {
    std::string code = "<?php\n";
    for (int i = 0; i < 20000; ++i)
        code += "$line" + std::to_string(i % 97) + " = 'text';\n";
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_TRUE(r.findings.empty());
}

TEST(RobustnessTest, ErrorCapAbortsPathologicalFile) {
    std::string garbage = "<?php ";
    for (int i = 0; i < 500; ++i) garbage += ")( ";
    const AnalysisResult r = analyze_garbage(garbage);
    EXPECT_EQ(r.files_failed, 1);
}

// Found by phpsafe_fuzz (byte mutation, seed 2): a class whose property
// default `new`s its own class re-entered default initialization forever
// and blew the stack. Replayed from tests/fuzz_corpus/regressions/ too;
// this is the direct engine-level form.
TEST(RobustnessTest, SelfReferentialPropertyDefaultTerminates) {
    const AnalysisResult r = analyze_garbage(
        "<?php\n"
        "class C { public $p = new C(); }\n"
        "$o = new C();\n"
        "echo $_GET['x'];\n");
    EXPECT_EQ(r.files_failed, 0);
    EXPECT_EQ(r.findings.size(), 1u);
}

TEST(RobustnessTest, MutuallyRecursivePropertyDefaultsTerminate) {
    const AnalysisResult r = analyze_garbage(
        "<?php\n"
        "class A { public $p = new B(); }\n"
        "class B { public $q = new A(); }\n"
        "$o = new A();\n");
    EXPECT_EQ(r.files_failed, 0);
}

// Expressions nested beyond the engine's eval budget are truncated with a
// warning diagnostic instead of risking the process stack (engine frames
// are far larger than parser frames, especially under sanitizers).
TEST(RobustnessTest, EvalDepthBackstopTruncatesWithWarning) {
    std::string code = "<?php\n$x = ";
    const int depth = 450;  // parser admits this; engine truncates at 400
    for (int i = 0; i < depth; ++i) code += "!";
    code += "$_GET['q'];\n";
    const AnalysisResult r = analyze_garbage(code);
    EXPECT_EQ(r.files_failed, 0);
    bool warned = false;
    for (const Diagnostic& d : r.diagnostics)
        warned |= d.message.find("taint evaluation truncated") != std::string::npos;
    EXPECT_TRUE(warned);
}

TEST(RobustnessTest, AllToolsSurviveGarbageSweep) {
    const char* samples[] = {"<?php class {", "<?php $a->", "<?php if(((("};
    for (const Tool& tool :
         {make_phpsafe_tool(), make_rips_like_tool(), make_pixy_like_tool()}) {
        for (const char* code : samples) {
            php::Project project("g");
            project.add_file("main.php", code);
            DiagnosticSink sink;
            project.parse_all(sink);
            Analyzer::borrowing(tool.kb, tool.options).scan(project);
        }
    }
    SUCCEED();
}

}  // namespace
}  // namespace phpsafe
