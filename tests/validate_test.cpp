// Batch validation + remediation pipeline tests (validate/): tiering must
// agree with one-at-a-time replay, executions must deduplicate, quickfixes
// must only be emitted when every verification gate holds, and the
// single-file project fork must be indistinguishable from a full rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "corpus/generator.h"
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

/// Every class and function the named file declares, in declaration order,
/// each with the file the project's lookup resolves it to (file_of_class,
/// find_method, find_function).
std::vector<std::string> declared_in(const php::Project& project,
                                     std::string_view file) {
    std::vector<std::string> out;
    if (const php::ParsedFile* parsed = project.file_named(file))
        for (const php::ClassDecl* cls : parsed->facts.classes)
            out.push_back("class " + std::string(cls->name) + "@" +
                          project.file_of_class(cls->name));
    for (const php::FunctionRef& ref : project.all_functions()) {
        if (ref.file != file) continue;
        const php::FunctionRef* found =
            ref.owner ? project.find_method(ref.owner->name, ref.decl->name)
                      : project.find_function(ref.decl->name);
        out.push_back(ref.qualified_name() + "@" +
                      (found ? std::string(found->file) : std::string("-")));
    }
    return out;
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
        original.fork_with_replacements({{"entry.php", patched_entry, nullptr}},
                                        fork_sink);
    ASSERT_TRUE(fork.has_value());
    EXPECT_EQ(fork->files().size(), 2u);
    EXPECT_EQ(fork->files()[0].get(), original.files()[0].get())
        << "unchanged file must be shared, not re-parsed";

    php::Project rebuilt("fork");
    rebuilt.add_file("lib.php", lib);
    rebuilt.add_file("entry.php", patched_entry);
    DiagnosticSink rebuilt_sink;
    rebuilt.parse_all(rebuilt_sink);

    EXPECT_EQ(declared_in(*fork, "lib.php"),
              (std::vector<std::string>{"class Page@lib.php",
                                        "Page::title@lib.php", "fmt@lib.php"}));
    EXPECT_EQ(declared_in(*fork, "lib.php"), declared_in(rebuilt, "lib.php"));
    EXPECT_TRUE(declared_in(*fork, "entry.php").empty());
    EXPECT_EQ(declared_in(*fork, "entry.php"),
              declared_in(rebuilt, "entry.php"));
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
    // The fork must stay exact even when the replacement adds declarations:
    // the new function resolves to the patched file in the fork only.
    php::Project original("decl");
    original.add_file("a.php", "<?php echo 'a';\n");
    original.add_file("b.php", "<?php echo 'b';\n");
    DiagnosticSink sink;
    original.parse_all(sink);
    EXPECT_TRUE(declared_in(original, "a.php").empty());

    DiagnosticSink fork_sink;
    const std::optional<php::Project> fork = original.fork_with_replacements(
        {{"a.php", "<?php function added() { return 1; } echo added();\n", nullptr}},
        fork_sink);
    ASSERT_TRUE(fork.has_value());
    EXPECT_EQ(declared_in(*fork, "a.php"),
              std::vector<std::string>{"added@a.php"});
    EXPECT_TRUE(declared_in(original, "a.php").empty());
    ASSERT_NE(fork->find_function("added"), nullptr);
    EXPECT_EQ(fork->find_function("added")->file, "a.php");
    EXPECT_EQ(original.find_function("added"), nullptr);
    EXPECT_TRUE(std::ranges::binary_search(fork->called_function_names(),
                                           std::string_view("added")));

    // Unknown files refuse to fork.
    DiagnosticSink missing_sink;
    EXPECT_FALSE(original
                     .fork_with_replacements({{"missing.php", "<?php\n", nullptr}},
                                             missing_sink)
                     .has_value());
}

TEST(ValidateTest, FixTheReplayStillConfirmsCostsNoRescan) {
    // Two sinks print the same input: wrapping either one leaves the other
    // printing the payload, so the replay rejects both fixes and no rescan
    // runs. The one-sink control is verified and does rescan.
    Pipeline p = analyze(
        "<?php\n"
        "echo $_GET['a'];\n"
        "echo $_GET['b'];\n");
    ASSERT_EQ(p.analysis.findings.size(), 2u);
    const ValidationReport report = run(p);
    EXPECT_EQ(report.fixes_proposed, 2);
    EXPECT_EQ(report.forks, 2);
    EXPECT_EQ(report.rescans, 0);
    EXPECT_EQ(report.fixes_verified, 0);

    Pipeline control = analyze("<?php\necho $_GET['a'];\n");
    const ValidationReport verified = run(control);
    EXPECT_EQ(verified.forks, 1);
    EXPECT_EQ(verified.rescans, 1);
    EXPECT_EQ(verified.fixes_verified, 1);
}

/// The reference verdict for one fix: a from-scratch rebuild of the patched
/// file set, checked in the original gate order (rescan and compare before
/// the replay) — what the pipeline's fork and gate order must reproduce.
bool verify_from_scratch(const Tool& tool, const php::Project& project,
                         const AnalysisResult& result, size_t target,
                         const Quickfix& fix) {
    const std::optional<std::string> patched_text = apply_quickfix(project, fix);
    if (!patched_text) return false;
    php::Project patched(project.name());
    for (const auto& file : project.files())
        patched.add_file(std::string(file->source->name()),
                         file->source->name() == fix.file
                             ? *patched_text
                             : std::string(file->source->text()));
    DiagnosticSink sink;
    patched.parse_all(sink);
    const php::ParsedFile* parsed = patched.file_named(fix.file);
    if (!parsed || parsed->parse_failed) return false;

    const AnalysisResult after = run_tool(tool, patched);
    if (after.files_failed != result.files_failed) return false;
    const Finding& finding = result.findings[target];
    if (after.findings.size() + 1 != result.findings.size()) return false;
    const auto signature = [](const Finding& f) {
        std::string sig = to_string(f) + '\n';
        for (const TaintStep& step : f.trace)
            sig += "  " + to_string(step.location) + ' ' + step.description + '\n';
        return sig;
    };
    size_t j = 0;
    for (size_t i = 0; i < result.findings.size(); ++i) {
        if (i == target) continue;
        const Finding& kept = after.findings[j++];
        if (kept.dedup_key() == finding.dedup_key()) return false;
        if (signature(kept) != signature(result.findings[i])) return false;
    }
    return !Validator(patched).validate(finding).confirmed;
}

TEST(ValidateTest, EveryFixVerdictMatchesAFromScratchRebuild) {
    // Scale 0.5 is the smallest at which some fixes fail: at 0.25 every
    // proposal verifies, so rejected verdicts would go unchecked.
    corpus::CorpusOptions options;
    options.scale = 0.5;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    const Tool tool = make_phpsafe_tool();
    int accepted = 0, rejected = 0;
    std::vector<std::pair<const corpus::GeneratedPlugin*,
                          const corpus::PluginVersionSource*>> versions;
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins)
        for (const auto* version : {&plugin.v2012, &plugin.v2014})
            versions.emplace_back(&plugin, version);
    for (const auto& [plugin, version] : versions) {
        DiagnosticSink sink;
        const php::Project project =
            corpus::build_project(*plugin, *version, sink);
        const AnalysisResult result = run_tool(tool, project);
        ValidateOptions vopts;
        vopts.workers = 1;
        const ValidationReport report =
            validate_result(project, tool.kb, tool.options, result, vopts);
        ASSERT_EQ(report.cases.size(), result.findings.size());
        EXPECT_EQ(report.forks, report.fixes_proposed) << plugin->name;
        EXPECT_GE(report.rescans, report.fixes_verified) << plugin->name;
        for (size_t i = 0; i < result.findings.size(); ++i) {
            const std::optional<Quickfix> fix =
                propose_quickfix(project, tool.kb, result.findings[i]);
            if (!fix) {
                EXPECT_FALSE(report.cases[i].fix.has_value());
                continue;
            }
            const bool expected =
                verify_from_scratch(tool, project, result, i, *fix);
            EXPECT_EQ(report.cases[i].fix.has_value(), expected)
                << plugin->name << " " << version->version << " finding "
                << i << ": " << to_string(result.findings[i]);
            ++(expected ? accepted : rejected);
        }
    }
    EXPECT_GT(accepted, 20);
    EXPECT_GT(rejected, 5);
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
    // Control: b.php reads nothing a.php writes, so the fix changes no
    // other finding and the prepared-statement fix verifies.
    Pipeline control = global_writer_and("<?php\necho $_COOKIE['c'];\n");
    ASSERT_EQ(control.analysis.findings.size(), 2u);
    const ValidationReport control_report = run(control);
    ASSERT_TRUE(sqli_case(control, control_report).fix.has_value());
    EXPECT_EQ(sqli_case(control, control_report).fix->kind,
              Quickfix::Kind::kPrepareStatement);

    // b.php echoes $res. The fix makes $res clean, so b.php's XSS finding
    // disappears too and the "nothing else changed" gate must reject the
    // fix. b.php's text is unchanged by the patch; only re-walking it after
    // the patched a.php, against the globals a.php now leaves, shows that
    // its finding is gone.
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
