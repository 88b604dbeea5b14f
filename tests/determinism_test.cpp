// Determinism of the parse-once evaluation pipeline: a parallel evaluation
// must produce statistics byte-identical to a serial one — same counters,
// same detected-id sets, same derived paper metrics. Timing fields are the
// only machine-dependent outputs and are excluded. Run this test in a
// -DPHPSAFE_SANITIZE=thread build to race-check the pipeline (ctest -R
// Determinism).
#include <gtest/gtest.h>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "report/evaluation.h"
#include "report/export.h"
#include "service/service.h"
#include "validate/validate.h"

namespace phpsafe {
namespace {

void expect_identical_stats(const Evaluation& a, const Evaluation& b) {
    ASSERT_EQ(a.tool_names, b.tool_names);
    for (const char* version : {"2012", "2014"}) {
        ASSERT_TRUE(a.stats.count(version));
        ASSERT_TRUE(b.stats.count(version));
        for (const std::string& tool : a.tool_names) {
            const EvaluationStats& sa = a.stats.at(version).at(tool);
            const EvaluationStats& sb = b.stats.at(version).at(tool);
            EXPECT_EQ(sa.tp, sb.tp) << version << "/" << tool;
            EXPECT_EQ(sa.fp, sb.fp) << version << "/" << tool;
            EXPECT_EQ(sa.tp_xss, sb.tp_xss) << version << "/" << tool;
            EXPECT_EQ(sa.fp_xss, sb.fp_xss) << version << "/" << tool;
            EXPECT_EQ(sa.tp_sqli, sb.tp_sqli) << version << "/" << tool;
            EXPECT_EQ(sa.fp_sqli, sb.fp_sqli) << version << "/" << tool;
            EXPECT_EQ(sa.tp_oop, sb.tp_oop) << version << "/" << tool;
            EXPECT_EQ(sa.files_failed, sb.files_failed) << version << "/" << tool;
            EXPECT_EQ(sa.error_messages, sb.error_messages)
                << version << "/" << tool;
            EXPECT_EQ(sa.detected_ids, sb.detected_ids) << version << "/" << tool;
            EXPECT_EQ(sa.detected_ids_xss, sb.detected_ids_xss)
                << version << "/" << tool;
            EXPECT_EQ(sa.detected_ids_sqli, sb.detected_ids_sqli)
                << version << "/" << tool;
            // Observability counters are exact event counts, captured as
            // per-thread deltas and merged in a fixed order — they must be
            // byte-identical at any parallelism (field-wise == via the
            // X-macro-generated comparison).
            EXPECT_TRUE(sa.counters == sb.counters)
                << version << "/" << tool << ": counter totals differ ("
                << sa.counters.total() << " vs " << sb.counters.total() << ")";
        }
        EXPECT_EQ(a.union_detected(version), b.union_detected(version));
        EXPECT_EQ(a.paper_false_negatives(version),
                  b.paper_false_negatives(version));
        ASSERT_TRUE(a.truth.count(version) && b.truth.count(version));
        EXPECT_EQ(a.truth.at(version).size(), b.truth.at(version).size());
    }
}

TEST(DeterminismTest, ParallelEvaluationMatchesSerial) {
    EvaluationOptions serial;
    serial.corpus_scale = 0.2;
    serial.parallelism = 1;
    EvaluationOptions parallel = serial;
    parallel.parallelism = 4;
    const Evaluation a = run_corpus_evaluation(paper_tool_set(), serial);
    const Evaluation b = run_corpus_evaluation(paper_tool_set(), parallel);
    expect_identical_stats(a, b);
}

TEST(DeterminismTest, RepeatedParallelRunsAreStable) {
    EvaluationOptions options;
    options.corpus_scale = 0.1;
    options.parallelism = 3;
    const Evaluation a = run_corpus_evaluation(paper_tool_set(), options);
    const Evaluation b = run_corpus_evaluation(paper_tool_set(), options);
    expect_identical_stats(a, b);
}

// The analysis service must be invisible in the output: findings are a
// function of (plugin content, preset) alone — not of cache state and not
// of the worker count. Serve the corpus's first plugins through services in
// every combination of {cold, warm-after-edit} x {1 worker, 4 workers} and
// require byte-identical reports.
TEST(DeterminismTest, ServiceFindingsIndependentOfCacheStateAndWorkers) {
    corpus::CorpusOptions corpus_options;
    corpus_options.scale = 0.05;
    const corpus::Corpus corpus = corpus::generate_corpus(corpus_options);

    std::vector<service::ScanRequest> requests;
    for (size_t i = 0; i < 3 && i < corpus.plugins.size(); ++i) {
        service::ScanRequest request;
        request.plugin = corpus.plugins[i].name;
        for (const auto& [name, text] : corpus.plugins[i].v2014.files)
            request.files.push_back({name, text});
        // The edited revision every arm is judged on.
        request.files[0].text += "\n// rev 2\n";
        requests.push_back(std::move(request));
    }

    std::vector<std::vector<std::string>> arms;
    for (const int workers : {1, 4}) {
        for (const bool warm : {false, true}) {
            service::ServiceOptions options;
            options.workers = workers;
            service::AnalysisService svc(options);
            if (warm) {
                // Prime with the pre-edit revision so the judged scan runs
                // against a populated file pool.
                for (service::ScanRequest request : requests) {
                    request.files[0].text.resize(
                        request.files[0].text.size() - 10);
                    (void)svc.scan(std::move(request));
                }
            }
            std::vector<std::string> reports;
            for (const service::ScanRequest& request : requests)
                reports.push_back(render_json_report(svc.scan(request).result));
            arms.push_back(std::move(reports));
        }
    }
    for (size_t i = 1; i < arms.size(); ++i)
        EXPECT_EQ(arms[0], arms[i]) << "arm " << i << " diverged";
}

// Arena-lifetime probe: with a parsed-file pool too small to hold more than
// one file, arenas (and all string_views into them) are destroyed while the
// scans that parsed them may still be referenced — by the responses handed
// out and by the parses the next scan reuses. Re-editing only the entry file
// forces each scan to mix fresh and evicted-then-reparsed files; anything a
// summary or finding kept by view instead of by copy dangles here, which a
// -DPHPSAFE_SANITIZE=address build turns into a hard failure. Findings must
// also stay byte-identical to an eviction-free service.
TEST(DeterminismTest, SummariesSurviveParsedFileEviction) {
    const std::vector<service::SourceFileSpec> files = {
        {"lib.php", "<?php function wrap($v) { return inner($v); }"},
        {"util.php", "<?php function inner($v) { return $v; }"},
        {"main.php",
         "<?php include 'lib.php'; include 'util.php'; "
         "echo wrap($_GET['x']);"}};
    auto make_request = [&](int rev) {
        service::ScanRequest request;
        request.plugin = "evict-probe";
        request.files = files;
        request.files.back().text += "\n// rev " + std::to_string(rev) + "\n";
        return request;
    };

    service::ServiceOptions starved;
    // Holds roughly one parsed file (each charges its 1 KiB arena block
    // plus text): admitting the next file evicts the previous one, so
    // arenas churn constantly.
    starved.budgets.file_bytes = 1536;
    starved.budgets.result_bytes = 0;  // force the full pipeline every scan
    service::AnalysisService churn(starved);
    service::AnalysisService reference;

    std::vector<std::string> churn_reports, reference_reports;
    for (int rev = 0; rev < 4; ++rev) {
        const service::ScanRequest request = make_request(rev);
        churn_reports.push_back(render_json_report(churn.scan(request).result));
        reference_reports.push_back(
            render_json_report(reference.scan(request).result));
    }
    EXPECT_GT(churn.cache_stats().evictions, 0u);
    EXPECT_EQ(churn_reports, reference_reports);
}

// The batch validation + remediation pipeline must render the same
// validation_signature (tiers, replay verdicts, verified fix edits) at any
// worker count. Run under TSan this also race-checks the replay fan-out and
// the parallel fix verification.
TEST(DeterminismTest, ValidationSignatureStableAcrossWorkers) {
    const std::string code =
        "<?php\n"
        "echo '<p>' . $_GET['msg'] . '</p>';\n"
        "echo '<i>' . $_POST['note'] . '</i>';\n"
        "echo htmlspecialchars($_GET['safe']);\n"
        "$id = $_GET['id'];\n"
        "global $wpdb;\n"
        "$wpdb->query(\"DELETE FROM t WHERE id = '$id'\");\n"
        "echo $_GET['raw'];\n";

    const Tool tool = make_phpsafe_tool();
    php::Project project("determinism");
    project.add_file("main.php", code);
    DiagnosticSink sink;
    project.parse_all(sink);
    const AnalysisResult result =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
    ASSERT_FALSE(result.findings.empty());

    std::vector<std::string> signatures;
    for (const int workers : {1, 4}) {
        validate::ValidateOptions vopts;
        vopts.workers = workers;
        const validate::ValidationReport report = validate::validate_result(
            project, tool.kb, tool.options, result, vopts);
        signatures.push_back(validate::validation_signature(result, report));
    }
    EXPECT_EQ(signatures[0], signatures[1])
        << "signature differs between 1 and 4 workers";
}

}  // namespace
}  // namespace phpsafe
