// Tests for the fuzzing subsystem (src/fuzz/): regression-corpus replay,
// seed-reproducible case generation, the fault-injection seam that proves
// the interpreter-agreement oracle catches a deliberately broken tool, and
// the regression file format round-trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "corpus/patterns.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "fuzz/oracles.h"
#include "fuzz/reducer.h"
#include "php/project.h"
#include "validate/validate.h"

#ifndef PHPSAFE_FUZZ_CORPUS_DIR
#define PHPSAFE_FUZZ_CORPUS_DIR "tests/fuzz_corpus/regressions"
#endif

namespace phpsafe::fuzz {
namespace {

// -- regression corpus --------------------------------------------------------

// Every checked-in regression (each a past crash or oracle violation,
// minimized) must replay clean. A failure here means a fixed bug came back.
TEST(FuzzRegressionCorpus, ReplaysClean) {
    const FuzzStats stats = replay_corpus(PHPSAFE_FUZZ_CORPUS_DIR, OracleOptions{});
    EXPECT_GE(stats.corpus_replayed, 3) << "regression corpus went missing";
    for (const Violation& v : stats.corpus_violations)
        ADD_FAILURE() << "[" << to_string(v.oracle) << "] " << v.detail;
}

// -- reproducibility ----------------------------------------------------------

// The acceptance contract: the same seed must produce the same mutation
// sequence, observable through the FNV-1a chain over every generated case.
TEST(FuzzReproducibility, SameSeedSameCaseTrace) {
    FuzzOptions options;
    options.seed = 7;
    options.iterations = 40;
    // Generation only: replaying/writing the corpus is covered elsewhere.
    options.corpus_dir.clear();
    options.write_regressions = false;

    const FuzzStats first = run_fuzz(options);
    const FuzzStats second = run_fuzz(options);
    EXPECT_EQ(first.case_trace_hash, second.case_trace_hash);
    EXPECT_EQ(first.iterations_run, second.iterations_run);
    EXPECT_EQ(first.structure_cases, second.structure_cases);
    EXPECT_TRUE(first.clean()) << "fixed-seed smoke run found violations";

    options.seed = 8;
    const FuzzStats other = run_fuzz(options);
    EXPECT_NE(first.case_trace_hash, other.case_trace_hash)
        << "different seeds must explore different cases";
}

// -- seeded fault -------------------------------------------------------------

// Removing the $_COOKIE source rule from the knowledge base makes the
// static engine miss a cookie-to-echo XSS that the dynamic validator can
// confirm concretely — exactly the false negative the interpreter-agreement
// oracle exists to catch.
TEST(FuzzSeededFault, RemovedCookieSourceIsCaughtByAgreementOracle) {
    Tool faulty = make_phpsafe_tool();
    faulty.kb.remove_superglobal("$_COOKIE");

    OracleOptions options;
    options.check_determinism = false;
    options.check_monotonicity = false;
    options.phpsafe_tool = faulty;
    OracleRunner runner(options);

    Mutator mutator(1);
    const FuzzCase c =
        mutator.structure_case_for(corpus::Family::kXssCookieEcho, 0, 0);
    ASSERT_TRUE(c.agreement_eligible);

    const std::vector<Violation> found = runner.run(c);
    ASSERT_FALSE(found.empty()) << "agreement oracle missed the seeded fault";
    bool agreement = false;
    for (const Violation& v : found) agreement |= v.oracle == Oracle::kAgreement;
    EXPECT_TRUE(agreement);

    // The delta-debugging reducer must shrink the repro to something a
    // human can read in one screen, and it must still violate.
    const FuzzCase minimized = reduce_case(c, Oracle::kAgreement, runner);
    EXPECT_LE(minimized.total_lines(), 25);
    bool still_fails = false;
    for (const Violation& v : runner.run(minimized))
        still_fails |= v.oracle == Oracle::kAgreement;
    EXPECT_TRUE(still_fails) << "reducer lost the violation";
}

// The intact tool passes the exact same case — the violation above is the
// fault, not the oracle.
TEST(FuzzSeededFault, IntactToolPassesTheSameCase) {
    OracleRunner runner;
    Mutator mutator(1);
    const FuzzCase c =
        mutator.structure_case_for(corpus::Family::kXssCookieEcho, 0, 0);
    const std::vector<Violation> found = runner.run(c);
    for (const Violation& v : found)
        ADD_FAILURE() << "[" << to_string(v.oracle) << "] " << v.detail;
}

// A removed sanitizer rule is *not* a static false negative (unknown
// functions propagate taint conservatively), so the battery must stay
// quiet: the seeded-fault test above fails for the right reason.
TEST(FuzzSeededFault, RemovedSanitizerStaysConservative) {
    Tool faulty = make_phpsafe_tool();
    faulty.kb.remove_function("htmlspecialchars");

    OracleOptions options;
    options.check_determinism = false;
    options.check_monotonicity = false;
    options.phpsafe_tool = faulty;
    OracleRunner runner(options);

    Mutator mutator(3);
    const FuzzCase c =
        mutator.structure_case_for(corpus::Family::kXssGetEcho, 0, 0);
    for (const Violation& v : runner.run(c))
        EXPECT_NE(v.oracle, Oracle::kAgreement) << v.detail;
}

// The concurrency oracle holds on a vulnerable multi-file case: randomized
// multi-client interleavings of the request variants reproduce the serial
// replay byte-for-byte.
TEST(FuzzOracles, ConcurrencyOracleCleanOnVulnerableCase) {
    OracleOptions options;
    options.check_no_crash = false;
    options.check_determinism = false;
    options.check_monotonicity = false;
    options.check_agreement = false;
    options.check_concurrency = true;
    OracleRunner runner(options);

    FuzzCase c;
    c.name = "concurrency-clean";
    c.files.push_back({"lib.php", "<?php function fwd($v) { return $v; }"});
    c.files.push_back(
        {"main.php",
         "<?php include 'lib.php'; echo fwd($_GET['q']);"});
    for (const Violation& v : runner.run(c))
        ADD_FAILURE() << "[" << to_string(v.oracle) << "] " << v.detail;
}

// The quickfix-soundness oracle re-checks every verified fix against a
// from-scratch rebuild of the patched project and a fresh scan, so it
// cross-checks fix verification's single-file fork and its gates. a.php
// stores a DB result in the global $res and b.php echoes it: the SQLi fix
// in a.php also clears b.php's XSS finding, so verification must reject
// it (the oracle would flag it as perturbing an unrelated finding), while
// b.php's own XSS fix verifies and is re-checked.
TEST(FuzzOracles, QuickfixOracleCleanOnVulnerableCase) {
    OracleOptions options;
    options.check_no_crash = false;
    options.check_determinism = false;
    options.check_monotonicity = false;
    options.check_agreement = false;
    options.check_quickfix = true;
    OracleRunner runner(options);

    FuzzCase c;
    c.name = "quickfix-clean";
    c.files.push_back(
        {"a.php",
         "<?php\n$conn = mysqli_connect('h', 'u', 'p');\n"
         "$res = mysqli_query($conn, \"SELECT * FROM t WHERE id = '\" . "
         "$_GET['id'] . \"'\");\n"});
    c.files.push_back({"b.php", "<?php\necho $res;\n"});
    for (const Violation& v : runner.run(c))
        ADD_FAILURE() << "[" << to_string(v.oracle) << "] " << v.detail;

    // Not vacuous: both findings get a proposal and exactly one verifies,
    // so the oracle re-checked one emitted fix.
    php::Project project("quickfix-clean");
    for (const FuzzFile& file : c.files) project.add_file(file.name, file.text);
    DiagnosticSink sink;
    project.parse_all(sink);
    const Tool tool = make_phpsafe_tool();
    const AnalysisResult result =
        Analyzer::borrowing(tool.kb, tool.options).scan(project).result;
    ASSERT_EQ(result.findings.size(), 2u);
    const validate::ValidationReport report = validate::validate_result(
        project, tool.kb, tool.options, result, validate::ValidateOptions{});
    EXPECT_EQ(report.fixes_proposed, 2);
    EXPECT_EQ(report.fixes_verified, 1);
}

TEST(FuzzOracles, ConcurrencyOracleNameRoundTrips) {
    EXPECT_EQ(to_string(Oracle::kConcurrency), "concurrency");
    Oracle oracle = Oracle::kNoCrash;
    ASSERT_TRUE(oracle_from_string("concurrency", oracle));
    EXPECT_EQ(oracle, Oracle::kConcurrency);
}

// -- regression file format ---------------------------------------------------

TEST(FuzzCaseFormat, RoundTripsArbitraryBytes) {
    FuzzCase c;
    c.name = "bytes";
    c.byte_level = true;
    std::string text = "<?php echo ";
    text.push_back('\0');
    text += "\xff\xfe 'x';\n# not a header\n--8<-- file: fake len=9\n";
    // File *names* with spaces survive (the file mark anchors on " len=");
    // sink lines are whitespace-delimited, so sinks only ever reference the
    // space-free names the mutator generates.
    c.files.push_back({"weird name.php", text});
    c.files.push_back({"empty.php", ""});
    c.sinks.push_back({"empty.php", 1, VulnKind::kSqli, InputVector::kCookie});

    const std::string body = serialize_case(c, Oracle::kDeterminism);
    FuzzCase parsed;
    Oracle oracle = Oracle::kNoCrash;
    std::string error;
    ASSERT_TRUE(parse_case(body, parsed, oracle, &error)) << error;
    EXPECT_EQ(oracle, Oracle::kDeterminism);
    EXPECT_EQ(parsed.name, c.name);
    EXPECT_TRUE(parsed.byte_level);
    ASSERT_EQ(parsed.files.size(), 2u);
    EXPECT_EQ(parsed.files[0].name, "weird name.php");
    EXPECT_EQ(parsed.files[0].text, text);
    EXPECT_EQ(parsed.files[1].text, "");
    ASSERT_EQ(parsed.sinks.size(), 1u);
    EXPECT_EQ(parsed.sinks[0].file, "empty.php");
    EXPECT_EQ(parsed.sinks[0].line, 1);
    EXPECT_EQ(parsed.sinks[0].kind, VulnKind::kSqli);
    EXPECT_EQ(parsed.sinks[0].vector, InputVector::kCookie);
}

TEST(FuzzCaseFormat, RejectsTruncatedBody) {
    FuzzCase c;
    c.name = "t";
    c.files.push_back({"main.php", "<?php echo 1;\n"});
    std::string body = serialize_case(c, Oracle::kNoCrash);
    body.resize(body.size() - 6);  // chop into the file body
    FuzzCase parsed;
    Oracle oracle;
    EXPECT_FALSE(parse_case(body, parsed, oracle));
}

// -- mutation envelope sanity -------------------------------------------------

// Structure cases must stay inside the envelope the oracles assume:
// agreement cases have exactly one candidate sink per validated file, and
// every sink line must actually exist in its file.
TEST(FuzzMutator, StructureCasesKeepSinkLinesInRange) {
    Mutator mutator(99);
    for (int i = 0; i < 200; ++i) {
        const FuzzCase c = mutator.structure_case(i);
        ASSERT_FALSE(c.files.empty());
        for (const SinkSite& site : c.sinks) {
            int lines = 0;
            bool found = false;
            for (const FuzzFile& file : c.files) {
                if (file.name != site.file) continue;
                found = true;
                lines = 1;
                for (char ch : file.text)
                    if (ch == '\n') ++lines;
            }
            ASSERT_TRUE(found) << c.name << ": sink in unknown file " << site.file;
            ASSERT_GE(site.line, 1) << c.name;
            ASSERT_LE(site.line, lines) << c.name << ": sink line out of range";
        }
    }
}

}  // namespace
}  // namespace phpsafe::fuzz
