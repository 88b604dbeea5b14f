// Golden reproduction test: pins the full-scale Table I headline numbers
// this repository reproduces exactly (see EXPERIMENTS.md). If a change to
// the engine, the knowledge base or the corpus moves any of these, this
// test fails — the reproduction contract is part of the test suite.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "report/evaluation.h"
#include "service/server.h"

namespace phpsafe {
namespace {

class GoldenReproduction : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        evaluation_ = new Evaluation(
            run_corpus_evaluation(paper_tool_set(), EvaluationOptions{}));
    }
    static void TearDownTestSuite() {
        delete evaluation_;
        evaluation_ = nullptr;
    }
    static const EvaluationStats& stats(const char* version, const char* tool) {
        return evaluation_->stats.at(version).at(tool);
    }
    static Evaluation* evaluation_;
};

Evaluation* GoldenReproduction::evaluation_ = nullptr;

TEST_F(GoldenReproduction, GlobalTruePositivesMatchPaperExactly) {
    // Paper Table I global TP row: phpSAFE 315/387, RIPS 134/304.
    EXPECT_EQ(stats("2012", "phpSAFE").tp, 315);
    EXPECT_EQ(stats("2014", "phpSAFE").tp, 387);
    EXPECT_EQ(stats("2012", "RIPS").tp, 134);
    EXPECT_EQ(stats("2014", "RIPS").tp, 304);
}

TEST_F(GoldenReproduction, PixyInPaperRange) {
    // Paper: 50/20. Calibration keeps it within a few counts.
    EXPECT_NEAR(stats("2012", "Pixy").tp, 50, 10);
    EXPECT_NEAR(stats("2014", "Pixy").tp, 20, 8);
}

TEST_F(GoldenReproduction, FalsePositivesNearPaper) {
    EXPECT_NEAR(stats("2012", "phpSAFE").fp, 65, 5);
    EXPECT_NEAR(stats("2014", "phpSAFE").fp, 62, 5);
    EXPECT_NEAR(stats("2012", "RIPS").fp, 79, 5);
    EXPECT_NEAR(stats("2014", "RIPS").fp, 79, 5);
    EXPECT_NEAR(stats("2012", "Pixy").fp, 187, 15);
    EXPECT_NEAR(stats("2014", "Pixy").fp, 208, 15);
}

TEST_F(GoldenReproduction, SqliOnlyPhpSafe) {
    // Paper: phpSAFE SQLi TP 8 (2012) / 9 (2014); RIPS and Pixy 0.
    EXPECT_EQ(stats("2012", "phpSAFE").tp_sqli, 8);
    EXPECT_EQ(stats("2014", "phpSAFE").tp_sqli, 9);
    EXPECT_EQ(stats("2012", "RIPS").tp_sqli, 0);
    EXPECT_EQ(stats("2014", "RIPS").tp_sqli, 0);
    EXPECT_EQ(stats("2012", "Pixy").tp_sqli, 0);
    EXPECT_EQ(stats("2014", "Pixy").tp_sqli, 0);
}

TEST_F(GoldenReproduction, OopVulnerabilitiesMatchPaperExactly) {
    // Paper §V.A: 151 (2012) / 179 (2014) OOP vulns, phpSAFE only.
    EXPECT_EQ(stats("2012", "phpSAFE").tp_oop, 151);
    EXPECT_EQ(stats("2014", "phpSAFE").tp_oop, 179);
    EXPECT_EQ(stats("2012", "RIPS").tp_oop, 0);
    EXPECT_EQ(stats("2012", "Pixy").tp_oop, 0);
}

TEST_F(GoldenReproduction, UnionMatchesFig2Exactly) {
    // Paper Fig. 2: 394 distinct vulnerabilities in 2012, 586 in 2014.
    EXPECT_EQ(evaluation_->union_detected("2012").size(), 394u);
    EXPECT_EQ(evaluation_->union_detected("2014").size(), 586u);
}

TEST_F(GoldenReproduction, RobustnessMatchesPaperExactly) {
    // Paper §V.E: phpSAFE failed 1 file (2012) / 3 (2014); RIPS none.
    EXPECT_EQ(stats("2012", "phpSAFE").files_failed, 1);
    EXPECT_EQ(stats("2014", "phpSAFE").files_failed, 3);
    EXPECT_EQ(stats("2012", "RIPS").files_failed, 0);
    EXPECT_EQ(stats("2014", "RIPS").files_failed, 0);
    EXPECT_GT(stats("2012", "Pixy").files_failed, 30);
}

TEST_F(GoldenReproduction, CorpusVitals) {
    EXPECT_EQ(evaluation_->corpus.plugins.size(), 35u);
    EXPECT_EQ(evaluation_->truth.at("2012").size(), 394u);
    EXPECT_EQ(evaluation_->truth.at("2014").size(), 586u);
}

// -- NDJSON protocol transcript ----------------------------------------------

// Drives the phpsafe_serve protocol (service/ndjson.h) with a scripted
// session checked in at tests/golden/<stem>.in through one of the server's
// two request loops (service/server.h) and compares every response line
// against the checked-in transcript <stem>.out. Regenerate a fixture after
// an intentional protocol change with:
//   ./build/tools/phpsafe_serve --deterministic
//     < tests/golden/ndjson_session.in > tests/golden/ndjson_session.out
// (one command; wrapped here for line length). That is the serial loop,
// the one every transcript is pinned on.
enum class Loop { kSerial, kPipelined };

void expect_transcript_matches(const std::string& stem, Loop loop) {
    const std::string dir = PHPSAFE_GOLDEN_DIR;
    std::ifstream script(dir + "/" + stem + ".in", std::ios::binary);
    std::ifstream expected(dir + "/" + stem + ".out", std::ios::binary);
    ASSERT_TRUE(script) << "missing " << dir << "/" << stem << ".in";
    ASSERT_TRUE(expected) << "missing " << dir << "/" << stem << ".out";

    service::ServerOptions options;
    options.deterministic = true;
    service::AnalysisServer server(options);
    std::ostringstream actual;
    if (loop == Loop::kSerial)
        server.serve_serial(script, actual);
    else
        server.serve_session(script, actual);

    std::istringstream got(actual.str());
    std::string want_line, got_line;
    int line_no = 0;
    while (std::getline(expected, want_line)) {
        ++line_no;
        ASSERT_TRUE(std::getline(got, got_line))
            << "response ended early at transcript line " << line_no;
        EXPECT_EQ(got_line, want_line) << "transcript line " << line_no;
    }
    EXPECT_FALSE(std::getline(got, got_line))
        << "extra response beyond the transcript: " << got_line;
}

// Scan (cold + result-cache hit + rips preset), stats before/after clear,
// malformed JSON, unknown ops, and quit. Serial loop only: in a pipelined
// session the repeated scan is submitted while the first may still be in
// flight, so timing decides whether it comes back as deduplicated or as a
// result-cache hit.
TEST(GoldenNdjsonProtocol, SessionTranscriptMatches) {
    expect_transcript_matches("ndjson_session", Loop::kSerial);
}

// The watch-mode transcript: edit before watch, open, delta after a
// sanitizer regression, graph analytics (± detail), a new-file edit, a
// mixed upsert+remove batch, the error shapes (unknown remove target,
// unknown key, slot on watch), and a standalone graph payload with a
// self-include cycle and a dead file. Every op in it is a barrier in a
// pipelined session, so both loops answer it byte for byte.
TEST(GoldenNdjsonProtocol, WatchTranscriptMatches) {
    expect_transcript_matches("ndjson_watch", Loop::kSerial);
}

TEST(GoldenNdjsonProtocol, WatchTranscriptMatchesPipelined) {
    expect_transcript_matches("ndjson_watch", Loop::kPipelined);
}

// The validate-op transcript: scan + payload validate (tiers, quickfixes,
// confidence in the report), the validate-cache replay on a byte-identical
// request, the strict error shapes (unknown key, stray keys without a
// payload, no open session), and session-aware validate against an open
// watch. Pinned on both loops like ndjson_watch.
TEST(GoldenNdjsonProtocol, ValidateTranscriptMatches) {
    expect_transcript_matches("ndjson_validate", Loop::kSerial);
}

TEST(GoldenNdjsonProtocol, ValidateTranscriptMatchesPipelined) {
    expect_transcript_matches("ndjson_validate", Loop::kPipelined);
}

}  // namespace
}  // namespace phpsafe
