// Oracle battery for the fuzzer. Each oracle is a property the analyzer
// must hold on *every* input, checked per mutated case:
//
//   no-crash      — lexer/parser/engine return an AnalysisResult covering
//                   every file (diagnostics, never aborts) on arbitrary
//                   bytes.
//   determinism   — AnalysisService findings are byte-identical between a
//                   1-worker and a 4-worker service, and between a cold
//                   and a warm cache (parsed-file reuse re-scan).
//   monotonicity  — on procedural generic-PHP code, rips_like() findings
//                   are a subset of phpsafe() findings (the phpSAFE preset
//                   only ever adds capability on that fragment).
//   agreement     — when dynamic::Validator proves a concrete payload
//                   reaches a candidate sink, the static engine must have
//                   reported that sink: a validated miss is a real false
//                   negative, the paper's key metric.
//   quickfix-soundness — every quickfix the validation pipeline emits as
//                   `verified` must hold up under independent re-checking:
//                   applying the edit reparses clean, kills the targeted
//                   flow (the finding's dedup key vanishes from a fresh
//                   rescan and the exploit replay no longer confirms), and
//                   leaves every OTHER finding byte-identical. A fix that
//                   breaks the parse, misses its flow, or perturbs an
//                   unrelated finding is a violation.
//   concurrency   — N client threads submit randomized interleavings of
//                   request variants (base case plus distinct edits, mixed
//                   priorities) to one shared multi-worker service, each
//                   also driving its own WatchSession (open + edit batches
//                   interleaved with the pipelined scans); every response
//                   and every incremental delta must be byte-identical to
//                   the same sequence replayed serially on a single-worker
//                   service. This is the server's scheduling-independence
//                   invariant under fuzz pressure: dedup, priorities and
//                   shard locking may move WHEN a scan runs, never what it
//                   reports.
//
// OracleOptions lets tests inject a deliberately broken Tool (e.g. a
// knowledge base with one source rule removed) to prove the battery
// actually catches seeded faults.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "fuzz/mutator.h"
#include "service/service.h"

namespace phpsafe::fuzz {

enum class Oracle {
    kNoCrash,
    kDeterminism,
    kMonotonicity,
    kAgreement,
    kConcurrency,
    kQuickfixSoundness
};

std::string to_string(Oracle oracle);
bool oracle_from_string(std::string_view text, Oracle& out);

struct OracleOptions {
    bool check_no_crash = true;
    bool check_determinism = true;
    bool check_monotonicity = true;
    bool check_agreement = true;
    /// Off by default in the per-case battery: it spawns client threads per
    /// case, which the smoke loop cannot afford for every mutation. The
    /// dedicated fuzz-smoke stage and tests/fuzz_test.cpp turn it on.
    bool check_concurrency = false;
    /// Off by default for the same budget reason: each case pays a full
    /// validation pipeline plus one rescan per emitted fix. The dedicated
    /// fuzz-smoke batch and tests/fuzz_test.cpp turn it on.
    bool check_quickfix = false;
    /// Static-analysis tool overrides (fault-injection seam for the tests;
    /// unset = make_phpsafe_tool() / make_rips_like_tool()).
    std::optional<Tool> phpsafe_tool;
    std::optional<Tool> rips_tool;
};

struct Violation {
    Oracle oracle = Oracle::kNoCrash;
    std::string detail;
};

class OracleRunner {
public:
    explicit OracleRunner(OracleOptions options = {});
    ~OracleRunner();

    OracleRunner(const OracleRunner&) = delete;
    OracleRunner& operator=(const OracleRunner&) = delete;

    /// Runs every enabled oracle the case is eligible for.
    std::vector<Violation> run(const FuzzCase& c);

    /// Deterministic rendering of a result's findings — the byte string
    /// the determinism oracle compares (timings excluded on purpose).
    static std::string result_signature(const AnalysisResult& result);

private:
    void run_no_crash(const FuzzCase& c, const AnalysisResult& result,
                      std::vector<Violation>& out) const;
    void run_determinism(const FuzzCase& c, std::vector<Violation>& out);
    void run_concurrency(const FuzzCase& c, std::vector<Violation>& out);
    void ensure_services();
    void run_quickfix(const FuzzCase& c, const AnalysisResult& phpsafe_result,
                      const php::Project& project,
                      std::vector<Violation>& out) const;
    void run_monotonicity(const FuzzCase& c, const AnalysisResult& phpsafe_result,
                          const php::Project& project,
                          std::vector<Violation>& out) const;
    void run_agreement(const FuzzCase& c, const AnalysisResult& phpsafe_result,
                       const php::Project& project,
                       std::vector<Violation>& out) const;

    OracleOptions options_;
    Tool phpsafe_;
    Tool rips_;
    /// Long-lived services (cleared per case) so 2000 iterations do not pay
    /// thread setup 6000 times.
    std::unique_ptr<service::AnalysisService> serial_;
    std::unique_ptr<service::AnalysisService> parallel_;
};

}  // namespace phpsafe::fuzz
