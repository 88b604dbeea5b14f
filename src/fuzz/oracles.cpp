#include "fuzz/oracles.h"

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "dynamic/validator.h"
#include "service/watch.h"
#include "util/strings.h"
#include "validate/validate.h"

namespace phpsafe::fuzz {

namespace {

php::Project build_project(const FuzzCase& c, DiagnosticSink& sink) {
    php::Project project("fuzz-" + c.name);
    for (const FuzzFile& file : c.files) project.add_file(file.name, file.text);
    project.parse_all(sink);
    return project;
}

// Deterministic byte rendering of a watch-edit delta: the structural
// numbers (cone size is graph-derived, hence scheduling-independent), the
// added/removed findings and the underlying full-scan signature. Timings
// are excluded, error deltas render as their message.
std::string delta_signature(const service::WatchDelta& delta) {
    if (!delta.ok) return "error: " + delta.error + "\n";
    std::string sig = "changed=" + std::to_string(delta.changed_files) +
                      " cone=" + std::to_string(delta.cone_files) + "/" +
                      std::to_string(delta.cone_functions) + "\n";
    for (const Finding& finding : delta.added) {
        sig += "+ " + to_string(finding);
        sig += '\n';
    }
    for (const Finding& finding : delta.removed) {
        sig += "- " + to_string(finding);
        sig += '\n';
    }
    sig += OracleRunner::result_signature(delta.response.result);
    return sig;
}

}  // namespace

std::string to_string(Oracle oracle) {
    switch (oracle) {
        case Oracle::kNoCrash: return "no-crash";
        case Oracle::kDeterminism: return "determinism";
        case Oracle::kMonotonicity: return "monotonicity";
        case Oracle::kAgreement: return "agreement";
        case Oracle::kConcurrency: return "concurrency";
        case Oracle::kQuickfixSoundness: return "quickfix-soundness";
    }
    return "?";
}

bool oracle_from_string(std::string_view text, Oracle& out) {
    if (text == "no-crash") out = Oracle::kNoCrash;
    else if (text == "determinism") out = Oracle::kDeterminism;
    else if (text == "monotonicity") out = Oracle::kMonotonicity;
    else if (text == "agreement") out = Oracle::kAgreement;
    else if (text == "concurrency") out = Oracle::kConcurrency;
    else if (text == "quickfix-soundness") out = Oracle::kQuickfixSoundness;
    else return false;
    return true;
}

OracleRunner::OracleRunner(OracleOptions options)
    : options_(std::move(options)),
      phpsafe_(options_.phpsafe_tool ? *options_.phpsafe_tool
                                     : make_phpsafe_tool()),
      rips_(options_.rips_tool ? *options_.rips_tool : make_rips_like_tool()) {}

OracleRunner::~OracleRunner() = default;

std::string OracleRunner::result_signature(const AnalysisResult& result) {
    std::string sig = "files=" + std::to_string(result.files_total) +
                      " failed=" + std::to_string(result.files_failed) + "\n";
    for (const Finding& finding : result.findings) {
        sig += to_string(finding);
        sig += '\n';
    }
    return sig;
}

std::vector<Violation> OracleRunner::run(const FuzzCase& c) {
    std::vector<Violation> out;

    const bool needs_static = options_.check_no_crash ||
                              (options_.check_monotonicity && c.monotonic_eligible) ||
                              (options_.check_agreement && c.agreement_eligible) ||
                              options_.check_quickfix;
    if (needs_static) {
        DiagnosticSink sink;
        const php::Project project = build_project(c, sink);
        const AnalysisResult result = run_tool(phpsafe_, project);
        if (options_.check_no_crash) run_no_crash(c, result, out);
        if (options_.check_monotonicity && c.monotonic_eligible)
            run_monotonicity(c, result, project, out);
        if (options_.check_agreement && c.agreement_eligible)
            run_agreement(c, result, project, out);
        if (options_.check_quickfix) run_quickfix(c, result, project, out);
    }
    if (options_.check_determinism) run_determinism(c, out);
    if (options_.check_concurrency) run_concurrency(c, out);
    return out;
}

void OracleRunner::run_no_crash(const FuzzCase& c, const AnalysisResult& result,
                                std::vector<Violation>& out) const {
    // Reaching this line already rules out aborts/crashes (a crash kills
    // the fuzzer process; the CI smoke job runs under ASan to surface
    // them). What is checkable in-process: the engine must account for
    // every input file — analyzed or explicitly failed — in its result.
    if (result.files_total != static_cast<int>(c.files.size()))
        out.push_back(
            {Oracle::kNoCrash,
             "engine result covers " + std::to_string(result.files_total) +
                 " of " + std::to_string(c.files.size()) + " input files"});
}

void OracleRunner::ensure_services() {
    if (serial_) return;
    service::ServiceOptions one;
    one.workers = 1;
    // With the result pool on, a repeat scan would be answered from the
    // stored result — trivially identical. A zero result budget forces the
    // second scan through the warm file-pool path under test.
    one.budgets.result_bytes = 0;
    serial_ = std::make_unique<service::AnalysisService>(one);
    service::ServiceOptions four = one;
    four.workers = 4;
    parallel_ = std::make_unique<service::AnalysisService>(four);
}

void OracleRunner::run_determinism(const FuzzCase& c,
                                   std::vector<Violation>& out) {
    ensure_services();

    service::ScanRequest request;
    request.plugin = "fuzz-" + c.name;
    request.preset = "phpsafe";
    for (const FuzzFile& file : c.files)
        request.files.push_back({file.name, file.text});

    serial_->clear_cache();
    const std::string cold = result_signature(serial_->scan(request).result);
    const std::string warm = result_signature(serial_->scan(request).result);
    parallel_->clear_cache();
    const std::string wide = result_signature(parallel_->scan(request).result);

    if (cold != warm)
        out.push_back({Oracle::kDeterminism,
                       "cold-cache and warm-cache findings differ"});
    if (cold != wide)
        out.push_back({Oracle::kDeterminism,
                       "1-worker and 4-worker findings differ"});
}

void OracleRunner::run_concurrency(const FuzzCase& c,
                                   std::vector<Violation>& out) {
    ensure_services();

    // Three request variants with DISTINCT findings: the base case and two
    // edits each appending a uniquely-named extra source→sink file. Were
    // the variants identical, a scheduler bug that swapped responses
    // between them would be invisible to the oracle.
    constexpr int kVariants = 3;
    std::vector<service::ScanRequest> variants;
    for (int v = 0; v < kVariants; ++v) {
        service::ScanRequest request;
        request.plugin = "fuzz-" + c.name;
        request.preset = "phpsafe";
        for (const FuzzFile& file : c.files)
            request.files.push_back({file.name, file.text});
        if (v > 0)
            request.files.push_back(
                {"fz_concurrency_" + std::to_string(v) + ".php",
                 "<?php echo $_GET['fzc" + std::to_string(v) + "'];"});
        variants.push_back(std::move(request));
    }

    // The two watch-edit batches every client will replay: batch 1 turns
    // the session's file set into variant 1's, batch 2 swaps the extra
    // file so the set becomes variant 2's. Their scans therefore share
    // fingerprints with the pipelined variant submissions — coalescing
    // engages across watch and plain scans.
    service::WatchEditBatch edit1;
    edit1.upserts.emplace_back(variants[1].files.back().name,
                               variants[1].files.back().text);
    service::WatchEditBatch edit2;
    edit2.removals.push_back(variants[1].files.back().name);
    edit2.upserts.emplace_back(variants[2].files.back().name,
                               variants[2].files.back().text);

    // Serial replay on the 1-worker service defines the expected bytes —
    // for the three scan variants and for the watch open/edit/edit
    // sequence alike.
    serial_->clear_cache();
    std::vector<std::string> expected;
    expected.reserve(variants.size());
    for (const service::ScanRequest& request : variants)
        expected.push_back(result_signature(serial_->scan(request).result));
    service::WatchSession replay(*serial_);
    const std::string expected_open =
        result_signature(replay.open(variants[0]).result);
    const std::string expected_edit1 = delta_signature(replay.edit(edit1));
    const std::string expected_edit2 = delta_signature(replay.edit(edit2));

    // N clients submit every variant in a seed-derived order with mixed
    // priorities, pipelined (submit everything, then await), so requests
    // genuinely overlap: coalescing, priority dispatch and cache locking
    // all engage on the shared 4-worker service. Each client additionally
    // drives its own watch session on that service, with the edit batches
    // interleaved between submission and the awaits — incremental deltas
    // must be byte-identical to serial replay under the same pressure.
    parallel_->clear_cache();
    constexpr int kClients = 3;
    std::mutex failures_mutex;
    std::vector<std::string> failures;
    const auto record = [&](std::string detail) {
        std::lock_guard<std::mutex> lock(failures_mutex);
        failures.push_back(std::move(detail));
    };
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            uint64_t state = fnv1a64(c.name) + static_cast<uint64_t>(t);
            std::vector<int> order(static_cast<size_t>(kVariants));
            for (int v = 0; v < kVariants; ++v) order[static_cast<size_t>(v)] = v;
            for (size_t i = order.size(); i > 1; --i) {
                state = state * 6364136223846793005ull + 1442695040888963407ull;
                std::swap(order[i - 1], order[(state >> 33) % i]);
            }
            service::WatchSession watch(*parallel_);
            if (result_signature(watch.open(variants[0]).result) !=
                expected_open)
                record("watch open differs from serial replay");
            std::vector<std::pair<int, service::AnalysisService::Ticket>>
                tickets;
            tickets.reserve(order.size());
            for (int v : order) {
                service::ScanRequest request = variants[static_cast<size_t>(v)];
                request.priority = static_cast<int>(state % 3);
                tickets.emplace_back(v, parallel_->submit(std::move(request)));
            }
            if (delta_signature(watch.edit(edit1)) != expected_edit1)
                record("watch edit 1 delta differs from serial replay");
            bool first_await = true;
            for (auto& [v, ticket] : tickets) {
                const std::string got =
                    result_signature(parallel_->await(ticket).result);
                if (got != expected[static_cast<size_t>(v)])
                    record("response for variant " + std::to_string(v) +
                           " under " + std::to_string(kClients) +
                           "-client interleaving differs from serial replay");
                if (first_await) {
                    first_await = false;
                    if (delta_signature(watch.edit(edit2)) != expected_edit2)
                        record(
                            "watch edit 2 delta differs from serial replay");
                }
            }
        });
    }
    for (std::thread& t : clients) t.join();

    for (std::string& detail : failures)
        out.push_back({Oracle::kConcurrency, std::move(detail)});
}

void OracleRunner::run_quickfix(const FuzzCase& c,
                                const AnalysisResult& phpsafe_result,
                                const php::Project& project,
                                std::vector<Violation>& out) const {
    // The soundness claim is about fixes on analyzable code; a case the
    // engine could not fully parse has no verified fixes to check.
    if (phpsafe_result.files_failed != 0) return;

    validate::ValidateOptions vopts;
    vopts.workers = 1;
    vopts.propose_fixes = true;
    const validate::ValidationReport report = validate::validate_result(
        project, phpsafe_.kb, phpsafe_.options, phpsafe_result, vopts);

    for (size_t i = 0; i < report.cases.size(); ++i) {
        const validate::CaseOutcome& outcome = report.cases[i];
        if (!outcome.fix) continue;
        const Finding& target = phpsafe_result.findings[i];
        const std::string label =
            to_string(outcome.fix->kind) + " fix for " + to_string(target);

        // Every emitted fix must carry the verified flag (the pipeline's
        // contract: unverified proposals are dropped, not surfaced).
        if (!outcome.fix->verified) {
            out.push_back({Oracle::kQuickfixSoundness,
                           "unverified proposal emitted: " + label});
            continue;
        }

        // Re-check the verification gates INDEPENDENTLY of the pipeline's
        // own loop: apply the edit, rebuild the patched project from plain
        // text (no shared-AST shortcut), and rescan from scratch.
        const std::optional<std::string> patched_text =
            validate::apply_quickfix(project, *outcome.fix);
        if (!patched_text) {
            out.push_back({Oracle::kQuickfixSoundness,
                           "verified fix does not apply to its own source: " +
                               label});
            continue;
        }
        php::Project patched("quickfix-" + c.name);
        for (const auto& file : project.files()) {
            const std::string name(file->source->name());
            patched.add_file(name, name == outcome.fix->file
                                       ? *patched_text
                                       : std::string(file->source->text()));
        }
        DiagnosticSink sink;
        patched.parse_all(sink);
        bool reparse_clean = true;
        for (const auto& file : patched.files())
            if (file->parse_failed) reparse_clean = false;
        if (!reparse_clean) {
            out.push_back({Oracle::kQuickfixSoundness,
                           "patched unit no longer parses: " + label});
            continue;
        }

        const AnalysisResult rescan = run_tool(phpsafe_, patched);
        const std::string target_key = target.dedup_key();
        std::vector<std::string> before_others;
        for (size_t j = 0; j < phpsafe_result.findings.size(); ++j)
            if (j != i)
                before_others.push_back(to_string(phpsafe_result.findings[j]));
        std::vector<std::string> after_all;
        bool target_alive = false;
        for (const Finding& finding : rescan.findings) {
            if (finding.dedup_key() == target_key) {
                target_alive = true;
                continue;
            }
            after_all.push_back(to_string(finding));
        }
        if (target_alive)
            out.push_back({Oracle::kQuickfixSoundness,
                           "targeted flow survives the fix: " + label});
        if (after_all != before_others)
            out.push_back({Oracle::kQuickfixSoundness,
                           "fix perturbs unrelated findings: " + label});

        // And the exploit replay on the patched unit must be dead.
        dynamic::Validator validator(patched);
        if (validator.validate(target).confirmed)
            out.push_back({Oracle::kQuickfixSoundness,
                           "exploit replay still confirms after the fix: " +
                               label});
    }
}

void OracleRunner::run_monotonicity(const FuzzCase& c,
                                    const AnalysisResult& phpsafe_result,
                                    const php::Project& project,
                                    std::vector<Violation>& out) const {
    const AnalysisResult rips_result = run_tool(rips_, project);
    // The subset claim only holds when both presets analyzed every file
    // (a failed file legitimately drops findings on one side).
    if (phpsafe_result.files_failed != 0 || rips_result.files_failed != 0)
        return;
    std::set<std::string> phpsafe_keys;
    for (const Finding& finding : phpsafe_result.findings)
        phpsafe_keys.insert(finding.dedup_key());
    for (const Finding& finding : rips_result.findings) {
        if (!phpsafe_keys.count(finding.dedup_key()))
            out.push_back({Oracle::kMonotonicity,
                           "rips_like finding missing from phpsafe preset: " +
                               to_string(finding)});
    }
    (void)c;
}

void OracleRunner::run_agreement(const FuzzCase& c,
                                 const AnalysisResult& phpsafe_result,
                                 const php::Project& project,
                                 std::vector<Violation>& out) const {
    if (phpsafe_result.files_failed != 0) return;
    dynamic::Validator validator(project);
    for (const SinkSite& site : c.sinks) {
        Finding candidate;
        candidate.kind = site.kind;
        candidate.location = {site.file, site.line};
        candidate.vector = site.vector;
        const dynamic::ValidationResult proof = validator.validate(candidate);
        if (!proof.confirmed) continue;
        bool reported = false;
        for (const Finding& finding : phpsafe_result.findings) {
            if (finding.kind == site.kind && finding.location.file == site.file &&
                finding.location.line == site.line) {
                reported = true;
                break;
            }
        }
        if (!reported)
            out.push_back(
                {Oracle::kAgreement,
                 "dynamically confirmed " + to_string(site.kind) + " at " +
                     site.file + ":" + std::to_string(site.line) +
                     " not reported by the static engine (evidence: " +
                     proof.evidence + ")"});
    }
}

}  // namespace phpsafe::fuzz
