// AnalysisService: a long-lived front door for the analysis engine. Where
// the batch tools (baselines/run_tool, the evaluation driver) build a fresh
// project and engine per scan, the service keeps an AnalysisCache across
// scans and answers each request with the cheapest sound path:
//
//   1. result pool hit — the exact (plugin content, preset) was scanned
//      before: the stored AnalysisResult is returned without running
//      anything.
//   2. warm scan — unchanged files come from the file pool pre-parsed
//      (or arrive pinned by a watch session); the engine then analyzes
//      the whole project.
//   3. cold scan — everything misses; the scan also populates the cache.
//
// Function summaries are never carried from one scan to the next: the
// engine reuses a summary within one run only (paper §III.C). Every path
// therefore runs the same analysis on the same ASTs, and deduplicate()
// imposes a total order, so findings are byte-identical across cache
// states. tests/determinism_test.cpp and tests/service_test.cpp assert
// equality across cache states, worker counts and request interleavings.
//
// Concurrency: submit() enqueues a request and returns a ticket; a
// TaskTeam of worker threads drains the queue continuously, highest
// priority first — there is no batch barrier, so a slow scan never delays
// the dispatch of an unrelated later one. Identical in-flight requests
// (same plugin content + preset) are deduplicated onto one scan; the
// coalesced request keeps the first submitter's priority. A queued (not
// yet started) scan can be cancel()ed; its awaiters get a response with
// `cancelled` set and no result. When `max_queue_depth` is configured,
// submit() applies admission control: requests beyond the depth limit are
// rejected immediately (`rejected` in the response) instead of growing the
// queue without bound, and crossing the pressure watermark sheds cache
// bytes — whole-result entries first, parsed files last (AnalysisCache::
// shed) — so a request wave doesn't meet a memory-squeezed engine.
// await() blocks until the ticket's scan is done; scan() is the
// synchronous submit+await convenience.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "core/finding.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "util/worker_pool.h"
#include "validate/validate.h"

namespace phpsafe::service {

struct ServiceOptions {
    /// Worker threads for scan dispatch; <= 0 means auto (PHPSAFE_JOBS or
    /// hardware concurrency, via WorkerPool::resolve_parallelism).
    int workers = 0;
    CacheBudgets budgets;
    /// Master switch for the result pool (the file pool is always on — AST
    /// reuse is unconditionally sound).
    bool reuse_results = true;
    /// Admission control: submit() rejects once this many scans are queued
    /// and not yet started. 0 = unbounded (library default; the NDJSON
    /// server configures a bound).
    size_t max_queue_depth = 0;
    /// Queue depth at which cache pressure shedding kicks in; 0 derives
    /// half of max_queue_depth (so it stays off when that is unbounded).
    size_t pressure_queue_depth = 0;
    /// Optional span sink (not owned; must outlive the service).
    obs::Tracer* tracer = nullptr;
};

/// One source file of a scan request. Callers that already know the file
/// (the watch sessions of service/watch.h) can skip re-hashing and even
/// re-parsing:
///   - `known_hash` non-zero pre-computes content_hash(text) — the scan
///     trusts it instead of hashing the text again,
///   - `parsed` non-null pins an immutable AST that is injected directly
///     (php::Project::add_parsed), so neither text nor hash are needed and
///     the per-file cache probe is skipped entirely.
/// Either way the request fingerprint is computed from the per-file
/// content hashes, so a pinned, a pre-hashed and a plain-text spec of the
/// same content are the same request (they coalesce and share result-pool
/// entries).
struct SourceFileSpec {
    SourceFileSpec() = default;
    SourceFileSpec(std::string name, std::string text)
        : name(std::move(name)), text(std::move(text)) {}

    std::string name;
    std::string text;
    uint64_t known_hash = 0;
    std::shared_ptr<const php::ParsedFile> parsed;
};

struct ScanRequest {
    std::string plugin;
    /// Analysis preset: "phpsafe" (default), "rips" or "pixy". The preset
    /// picks the knowledge base and engine options; all presets run with
    /// hermetic_summaries on (see the AnalysisService constructor).
    std::string preset = "phpsafe";
    /// Scheduling priority: higher runs sooner; never affects results or
    /// the request fingerprint (identical content at different priorities
    /// still coalesces).
    int priority = 0;
    std::vector<SourceFileSpec> files;
};

struct ScanResponse {
    AnalysisResult result;
    /// obs counter delta of this scan (zero when served from the result
    /// pool of a previous scan... the result hit itself is counted).
    obs::Counters counters;
    bool from_result_cache = false;
    /// True when this request coalesced onto an identical in-flight scan.
    bool deduplicated = false;
    /// True when the scan was cancelled before it started (no result).
    bool cancelled = false;
    /// True when admission control refused the request (no result).
    bool rejected = false;
    int files_reused = 0;      ///< parsed files injected from the cache
    /// Always 0: the service seeds no summaries across scans. Kept because
    /// the benchmark harness (phpbench/watch_edits.cpp) compiles against
    /// it and checks it as an exact per-edit count.
    int summaries_seeded = 0;
    double wall_seconds = 0;
    /// 1-based order in which a worker picked this scan off the queue
    /// (0 for rejected/cancelled-before-dispatch responses) — observable
    /// scheduling, used by the priority tests.
    uint64_t dispatch_seq = 0;
};

/// Answer to one validate request: the underlying scan (cache-aware like
/// any other scan), the validation report, and the tiered copy of the
/// result with per-finding confidence stamped in.
struct ValidateResponse {
    ScanResponse scan;
    /// scan.result with Finding::confidence applied from the report.
    AnalysisResult tiered;
    validate::ValidationReport report;
    /// True when the whole tiered response was replayed from the
    /// validate cache (same request fingerprint validated before).
    bool from_validate_cache = false;
    double wall_seconds = 0;
};

class AnalysisService {
public:
    explicit AnalysisService(ServiceOptions options = {});
    ~AnalysisService();

    AnalysisService(const AnalysisService&) = delete;
    AnalysisService& operator=(const AnalysisService&) = delete;

    class Ticket {
    public:
        bool valid() const noexcept { return scan_ != nullptr; }

    private:
        friend class AnalysisService;
        std::shared_ptr<struct PendingScan> scan_;
        bool coalesced = false;
    };

    /// Enqueues a scan. Identical requests (same plugin name, preset and
    /// file contents) already queued or running return a ticket onto the
    /// same scan with `deduplicated` set in the eventual response.
    Ticket submit(ScanRequest request);

    /// Blocks until the ticket's scan completes and returns its response.
    ScanResponse await(const Ticket& ticket);

    /// submit() + await().
    ScanResponse scan(ScanRequest request);

    /// Scan (through the normal queue and caches) + batch-validate every
    /// finding through the exploit-confirmation pipeline, with verified
    /// quickfixes. Responses are cached by request fingerprint like scan
    /// results: an identical request replays the stored tiered response
    /// with `from_validate_cache` set.
    ValidateResponse validate(const ScanRequest& request);

    /// Cancels a scan that has not started yet: its awaiters receive a
    /// response with `cancelled` set, and the fingerprint is released so a
    /// later identical submit runs fresh. Returns false when the scan
    /// already started (or finished) — a running scan is never torn down.
    /// Cancelling affects every ticket coalesced onto the scan.
    bool cancel(const Ticket& ticket);

    /// Scans queued and not yet picked up by a worker.
    size_t queue_depth() const;

    /// Test hook: while paused, workers finish their current scan and then
    /// idle, so tests can build a provable backlog (coalescing, priority
    /// order, cancellation). Never await() a ticket submitted under
    /// pause() before calling resume().
    void pause();
    void resume();

    CacheStats cache_stats() const { return cache_.stats(); }
    /// Drops every cache pool, including stored validate responses.
    void clear_cache();
    AnalysisCache& cache() { return cache_; }

    /// Stable fingerprint of a request's analysis input (plugin name,
    /// preset, file names and per-file content hashes) — the
    /// result-pool / dedup key. Hashing content hashes rather than full
    /// texts keeps the fingerprint identical across the three
    /// SourceFileSpec forms (text, pre-hashed, pinned AST) and makes
    /// fingerprinting O(names) for watch-mode requests. Scheduling fields
    /// (priority) are excluded on purpose.
    static uint64_t request_fingerprint(const ScanRequest& request);

    /// The content hash a spec contributes to the fingerprint: the pinned
    /// AST's hash, the pre-computed hash, or a fresh hash of the text.
    static uint64_t spec_content_hash(const SourceFileSpec& spec);

private:
    void run_scan(const std::shared_ptr<PendingScan>& scan);
    ScanResponse perform_scan(PendingScan& scan);
    void finish(const std::shared_ptr<PendingScan>& scan,
                ScanResponse response);
    void release_fingerprint(const std::shared_ptr<PendingScan>& scan);
    void maybe_shed();

    ServiceOptions options_;
    AnalysisCache cache_;
    /// Preset name → fully configured tool, built once at construction.
    std::map<std::string, Tool> presets_;

    /// Validate-response cache: request fingerprint → stored tiered
    /// response, FIFO-capped. Guarded by its own mutex (validate() runs
    /// outside the scan queue).
    mutable std::mutex validate_mutex_;
    std::map<uint64_t, std::shared_ptr<const ValidateResponse>>
        validate_cache_;
    std::vector<uint64_t> validate_order_;

    mutable std::mutex mutex_;
    /// fingerprint → queued or running scan (for in-flight dedup).
    std::map<uint64_t, std::weak_ptr<PendingScan>> in_flight_;
    std::atomic<uint64_t> dispatch_counter_{0};
    /// Rising-edge latch for pressure shedding: re-arms when the queue
    /// drains below the watermark, so a sustained deep queue sheds once.
    std::atomic<bool> shed_armed_{true};
    /// Declared last: destroyed first, so worker threads have finished
    /// (running every queued scan to completion) before any state above
    /// goes away.
    std::unique_ptr<TaskTeam> team_;
};

}  // namespace phpsafe::service
