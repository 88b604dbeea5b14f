// Content-addressed cache for the long-lived analysis service. Three pools,
// each with its own LRU byte budget:
//
//   - file pool: lexed+parsed files keyed by (file name, fnv1a64 of the
//     text). A hit injects the shared immutable AST into the next project
//     via php::Project::add_parsed(), skipping lexing and parsing — the two
//     stages that dominate model-construction CPU (see BENCH_scale.json).
//   - summary pool: reusable SummaryArtifacts (core/summaries.h) keyed by
//     (analysis-preset fingerprint, lowercased qualified function name,
//     content hash of the declaring file). Before an artifact seeds a new
//     run, every recorded dependency is revalidated against the new project
//     (DepCheckMemo); a changed file therefore invalidates its dependents'
//     summaries through the include/call graph while their ASTs — keyed by
//     content alone — stay usable.
//   - result pool: whole AnalysisResults keyed by (preset fingerprint,
//     project fingerprint). A hit answers a scan without touching the
//     engine at all.
//
// Concurrency model: each pool is split into up to CacheBudgets::shards
// independently-locked shards, selected by hashing the entry key, so a
// server's worker threads only contend when they touch the same slice of
// the key space. Each shard owns an equal slice of the pool's byte budget
// and runs strict LRU within itself: inserting over the shard budget
// evicts that shard's least recently used entries until it fits. A pool
// whose whole budget is smaller than 64 KiB per shard collapses to fewer
// shards (floor one), so tiny test budgets keep the exact single-LRU
// semantics the eviction tests pin down. Byte sizes are estimates
// (approx_bytes) — good enough to bound memory, not an allocator audit.
//
// Statistics are kept in relaxed atomics (hit/miss/eviction totals at the
// cache level, occupancy gauges per shard), so stats() assembles its
// snapshot without taking a single shard lock — a monitoring thread never
// stalls the scan path. Shard lock acquisitions bump the obs::Counters
// cache_shard_probes / cache_shard_contention pair on the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/finding.h"
#include "core/summaries.h"
#include "php/project.h"

namespace phpsafe::service {

/// Per-pool LRU byte budgets. Zero disables a pool entirely (every lookup
/// misses, nothing is admitted) — used by tests to exercise eviction.
struct CacheBudgets {
    uint64_t file_bytes = 64ull << 20;
    uint64_t summary_bytes = 64ull << 20;
    uint64_t result_bytes = 16ull << 20;
    /// Upper bound on lock shards per pool. Each shard gets an equal slice
    /// of the pool budget, but never less than 64 KiB — pools with small
    /// budgets use fewer shards rather than uselessly tiny ones.
    int shards = 8;
};

/// Occupancy of one lock shard (aggregated across the three pools).
struct CacheShardStats {
    uint64_t entries = 0;
    uint64_t bytes = 0;
};

/// Point-in-time cache statistics (also mirrored into obs::Counters).
struct CacheStats {
    uint64_t file_entries = 0;
    uint64_t summary_entries = 0;
    uint64_t result_entries = 0;
    uint64_t bytes_resident = 0;
    uint64_t file_hits = 0;
    uint64_t file_misses = 0;
    uint64_t summary_hits = 0;
    uint64_t summary_misses = 0;
    uint64_t result_hits = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    /// Entries dropped by shed() — admission-control pressure relief.
    uint64_t shed_entries = 0;
    /// Per-shard occupancy, indexed by shard; sized by the file pool's
    /// shard count (the widest pool).
    std::vector<CacheShardStats> shards;
};

/// Resident-size estimates used for LRU byte accounting. A parsed file is
/// charged its arena's reserved bytes plus its text, so the file budget
/// bounds what the pool really keeps resident.
uint64_t approx_bytes(const php::ParsedFile& file);
uint64_t approx_bytes(const Finding& finding);
uint64_t approx_bytes(const SummaryArtifact& artifact);
uint64_t approx_bytes(const AnalysisResult& result);

/// Dependency validation for one scan request: before a cached summary
/// seeds a run, every dependency it recorded must still hold in the new
/// project — kFile deps re-hash (through the project's file-name index,
/// Project::file_named), resolution deps re-resolve to the same file. A
/// false result means seeding the artifact would be unsound. Each distinct
/// (kind, name) resolves against the project once per request; every later
/// summary whose dependency list mentions the same name is answered from
/// the memo. The cache_dep_walk_* obs counters record the work
/// (cache_dep_walks lists walked, cache_dep_walk_steps project lookups
/// performed, cache_dep_walk_memo_hits records answered without one). Not
/// thread-safe; one memo per request.
class DepCheckMemo {
public:
    explicit DepCheckMemo(const php::Project& project) : project_(project) {}

    /// True when every dependency of `artifact` still holds.
    bool validate(const SummaryArtifact& artifact);

private:
    const php::Project& project_;
    /// (dep kind, name) → the file the name currently resolves to; ""
    /// when unresolved, so a dep recorded unresolved must stay unresolved.
    std::map<std::pair<int, std::string>, std::string> resolutions_;
};

class AnalysisCache {
public:
    explicit AnalysisCache(CacheBudgets budgets = {});

    // -- file pool -----------------------------------------------------------
    /// Returns the cached parse of (name, content_hash), or null on miss.
    std::shared_ptr<const php::ParsedFile> find_file(std::string_view name,
                                                     uint64_t content_hash);
    void insert_file(const std::shared_ptr<const php::ParsedFile>& file);

    // -- summary pool --------------------------------------------------------
    /// `preset` is AnalysisOptions::fingerprint(); `declaring_hash` the
    /// content hash of the file declaring the function. Returns a shared
    /// handle so a concurrent eviction cannot free an artifact mid-scan.
    std::shared_ptr<const SummaryArtifact> find_summary(
        std::string_view preset, std::string_view qualified_lower,
        uint64_t declaring_hash);
    void insert_summary(std::string_view preset, std::string_view qualified_lower,
                        uint64_t declaring_hash, SummaryArtifact artifact);

    // -- result pool ---------------------------------------------------------
    std::shared_ptr<const AnalysisResult> find_result(std::string_view preset,
                                                      uint64_t project_fingerprint);
    void insert_result(std::string_view preset, uint64_t project_fingerprint,
                       const AnalysisResult& result);

    /// Bumps the invalidation counters (a cached summary failed dependency
    /// validation against a new project).
    void note_invalidation();

    /// Pressure relief for admission control: releases at least
    /// `target_bytes` of resident payload (or everything, whichever is
    /// smaller), shedding whole-result entries first, then summaries, and
    /// parsed files only as a last resort — results are pure cost savers
    /// while a warm file/summary pool is what keeps the queue draining
    /// fast. Returns the bytes actually released.
    uint64_t shed(uint64_t target_bytes);

    CacheStats stats() const;
    void clear();

    /// Lock shards per pool actually in use (after the budget floor):
    /// {file, summary, result}.
    int file_shards() const { return static_cast<int>(files_.shards.size()); }
    int summary_shards() const {
        return static_cast<int>(summaries_.shards.size());
    }
    int result_shards() const { return static_cast<int>(results_.shards.size()); }

private:
    /// One LRU entry: key → {payload, bytes}; lru front = most recent.
    struct Entry {
        std::shared_ptr<const void> payload;
        uint64_t bytes = 0;
        std::list<std::string>::iterator lru_pos;
    };
    /// One independently-locked slice of a pool.
    struct Shard {
        mutable std::mutex mutex;
        std::map<std::string, Entry> entries;
        std::list<std::string> lru;
        uint64_t bytes = 0;       ///< guarded by mutex
        uint64_t budget = 0;      ///< immutable after construction
        /// Lock-free mirrors of entries.size() / bytes for stats().
        std::atomic<uint64_t> entries_gauge{0};
        std::atomic<uint64_t> bytes_gauge{0};
    };
    /// A pool = its shards (unique_ptr: Shard is neither movable nor
    /// copyable because of the mutex and atomics).
    struct Pool {
        std::vector<std::unique_ptr<Shard>> shards;
    };

    static void init_pool(Pool& pool, uint64_t budget, int shards);
    Shard& shard_for(Pool& pool, std::string_view key);
    /// find/insert run under the shard lock taken by the caller.
    std::shared_ptr<const void> find(Shard& shard, const std::string& key);
    void insert(Shard& shard, const std::string& key,
                std::shared_ptr<const void> payload, uint64_t bytes);
    void evict_over_budget(Shard& shard);
    /// Evicts `shard`'s LRU tail until `freed` grows by up to `target`.
    uint64_t shed_from(Shard& shard, uint64_t target);

    Pool files_;
    Pool summaries_;
    Pool results_;

    // Cache-level statistics: relaxed atomics so stats() never locks.
    std::atomic<uint64_t> bytes_resident_{0};
    std::atomic<uint64_t> file_hits_{0};
    std::atomic<uint64_t> file_misses_{0};
    std::atomic<uint64_t> summary_hits_{0};
    std::atomic<uint64_t> summary_misses_{0};
    std::atomic<uint64_t> result_hits_{0};
    std::atomic<uint64_t> evictions_{0};
    std::atomic<uint64_t> invalidations_{0};
    std::atomic<uint64_t> shed_entries_{0};
};

}  // namespace phpsafe::service
