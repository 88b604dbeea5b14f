// Content-addressed cache for the long-lived analysis service. Two pools,
// each with its own LRU byte budget:
//
//   - file pool: lexed+parsed files keyed by (file name, fnv1a64 of the
//     text). A hit injects the shared immutable AST into the next project
//     via php::Project::add_parsed(), skipping lexing and parsing — the two
//     stages that dominate model-construction CPU (php.build_ms in
//     phpbench's layer metrics).
//   - result pool: whole AnalysisResults keyed by (preset fingerprint,
//     project fingerprint). A hit answers a scan without touching the
//     engine at all.
//
// Function summaries are not cached across scans: every scan that misses
// the result pool re-analyzes the whole project. A cross-scan summary pool
// (dependency-validated artifacts seeded into the next run) was measured
// to cost more per edit than the analysis it skipped, so the engine reuses
// a summary within one run only (paper §III.C).
//
// Each pool is one strict LRU behind one mutex: inserting over the pool's
// byte budget evicts its least recently used entries until it fits, and
// the budgets are the cache's only memory bound. A lock is held for one
// map lookup or insert, never across a lex, parse or analysis, so served
// traffic rarely finds it taken (BENCH_serve.json, docs/service.md). Byte
// sizes are estimates (approx_bytes) — good enough to bound memory, not an
// allocator audit.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/finding.h"
#include "php/project.h"

namespace phpsafe::service {

/// Per-pool LRU byte budgets. Zero disables a pool entirely (every lookup
/// misses, nothing is admitted) — used by tests to exercise eviction and to
/// force every scan through the engine.
struct CacheBudgets {
    uint64_t file_bytes = 64ull << 20;
    uint64_t result_bytes = 16ull << 20;
};

/// Point-in-time cache statistics (also mirrored into obs::Counters).
struct CacheStats {
    uint64_t file_entries = 0;
    uint64_t result_entries = 0;
    uint64_t bytes_resident = 0;
    uint64_t file_hits = 0;
    uint64_t file_misses = 0;
    uint64_t result_hits = 0;
    uint64_t evictions = 0;
};

/// Resident-size estimates used for LRU byte accounting. A parsed file is
/// charged its arena's reserved bytes plus its text, so the file budget
/// bounds what the pool really keeps resident.
uint64_t approx_bytes(const php::ParsedFile& file);
uint64_t approx_bytes(const Finding& finding);
uint64_t approx_bytes(const AnalysisResult& result);

class AnalysisCache {
public:
    explicit AnalysisCache(CacheBudgets budgets = {});

    // -- file pool -----------------------------------------------------------
    /// Returns the cached parse of (name, content_hash), or null on miss.
    std::shared_ptr<const php::ParsedFile> find_file(std::string_view name,
                                                     uint64_t content_hash);
    void insert_file(const std::shared_ptr<const php::ParsedFile>& file);

    // -- result pool ---------------------------------------------------------
    std::shared_ptr<const AnalysisResult> find_result(std::string_view preset,
                                                      uint64_t project_fingerprint);
    void insert_result(std::string_view preset, uint64_t project_fingerprint,
                       const AnalysisResult& result);

    CacheStats stats() const;
    void clear();

private:
    /// One LRU entry: key → {payload, bytes}; lru front = most recent.
    struct Entry {
        std::shared_ptr<const void> payload;
        uint64_t bytes = 0;
        std::list<std::string>::iterator lru_pos;
    };
    /// One pool; every field but `budget` is guarded by `mutex`.
    struct Pool {
        explicit Pool(uint64_t budget) : budget(budget) {}
        mutable std::mutex mutex;
        std::map<std::string, Entry> entries;
        std::list<std::string> lru;
        uint64_t bytes = 0;
        const uint64_t budget;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
    };

    /// Looks `key` up, counting the hit or miss and refreshing its recency.
    static std::shared_ptr<const void> find(Pool& pool, const std::string& key);
    /// Admits an entry that fits the budget, evicting LRU entries to make
    /// room.
    static void insert(Pool& pool, const std::string& key,
                       std::shared_ptr<const void> payload, uint64_t bytes);

    Pool files_;
    Pool results_;
};

}  // namespace phpsafe::service
