#include "service/cache.h"

#include <algorithm>
#include <cstdio>

#include "obs/counters.h"
#include "util/strings.h"

namespace phpsafe::service {

namespace {

/// Joins pool key components with a separator that cannot appear in file
/// names or fingerprints.
constexpr char kSep = '\x1f';

/// Minimum budget slice worth giving its own lock: below this a pool runs
/// fewer shards so per-shard LRU still behaves like the whole-pool LRU the
/// small-budget eviction tests rely on.
constexpr uint64_t kMinShardBudget = 64ull << 10;

std::string hex64(uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

constexpr auto relaxed = std::memory_order_relaxed;

}  // namespace

uint64_t approx_bytes(const php::ParsedFile& file) {
    // The model (AST and facts block) is arena-allocated, so the arena's
    // reserved blocks plus the retained source text are what the entry
    // keeps resident. Reserved, not allocated: a block's unused tail is
    // resident too. Heap headers and the ParsedFile itself are the 64-byte
    // estimate.
    return 64 + file.arena.bytes_reserved() + file.text_bytes;
}

uint64_t approx_bytes(const Finding& finding) {
    uint64_t bytes = 96 + finding.location.file.size() + finding.sink.size() +
                     finding.variable.size();
    for (const TaintStep& step : finding.trace)
        bytes += 48 + step.location.file.size() + step.description.size();
    return bytes;
}

uint64_t approx_bytes(const SummaryArtifact& artifact) {
    uint64_t bytes = 256;
    for (const Finding& finding : artifact.findings) bytes += approx_bytes(finding);
    for (const SummaryDep& dep : artifact.deps)
        bytes += 56 + dep.name.size() + dep.file.size();
    const FunctionSummary& s = artifact.summary;
    bytes += s.param_to_return.size() * 24 + s.param_outputs.size() * 160;
    for (const ParamSinkFlow& psf : s.param_sinks)
        bytes += 96 + psf.location.file.size() + psf.sink_name.size() +
                 psf.variable.size();
    return bytes;
}

uint64_t approx_bytes(const AnalysisResult& result) {
    uint64_t bytes = 256 + result.tool.size() + result.plugin.size();
    for (const Finding& finding : result.findings) bytes += approx_bytes(finding);
    for (const Diagnostic& d : result.diagnostics)
        bytes += 64 + d.location.file.size() + d.message.size();
    return bytes;
}

bool DepCheckMemo::validate(const SummaryArtifact& artifact) {
    ++obs::tls().cache_dep_walks;
    for (const SummaryDep& dep : artifact.deps) {
        if (dep.kind == SummaryDep::Kind::kFile) {
            // The project's file-name index is the memo for file deps.
            ++obs::tls().cache_dep_walk_memo_hits;
            const php::ParsedFile* file = project_.file_named(dep.name);
            if (!file || file->content_hash != dep.hash) return false;
            continue;
        }
        auto key = std::make_pair(static_cast<int>(dep.kind), dep.name);
        auto memo = resolutions_.find(key);
        if (memo == resolutions_.end()) {
            ++obs::tls().cache_dep_walk_steps;
            std::string resolved;
            switch (dep.kind) {
                case SummaryDep::Kind::kFunction: {
                    const php::FunctionRef* ref =
                        project_.find_function(dep.name);
                    if (ref) resolved.assign(ref->file);
                    break;
                }
                case SummaryDep::Kind::kMethod: {
                    const size_t sep = dep.name.find("::");
                    if (sep == std::string::npos) {
                        // A malformed record never validates: the sentinel
                        // cannot be a file.
                        resolved = "\x1f<malformed>";
                        break;
                    }
                    const php::FunctionRef* ref = project_.find_method(
                        std::string_view(dep.name).substr(0, sep),
                        std::string_view(dep.name).substr(sep + 2));
                    if (ref) resolved.assign(ref->file);
                    break;
                }
                case SummaryDep::Kind::kMethodAny: {
                    const php::FunctionRef* ref =
                        project_.find_method_any(dep.name);
                    if (ref) resolved.assign(ref->file);
                    break;
                }
                case SummaryDep::Kind::kClass: {
                    if (project_.find_class(dep.name))
                        resolved = project_.file_of_class(dep.name);
                    break;
                }
                case SummaryDep::Kind::kInclude: {
                    const php::ParsedFile* file =
                        project_.resolve_include(dep.name);
                    if (file) resolved = file->source->name();
                    break;
                }
                case SummaryDep::Kind::kFile:
                    break;  // handled above
            }
            memo = resolutions_.emplace(std::move(key), std::move(resolved))
                       .first;
        } else {
            ++obs::tls().cache_dep_walk_memo_hits;
        }
        if (memo->second != dep.file) return false;
    }
    return true;
}

void AnalysisCache::init_pool(Pool& pool, uint64_t budget, int shards) {
    int count = std::max(1, shards);
    // Don't split a small budget into slices too tiny to hold an entry:
    // collapse to however many >= 64 KiB slices fit, floor one.
    if (budget / static_cast<uint64_t>(count) < kMinShardBudget)
        count = std::max<int>(
            1, static_cast<int>(budget / kMinShardBudget));
    pool.shards.reserve(count);
    for (int i = 0; i < count; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->budget = budget / static_cast<uint64_t>(count);
        pool.shards.push_back(std::move(shard));
    }
}

AnalysisCache::AnalysisCache(CacheBudgets budgets) {
    init_pool(files_, budgets.file_bytes, budgets.shards);
    init_pool(summaries_, budgets.summary_bytes, budgets.shards);
    init_pool(results_, budgets.result_bytes, budgets.shards);
}

AnalysisCache::Shard& AnalysisCache::shard_for(Pool& pool,
                                               std::string_view key) {
    const size_t index = pool.shards.size() == 1
                             ? 0
                             : fnv1a64(key) % pool.shards.size();
    return *pool.shards[index];
}

namespace {

/// Takes a shard lock, counting acquisitions and the ones that had to
/// wait — the contention signal bench_serve reports per worker count.
template <typename Mutex>
std::unique_lock<Mutex> lock_shard(Mutex& mutex) {
    ++obs::tls().cache_shard_probes;
    std::unique_lock<Mutex> lock(mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
        ++obs::tls().cache_shard_contention;
        lock.lock();
    }
    return lock;
}

}  // namespace

std::shared_ptr<const void> AnalysisCache::find(Shard& shard,
                                                const std::string& key) {
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return nullptr;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return it->second.payload;
}

void AnalysisCache::insert(Shard& shard, const std::string& key,
                           std::shared_ptr<const void> payload, uint64_t bytes) {
    if (bytes > shard.budget) return;  // would evict the whole shard for nothing
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        // Refresh in place (same content key, so the payload is equivalent).
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
        return;
    }
    shard.lru.push_front(key);
    Entry entry;
    entry.payload = std::move(payload);
    entry.bytes = bytes;
    entry.lru_pos = shard.lru.begin();
    shard.entries.emplace(key, std::move(entry));
    shard.bytes += bytes;
    shard.entries_gauge.store(shard.entries.size(), relaxed);
    shard.bytes_gauge.store(shard.bytes, relaxed);
    bytes_resident_.fetch_add(bytes, relaxed);
    obs::tls().cache_bytes_inserted += bytes;
    evict_over_budget(shard);
}

void AnalysisCache::evict_over_budget(Shard& shard) {
    while (shard.bytes > shard.budget && !shard.lru.empty()) {
        const std::string& victim = shard.lru.back();
        const auto it = shard.entries.find(victim);
        shard.bytes -= it->second.bytes;
        bytes_resident_.fetch_sub(it->second.bytes, relaxed);
        obs::tls().cache_bytes_evicted += it->second.bytes;
        ++obs::tls().cache_evictions;
        evictions_.fetch_add(1, relaxed);
        shard.entries.erase(it);
        shard.lru.pop_back();
    }
    shard.entries_gauge.store(shard.entries.size(), relaxed);
    shard.bytes_gauge.store(shard.bytes, relaxed);
}

uint64_t AnalysisCache::shed_from(Shard& shard, uint64_t target) {
    auto lock = lock_shard(shard.mutex);
    uint64_t freed = 0;
    while (freed < target && !shard.lru.empty()) {
        const std::string& victim = shard.lru.back();
        const auto it = shard.entries.find(victim);
        freed += it->second.bytes;
        shard.bytes -= it->second.bytes;
        bytes_resident_.fetch_sub(it->second.bytes, relaxed);
        obs::tls().cache_bytes_evicted += it->second.bytes;
        ++obs::tls().cache_shed_entries;
        shed_entries_.fetch_add(1, relaxed);
        shard.entries.erase(it);
        shard.lru.pop_back();
    }
    shard.entries_gauge.store(shard.entries.size(), relaxed);
    shard.bytes_gauge.store(shard.bytes, relaxed);
    obs::tls().cache_shed_bytes += freed;
    return freed;
}

uint64_t AnalysisCache::shed(uint64_t target_bytes) {
    uint64_t freed = 0;
    // Results first (pure cost savers), summaries second, parsed files
    // last — the warm model pools are what keep a deep queue draining.
    for (Pool* pool : {&results_, &summaries_, &files_}) {
        for (const auto& shard : pool->shards) {
            if (freed >= target_bytes) return freed;
            freed += shed_from(*shard, target_bytes - freed);
        }
    }
    return freed;
}

std::shared_ptr<const php::ParsedFile> AnalysisCache::find_file(
    std::string_view name, uint64_t content_hash) {
    // The key includes the NAME, not just the content: findings embed file
    // names, so the same bytes under a different name must parse separately
    // (the stored SourceFile carries its name).
    std::string key;
    key.reserve(name.size() + 17);
    key.assign(name);
    key += kSep;
    key += hex64(content_hash);
    Shard& shard = shard_for(files_, key);
    std::shared_ptr<const void> payload;
    {
        auto lock = lock_shard(shard.mutex);
        payload = find(shard, key);
    }
    if (payload) {
        ++obs::tls().cache_file_hits;
        file_hits_.fetch_add(1, relaxed);
    } else {
        ++obs::tls().cache_file_misses;
        file_misses_.fetch_add(1, relaxed);
    }
    return std::static_pointer_cast<const php::ParsedFile>(payload);
}

void AnalysisCache::insert_file(
    const std::shared_ptr<const php::ParsedFile>& file) {
    if (!file || !file->source) return;
    std::string key = file->source->name();
    key += kSep;
    key += hex64(file->content_hash);
    const uint64_t bytes = approx_bytes(*file);
    obs::tls().cache_bytes_parsed += bytes;
    Shard& shard = shard_for(files_, key);
    auto lock = lock_shard(shard.mutex);
    insert(shard, key, file, bytes);
}

std::shared_ptr<const SummaryArtifact> AnalysisCache::find_summary(
    std::string_view preset, std::string_view qualified_lower,
    uint64_t declaring_hash) {
    std::string key;
    key.reserve(preset.size() + qualified_lower.size() + 18);
    key.assign(preset);
    key += kSep;
    key += qualified_lower;
    key += kSep;
    key += hex64(declaring_hash);
    Shard& shard = shard_for(summaries_, key);
    std::shared_ptr<const void> payload;
    {
        auto lock = lock_shard(shard.mutex);
        payload = find(shard, key);
    }
    if (payload) {
        summary_hits_.fetch_add(1, relaxed);
    } else {
        summary_misses_.fetch_add(1, relaxed);
    }
    return std::static_pointer_cast<const SummaryArtifact>(payload);
}

void AnalysisCache::insert_summary(std::string_view preset,
                                   std::string_view qualified_lower,
                                   uint64_t declaring_hash,
                                   SummaryArtifact artifact) {
    std::string key;
    key.assign(preset);
    key += kSep;
    key += qualified_lower;
    key += kSep;
    key += hex64(declaring_hash);
    auto shared = std::make_shared<const SummaryArtifact>(std::move(artifact));
    const uint64_t bytes = approx_bytes(*shared);
    Shard& shard = shard_for(summaries_, key);
    auto lock = lock_shard(shard.mutex);
    insert(shard, key, std::move(shared), bytes);
}

std::shared_ptr<const AnalysisResult> AnalysisCache::find_result(
    std::string_view preset, uint64_t project_fingerprint) {
    std::string key;
    key.assign(preset);
    key += kSep;
    key += hex64(project_fingerprint);
    Shard& shard = shard_for(results_, key);
    std::shared_ptr<const void> payload;
    {
        auto lock = lock_shard(shard.mutex);
        payload = find(shard, key);
    }
    if (payload) {
        ++obs::tls().cache_result_hits;
        result_hits_.fetch_add(1, relaxed);
    }
    return std::static_pointer_cast<const AnalysisResult>(payload);
}

void AnalysisCache::insert_result(std::string_view preset,
                                  uint64_t project_fingerprint,
                                  const AnalysisResult& result) {
    std::string key;
    key.assign(preset);
    key += kSep;
    key += hex64(project_fingerprint);
    auto shared = std::make_shared<const AnalysisResult>(result);
    const uint64_t bytes = approx_bytes(*shared);
    Shard& shard = shard_for(results_, key);
    auto lock = lock_shard(shard.mutex);
    insert(shard, key, std::move(shared), bytes);
}

void AnalysisCache::note_invalidation() {
    ++obs::tls().cache_invalidations;
    invalidations_.fetch_add(1, relaxed);
}

CacheStats AnalysisCache::stats() const {
    // Entirely lock-free: totals come from the cache-level atomics,
    // occupancy from the per-shard gauges. The snapshot is not a single
    // linearization point — gauges written under different shard locks may
    // be microseconds apart — which is exactly the usual contract for
    // monitoring counters.
    CacheStats out;
    out.file_hits = file_hits_.load(relaxed);
    out.file_misses = file_misses_.load(relaxed);
    out.summary_hits = summary_hits_.load(relaxed);
    out.summary_misses = summary_misses_.load(relaxed);
    out.result_hits = result_hits_.load(relaxed);
    out.evictions = evictions_.load(relaxed);
    out.invalidations = invalidations_.load(relaxed);
    out.shed_entries = shed_entries_.load(relaxed);
    out.bytes_resident = bytes_resident_.load(relaxed);
    const Pool* pools[] = {&files_, &summaries_, &results_};
    uint64_t* entry_totals[] = {&out.file_entries, &out.summary_entries,
                                &out.result_entries};
    size_t width = 0;
    for (const Pool* pool : pools) width = std::max(width, pool->shards.size());
    out.shards.resize(width);
    for (size_t p = 0; p < 3; ++p) {
        for (size_t i = 0; i < pools[p]->shards.size(); ++i) {
            const Shard& shard = *pools[p]->shards[i];
            const uint64_t entries = shard.entries_gauge.load(relaxed);
            *entry_totals[p] += entries;
            out.shards[i].entries += entries;
            out.shards[i].bytes += shard.bytes_gauge.load(relaxed);
        }
    }
    return out;
}

void AnalysisCache::clear() {
    for (Pool* pool : {&files_, &summaries_, &results_}) {
        for (const auto& shard : pool->shards) {
            auto lock = lock_shard(shard->mutex);
            bytes_resident_.fetch_sub(shard->bytes, relaxed);
            shard->entries.clear();
            shard->lru.clear();
            shard->bytes = 0;
            shard->entries_gauge.store(0, relaxed);
            shard->bytes_gauge.store(0, relaxed);
        }
    }
}

}  // namespace phpsafe::service
