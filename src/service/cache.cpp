#include "service/cache.h"

#include <cstdio>

#include "obs/counters.h"

namespace phpsafe::service {

namespace {

/// Joins pool key components with a separator that cannot appear in file
/// names or fingerprints.
constexpr char kSep = '\x1f';

/// A pool key: a name (file name or preset fingerprint), the separator,
/// and a 64-bit hash as 16 hex digits.
std::string pool_key(std::string_view name, uint64_t hash) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    std::string key;
    key.reserve(name.size() + 17);
    key.assign(name);
    key += kSep;
    key += hex;
    return key;
}

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

uint64_t approx_bytes(const AnalysisResult& result) {
    uint64_t bytes = 256 + result.tool.size() + result.plugin.size();
    for (const Finding& finding : result.findings) bytes += approx_bytes(finding);
    for (const Diagnostic& d : result.diagnostics)
        bytes += 64 + d.location.file.size() + d.message.size();
    return bytes;
}

AnalysisCache::AnalysisCache(CacheBudgets budgets)
    : files_(budgets.file_bytes), results_(budgets.result_bytes) {}

std::shared_ptr<const void> AnalysisCache::find(Pool& pool,
                                                const std::string& key) {
    std::lock_guard<std::mutex> lock(pool.mutex);
    const auto it = pool.entries.find(key);
    if (it == pool.entries.end()) {
        ++pool.misses;
        return nullptr;
    }
    ++pool.hits;
    pool.lru.splice(pool.lru.begin(), pool.lru, it->second.lru_pos);
    return it->second.payload;
}

void AnalysisCache::insert(Pool& pool, const std::string& key,
                           std::shared_ptr<const void> payload, uint64_t bytes) {
    if (bytes > pool.budget) return;  // would evict the whole pool for nothing
    std::lock_guard<std::mutex> lock(pool.mutex);
    const auto it = pool.entries.find(key);
    if (it != pool.entries.end()) {
        // Refresh in place (same content key, so the payload is equivalent).
        pool.lru.splice(pool.lru.begin(), pool.lru, it->second.lru_pos);
        return;
    }
    pool.lru.push_front(key);
    Entry entry;
    entry.payload = std::move(payload);
    entry.bytes = bytes;
    entry.lru_pos = pool.lru.begin();
    pool.entries.emplace(key, std::move(entry));
    pool.bytes += bytes;
    obs::tls().cache_bytes_inserted += bytes;
    while (pool.bytes > pool.budget) {
        const auto victim = pool.entries.find(pool.lru.back());
        pool.bytes -= victim->second.bytes;
        obs::tls().cache_bytes_evicted += victim->second.bytes;
        ++obs::tls().cache_evictions;
        ++pool.evictions;
        pool.entries.erase(victim);
        pool.lru.pop_back();
    }
}

std::shared_ptr<const php::ParsedFile> AnalysisCache::find_file(
    std::string_view name, uint64_t content_hash) {
    // The key includes the NAME, not just the content: findings embed file
    // names, so the same bytes under a different name must parse separately
    // (the stored SourceFile carries its name).
    std::shared_ptr<const void> payload =
        find(files_, pool_key(name, content_hash));
    if (payload)
        ++obs::tls().cache_file_hits;
    else
        ++obs::tls().cache_file_misses;
    return std::static_pointer_cast<const php::ParsedFile>(payload);
}

void AnalysisCache::insert_file(
    const std::shared_ptr<const php::ParsedFile>& file) {
    if (!file || !file->source) return;
    const uint64_t bytes = approx_bytes(*file);
    obs::tls().cache_bytes_parsed += bytes;
    insert(files_, pool_key(file->source->name(), file->content_hash), file,
           bytes);
}

std::shared_ptr<const AnalysisResult> AnalysisCache::find_result(
    std::string_view preset, uint64_t project_fingerprint) {
    std::shared_ptr<const void> payload =
        find(results_, pool_key(preset, project_fingerprint));
    if (payload) ++obs::tls().cache_result_hits;
    return std::static_pointer_cast<const AnalysisResult>(payload);
}

void AnalysisCache::insert_result(std::string_view preset,
                                  uint64_t project_fingerprint,
                                  const AnalysisResult& result) {
    // Sized before copying, so a result the pool cannot admit (a zero
    // budget included) costs no copy.
    const uint64_t bytes = approx_bytes(result);
    if (bytes > results_.budget) return;
    insert(results_, pool_key(preset, project_fingerprint),
           std::make_shared<const AnalysisResult>(result), bytes);
}

CacheStats AnalysisCache::stats() const {
    CacheStats out;
    {
        std::lock_guard<std::mutex> lock(files_.mutex);
        out.file_entries = files_.entries.size();
        out.file_hits = files_.hits;
        out.file_misses = files_.misses;
        out.bytes_resident = files_.bytes;
        out.evictions = files_.evictions;
    }
    std::lock_guard<std::mutex> lock(results_.mutex);
    out.result_entries = results_.entries.size();
    out.result_hits = results_.hits;
    out.bytes_resident += results_.bytes;
    out.evictions += results_.evictions;
    return out;
}

void AnalysisCache::clear() {
    for (Pool* pool : {&files_, &results_}) {
        std::lock_guard<std::mutex> lock(pool->mutex);
        pool->entries.clear();
        pool->lru.clear();
        pool->bytes = 0;
    }
}

}  // namespace phpsafe::service
