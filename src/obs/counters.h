// Per-stage event counters for the observability subsystem (obs). Every
// pipeline stage — lexing, parsing, model construction, taint analysis —
// bumps a named counter on its hot path. Counting is atomic-free: each
// thread owns a thread-local Counters block (obs::tls()) and increments it
// with plain adds; a scope of work is measured by snapshotting the block
// before and after (CounterDelta) and deltas are merged deterministically
// by whoever owns the fan-out (the evaluation driver merges per-unit deltas
// in a fixed order, so any worker count yields byte-identical totals — see
// tests/determinism_test.cpp).
//
// Counters never allocate: the block is a trivially-copyable struct of
// uint64 fields, thread-local storage is constinit, and an increment is one
// TLS add. tests/obs_test.cpp asserts the no-allocation property.
#pragma once

#include <cstdint>
#include <utility>

namespace phpsafe::obs {

/// X-macro over every counter: name, doc string. Adding a counter here adds
/// it to the struct, the merge/subtract operators, for_each_field (and
/// therefore every JSON export), and the determinism comparison.
#define PHPSAFE_OBS_COUNTERS(X)                                               \
    X(tokens_lexed, "tokens produced by the lexer")                           \
    X(ast_nodes, "AST nodes constructed by the parser")                       \
    X(files_parsed, "files run through the parser")                           \
    X(parse_errors, "recovered parse errors")                                 \
    X(includes_resolved, "include/require paths resolved in-project")         \
    X(includes_followed, "include edges actually executed by the engine")     \
    X(summaries_computed, "function summaries computed (body analyzed)")      \
    X(summaries_reused, "function summaries served from the store")           \
    X(taint_propagations, "TaintValue merges (joins, concats, arg passing)")  \
    X(scope_lookups, "variable reads through a scope")                        \
    X(sink_checks, "sensitive-argument checks performed")                     \
    X(sources_seen, "taint introductions (superglobals, source APIs)")        \
    X(findings_xss, "XSS findings reported (pre-dedup)")                      \
    X(findings_sqli, "SQLi findings reported (pre-dedup)")                     \
    X(cache_file_hits, "parsed files served from the content-addressed cache") \
    X(cache_file_misses, "file lookups that had to lex+parse")                 \
    X(cache_summary_hits, "always 0: no summary is reused across scans; "     \
                          "kept for the benchmark harness")                    \
    X(cache_summary_misses, "always 0: no summary is reused across scans; "   \
                            "kept for the benchmark harness")                  \
    X(cache_result_hits, "whole scan results served from the cache")           \
    X(cache_evictions, "cache entries evicted by the LRU byte budget")         \
    X(cache_bytes_inserted, "bytes admitted into the cache pools")             \
    X(cache_bytes_evicted, "bytes released by eviction (resident = inserted "  \
                           "minus evicted)")                                    \
    X(cache_bytes_parsed, "bytes charged for parsed-file entries "              \
                          "(arena bytes + retained source text)")               \
    X(cache_dep_walk_memo_hits, "always 0: the service validates no cached "   \
                                "summaries; kept for the benchmark's exact "   \
                                "per-edit count check")                        \
    X(watch_edits, "file-change events applied to watch sessions")              \
    X(watch_cone_files, "files inside the invalidated cone of watch edits")     \
    X(graph_builds, "project graphs linked from file facts")                    \
    X(forks_overlaid, "project forks that overlaid the shared declaration "      \
                      "tables")                                                 \
    X(forks_merged, "project forks that rebuilt every table (a replaced "       \
                    "file's declarations changed)")                             \
    X(alloc_arena_bytes, "bytes handed out by per-file AST arenas")             \
    X(alloc_arena_blocks, "heap blocks backing AST arenas (the model's "        \
                          "entire malloc traffic)")                             \
    X(alloc_string_bytes, "string bytes copied into arenas (decoded escapes, "  \
                          "folded keywords, synthesized names)")                \
    X(alloc_string_bytes_saved, "string bytes served zero-copy as views into "  \
                                "the retained source text")

/// One block of stage counters. Plain additive uint64 fields only, so the
/// struct is trivially copyable and two blocks compare/merge field-wise.
struct Counters {
#define PHPSAFE_OBS_FIELD(name, doc) uint64_t name = 0;
    PHPSAFE_OBS_COUNTERS(PHPSAFE_OBS_FIELD)
#undef PHPSAFE_OBS_FIELD

    Counters& operator+=(const Counters& other) noexcept {
#define PHPSAFE_OBS_ADD(name, doc) name += other.name;
        PHPSAFE_OBS_COUNTERS(PHPSAFE_OBS_ADD)
#undef PHPSAFE_OBS_ADD
        return *this;
    }

    /// Field-wise difference (used to turn two snapshots into a delta).
    friend Counters operator-(Counters lhs, const Counters& rhs) noexcept {
#define PHPSAFE_OBS_SUB(name, doc) lhs.name -= rhs.name;
        PHPSAFE_OBS_COUNTERS(PHPSAFE_OBS_SUB)
#undef PHPSAFE_OBS_SUB
        return lhs;
    }

    bool operator==(const Counters&) const noexcept = default;

    uint64_t total() const noexcept {
        uint64_t sum = 0;
#define PHPSAFE_OBS_SUM(name, doc) sum += name;
        PHPSAFE_OBS_COUNTERS(PHPSAFE_OBS_SUM)
#undef PHPSAFE_OBS_SUM
        return sum;
    }

    /// Calls fn(field_name, value) for every counter, in declaration order.
    template <typename Fn>
    void for_each_field(Fn&& fn) const {
#define PHPSAFE_OBS_VISIT(name, doc) fn(#name, name);
        PHPSAFE_OBS_COUNTERS(PHPSAFE_OBS_VISIT)
#undef PHPSAFE_OBS_VISIT
    }
};

/// The calling thread's counter block. Increment fields directly:
/// `++obs::tls().sink_checks;`. Never reset behind a live CounterDelta.
Counters& tls() noexcept;

/// Captures the increments a thread performs between construction and
/// take(): `CounterDelta d; work(); obs::Counters used = d.take();`.
/// Deltas nest freely (an inner delta is a subset of the outer one).
class CounterDelta {
public:
    CounterDelta() noexcept : start_(tls()) {}

    /// The counts accumulated on this thread since construction.
    Counters take() const noexcept { return tls() - start_; }

private:
    Counters start_;
};

}  // namespace phpsafe::obs
