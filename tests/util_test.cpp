// Utility-layer tests: source files/locations, diagnostics, string helpers,
// the symbol interner and flat maps behind engine scopes, and the evaluation
// worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/diagnostics.h"
#include "util/flat_map.h"
#include "util/interner.h"
#include "util/source.h"
#include "util/strings.h"
#include "util/worker_pool.h"

namespace phpsafe {
namespace {

TEST(SourceFileTest, LineCount) {
    EXPECT_EQ(SourceFile("f", "").line_count(), 0);
    EXPECT_EQ(SourceFile("f", "one").line_count(), 1);
    EXPECT_EQ(SourceFile("f", "one\n").line_count(), 1);
    EXPECT_EQ(SourceFile("f", "one\ntwo").line_count(), 2);
    EXPECT_EQ(SourceFile("f", "one\ntwo\n\n").line_count(), 3);
}

TEST(SourceFileTest, LineAccess) {
    SourceFile file("f", "first\nsecond\nthird");
    EXPECT_EQ(file.line(1), "first");
    EXPECT_EQ(file.line(2), "second");
    EXPECT_EQ(file.line(3), "third");
    EXPECT_EQ(file.line(4), "");
    EXPECT_EQ(file.line(0), "");
}

TEST(SourceLocationTest, Validity) {
    SourceLocation loc;
    EXPECT_FALSE(loc.valid());
    EXPECT_EQ(to_string(loc), "<unknown>");
    loc = {"a.php", 12};
    EXPECT_TRUE(loc.valid());
    EXPECT_EQ(to_string(loc), "a.php:12");
}

TEST(DiagnosticsTest, CountsBySeverity) {
    DiagnosticSink sink;
    sink.add(Severity::kWarning, {"a.php", 1}, "w");
    sink.add(Severity::kError, {"a.php", 2}, "e");
    sink.add(Severity::kFatal, {"b.php", 3}, "f");
    EXPECT_EQ(sink.count(Severity::kWarning), 1);
    EXPECT_EQ(sink.count(Severity::kError), 1);
    EXPECT_EQ(sink.count(Severity::kFatal), 1);
    EXPECT_TRUE(sink.has_fatal());
}

TEST(DiagnosticsTest, FailedFilesUniqued) {
    DiagnosticSink sink;
    sink.add(Severity::kFatal, {"a.php", 1}, "x");
    sink.add(Severity::kFatal, {"a.php", 9}, "y");
    sink.add(Severity::kFatal, {"b.php", 2}, "z");
    sink.add(Severity::kError, {"c.php", 3}, "not fatal");
    const auto failed = sink.failed_files();
    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0], "a.php");
    EXPECT_EQ(failed[1], "b.php");
}

TEST(StringsTest, AsciiLower) {
    EXPECT_EQ(ascii_lower("MySQLQuery"), "mysqlquery");
    EXPECT_EQ(ascii_lower(""), "");
}

TEST(StringsTest, IEquals) {
    EXPECT_TRUE(iequals("WPDB", "wpdb"));
    EXPECT_TRUE(iequals("", ""));
    EXPECT_FALSE(iequals("a", "ab"));
    EXPECT_FALSE(iequals("abc", "abd"));
}

TEST(StringsTest, StartsEndsWith) {
    EXPECT_TRUE(starts_with("includes/utils.php", "includes/"));
    EXPECT_FALSE(starts_with("a", "ab"));
    EXPECT_TRUE(ends_with("includes/utils.php", ".php"));
    EXPECT_FALSE(ends_with(".php", "x.php"));
}

TEST(StringsTest, SplitAndJoin) {
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join({"x", "y", "z"}, "::"), "x::y::z");
    EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, Trim) {
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, ReplaceAll) {
    EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
    EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
    EXPECT_EQ(replace_all("x", "", "y"), "x");
}

TEST(SymbolTableTest, InternIsIdempotent) {
    SymbolTable table;
    const Symbol a = table.intern("$user");
    const Symbol b = table.intern("$user");
    const Symbol c = table.intern("$other");
    EXPECT_EQ(a, b);
    EXPECT_NE(a.id(), c.id());
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.name(a), "$user");
    EXPECT_EQ(table.name(c), "$other");
}

TEST(SymbolTableTest, VariablesCaseSensitiveFunctionsFolded) {
    SymbolTable table;
    // PHP: $User and $user are distinct variables...
    EXPECT_NE(table.intern("$User"), table.intern("$user"));
    // ...but MyFunc and myfunc are the same function.
    EXPECT_EQ(table.intern_folded("MyFunc"), table.intern_folded("myfunc"));
}

TEST(SymbolTableTest, SurvivesRehashWithStableNames) {
    SymbolTable table;
    std::vector<Symbol> symbols;
    for (int i = 0; i < 500; ++i)
        symbols.push_back(table.intern("$var" + std::to_string(i)));
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(table.name(symbols[i]), "$var" + std::to_string(i));
        EXPECT_EQ(table.intern("$var" + std::to_string(i)), symbols[i]);
    }
    EXPECT_EQ(table.size(), 500u);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
}

TEST(SymbolMapTest, InsertFindErase) {
    SymbolMap<int> map;
    EXPECT_TRUE(map.empty());
    map[Symbol{1}] = 10;
    map[Symbol{2}] = 20;
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(Symbol{1}), nullptr);
    EXPECT_EQ(*map.find(Symbol{1}), 10);
    EXPECT_EQ(map.find(Symbol{3}), nullptr);
    EXPECT_TRUE(map.erase(Symbol{1}));
    EXPECT_FALSE(map.erase(Symbol{1}));
    EXPECT_EQ(map.find(Symbol{1}), nullptr);
    EXPECT_EQ(map.size(), 1u);
}

TEST(SymbolMapTest, FindAfterEraseProbesPastTombstone) {
    // Keys that collide under the initial capacity: ids 0 and 16 both land
    // in slot 0 when mask == 15, so 16 probes past 0. Erasing 0 must leave
    // a tombstone that keeps 16 reachable.
    SymbolMap<int> map;
    map[Symbol{0}] = 1;
    map[Symbol{16}] = 2;
    EXPECT_TRUE(map.erase(Symbol{0}));
    ASSERT_NE(map.find(Symbol{16}), nullptr);
    EXPECT_EQ(*map.find(Symbol{16}), 2);
    // Re-inserting reuses capacity and finds the right slot again.
    map[Symbol{0}] = 3;
    EXPECT_EQ(*map.find(Symbol{0}), 3);
    EXPECT_EQ(*map.find(Symbol{16}), 2);
}

TEST(SymbolMapTest, EmptyMapAnswersWithoutSlots) {
    SymbolMap<int> map;
    const SymbolMap<int>& view = map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(Symbol{0}), nullptr);
    EXPECT_EQ(view.find(Symbol{7}), nullptr);
    EXPECT_FALSE(map.contains(Symbol{7}));
    size_t visited = 0;
    map.for_each([&](Symbol, int) { ++visited; });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(map.size(), 0u);
}

TEST(SymbolMapTest, EraseOnEmptyMapReturnsFalse) {
    SymbolMap<int> map;
    EXPECT_FALSE(map.erase(Symbol{3}));
    map[Symbol{3}] = 1;
    map.clear();
    EXPECT_FALSE(map.erase(Symbol{3}));
    EXPECT_TRUE(map.empty());
}

TEST(SymbolMapTest, ClearThenInsertMatchesAFreshMap) {
    // clear() frees the slots; the next insert must lay them out exactly as
    // a fresh map would, so iteration order (and every output built from
    // it) does not depend on a map's history.
    const uint32_t keys[] = {5, 21, 0, 16, 42, 3};
    SymbolMap<int> fresh;
    for (const uint32_t k : keys) fresh[Symbol{k}] = static_cast<int>(k);
    SymbolMap<int> reused;
    for (uint32_t i = 0; i < 100; ++i) reused[Symbol{i}] = -1;
    reused.clear();
    EXPECT_TRUE(reused.empty());
    EXPECT_EQ(reused.find(Symbol{5}), nullptr);
    for (const uint32_t k : keys) reused[Symbol{k}] = static_cast<int>(k);

    std::vector<std::pair<uint32_t, int>> a, b;
    fresh.for_each([&](Symbol k, int v) { a.emplace_back(k.id(), v); });
    reused.for_each([&](Symbol k, int v) { b.emplace_back(k.id(), v); });
    EXPECT_EQ(a, b);
    EXPECT_EQ(reused.size(), std::size(keys));
    ASSERT_NE(reused.find(Symbol{16}), nullptr);
    EXPECT_EQ(*reused.find(Symbol{16}), 16);
}

TEST(SymbolMapTest, GrowthPreservesEntries) {
    SymbolMap<int> map;
    for (uint32_t i = 0; i < 300; ++i) map[Symbol{i}] = static_cast<int>(i * 7);
    EXPECT_EQ(map.size(), 300u);
    for (uint32_t i = 0; i < 300; ++i) {
        ASSERT_NE(map.find(Symbol{i}), nullptr) << i;
        EXPECT_EQ(*map.find(Symbol{i}), static_cast<int>(i * 7));
    }
    size_t visited = 0;
    map.for_each([&](Symbol, int) { ++visited; });
    EXPECT_EQ(visited, 300u);
}

TEST(TaskTeamTest, RunsEveryIndexExactlyOnce) {
    TaskTeam team(3);
    EXPECT_EQ(team.thread_count(), 3);
    std::vector<std::atomic<int>> hits(1000);
    team.run(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
    // Reusable: a second dispatch on the same team works.
    std::atomic<int> total{0};
    team.run(257, [&](size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 257);
}

TEST(TaskTeamTest, SingleIndexRunsInline) {
    // The caller takes the one index itself; no helper is offered.
    TaskTeam team(4);
    std::thread::id ran_on;
    team.run(1, [&](size_t) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(TaskTeamTest, RethrowsWorkerException) {
    TaskTeam team(1);
    EXPECT_THROW(
        team.run(8,
                 [](size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
    // The team is still usable after an exception.
    std::atomic<int> total{0};
    team.run(4, [&](size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 4);
}

TEST(TaskTeamTest, ResolveParallelismHonorsEnv) {
    EXPECT_EQ(resolve_parallelism(3), 3);
    setenv("PHPSAFE_JOBS", "5", 1);
    EXPECT_EQ(resolve_parallelism(0), 5);
    setenv("PHPSAFE_JOBS", "garbage", 1);
    EXPECT_GE(resolve_parallelism(0), 1);
    unsetenv("PHPSAFE_JOBS");
    EXPECT_GE(resolve_parallelism(-1), 1);
}

TEST(TaskTeamTest, RunFromPostedTaskCompletes) {
    // The team's only thread is the caller: waiting on a helper would
    // deadlock, so the nested run() takes every index itself.
    TaskTeam team(1);
    std::promise<std::vector<std::thread::id>> ran;
    team.post(0, [&] {
        std::vector<std::thread::id> ids(64);
        team.run(ids.size(),
                 [&](size_t i) { ids[i] = std::this_thread::get_id(); });
        ran.set_value(std::move(ids));
    });
    std::future<std::vector<std::thread::id>> done = ran.get_future();
    ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const std::vector<std::thread::id> ids = done.get();
    for (const std::thread::id id : ids) EXPECT_EQ(id, ids.front());
    EXPECT_NE(ids.front(), std::this_thread::get_id());
}

TEST(TaskTeamTest, RunOnPausedTeamStaysOnCaller) {
    TaskTeam team(2);
    team.pause();
    const auto caller = std::this_thread::get_id();
    std::atomic<int> off_caller{0};
    team.run(64, [&](size_t) {
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    });
    EXPECT_EQ(off_caller.load(), 0);
    EXPECT_EQ(team.depth(), 0u);
    team.resume();
}

TEST(TaskTeamTest, ZeroThreadTeamRunsOnCaller) {
    TaskTeam team(0);
    EXPECT_EQ(team.thread_count(), 0);
    const auto caller = std::this_thread::get_id();
    bool all_inline = true;
    team.run(16, [&](size_t) {
        if (std::this_thread::get_id() != caller) all_inline = false;
    });
    EXPECT_TRUE(all_inline);
    // With no thread to drain the queue, post() runs the task at once.
    bool posted_inline = false;
    team.post(0, [&] { posted_inline = std::this_thread::get_id() == caller; });
    EXPECT_TRUE(posted_inline);
}

}  // namespace
}  // namespace phpsafe
