// The multi-client server stack: the AnalysisCache under concurrent
// lookups (LRU order, totals, budgets), AnalysisService scheduling
// (priorities, cancellation, admission control), NDJSON framing edge cases
// (oversized lines, truncated final line), pipelined sessions
// (request-order responses, supersede slots, atomic interleaving on a
// shared sink), and the multi-client golden transcripts.
//
// Regenerate the multi-client goldens after an intentional protocol change
// with this one shell command (shown wrapped over three lines):
//   ./build/tools/phpsafe_serve --deterministic --workers 2
//     --session tests/golden/ndjson_multi_a.in:tests/golden/ndjson_multi_a.out
//     --session tests/golden/ndjson_multi_b.in:tests/golden/ndjson_multi_b.out
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "report/export.h"
#include "service/cache.h"
#include "service/ndjson.h"
#include "service/server.h"
#include "service/service.h"
#include "service/watch.h"
#include "util/diagnostics.h"
#include "util/json_reader.h"

namespace phpsafe {
namespace {

using service::AnalysisCache;
using service::AnalysisServer;
using service::AnalysisService;
using service::CacheBudgets;
using service::CacheStats;
using service::LineStatus;
using service::ScanRequest;
using service::ScanResponse;
using service::ServerOptions;
using service::ServiceOptions;
using service::SyncLineWriter;

ScanRequest one_file(std::string plugin, std::string name, std::string text) {
    ScanRequest request;
    request.plugin = std::move(plugin);
    request.files.push_back({std::move(name), std::move(text)});
    return request;
}

/// Polls until `predicate` holds (multi-threaded tests need a settle
/// window); fails the calling test on timeout.
template <typename Predicate>
void wait_for(Predicate predicate, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!predicate()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "timeout waiting for " << what;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// ------------------------------------------------------------------- cache

TEST(ServiceCacheTest, EvictsLeastRecentlyUsedFirst) {
    AnalysisResult payload;
    payload.plugin = "lru";
    CacheBudgets budgets;
    budgets.result_bytes = 2 * service::approx_bytes(payload);  // two fit
    AnalysisCache cache(budgets);
    cache.insert_result("preset", 1, payload);
    cache.insert_result("preset", 2, payload);
    ASSERT_NE(cache.find_result("preset", 1), nullptr);  // 2 is now LRU
    cache.insert_result("preset", 3, payload);

    EXPECT_NE(cache.find_result("preset", 1), nullptr);
    EXPECT_EQ(cache.find_result("preset", 2), nullptr);
    EXPECT_NE(cache.find_result("preset", 3), nullptr);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.result_entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.bytes_resident, budgets.result_bytes);
}

TEST(ServiceCacheConcurrencyTest, ThreadsKeepTotalsAndBudgets) {
    // Parsed files to share: enough that the small file budget churns.
    php::Project project("cache-race");
    for (int i = 0; i < 12; ++i)
        project.add_file("f" + std::to_string(i) + ".php",
                         "<?php echo $_GET['v" + std::to_string(i) + "'];");
    DiagnosticSink sink;
    project.parse_all(sink);
    const auto& files = project.files();

    CacheBudgets budgets;
    budgets.file_bytes = 4 * service::approx_bytes(*files.front());
    AnalysisResult payload;
    payload.plugin = "race";
    budgets.result_bytes = 8 * service::approx_bytes(payload);
    AnalysisCache cache(budgets);

    constexpr int kThreads = 4;
    constexpr int kOps = 2000;
    std::atomic<uint64_t> file_lookups{0}, file_found{0};
    std::atomic<uint64_t> result_found{0};
    std::vector<std::thread> team;
    for (int t = 0; t < kThreads; ++t) {
        team.emplace_back([&, t] {
            uint64_t state = static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ull + 1;
            for (int i = 0; i < kOps; ++i) {
                state = state * 6364136223846793005ull + 1442695040888963407ull;
                const uint64_t pick = state >> 33;
                const auto& file = files[pick % files.size()];
                switch (i % 4) {
                    case 0: cache.insert_file(file); break;
                    case 1: cache.insert_result("p", pick % 32, payload); break;
                    case 2:
                        ++file_lookups;
                        if (cache.find_file(file->source->name(),
                                            file->content_hash))
                            ++file_found;
                        break;
                    default:
                        if (cache.find_result("p", pick % 32)) ++result_found;
                }
            }
        });
    }
    for (std::thread& thread : team) thread.join();

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.file_hits + stats.file_misses, file_lookups.load());
    EXPECT_EQ(stats.file_hits, file_found.load());
    EXPECT_EQ(stats.result_hits, result_found.load());
    EXPECT_GT(stats.file_hits, 0u);
    EXPECT_GT(stats.result_hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes_resident, budgets.file_bytes + budgets.result_bytes);

    cache.clear();
    const CacheStats cleared = cache.stats();
    EXPECT_EQ(cleared.bytes_resident, 0u);
    EXPECT_EQ(cleared.file_entries, 0u);
    EXPECT_EQ(cleared.result_entries, 0u);
}

// -------------------------------------------------------------- scheduling

TEST(ServerSchedulingTest, HigherPriorityDispatchesFirst) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    service.pause();

    ScanRequest low_a = one_file("low-a", "a.php", "<?php echo $_GET['a'];");
    ScanRequest low_b = one_file("low-b", "b.php", "<?php echo $_GET['b'];");
    ScanRequest high = one_file("high", "c.php", "<?php echo $_GET['c'];");
    high.priority = 5;

    const auto ticket_a = service.submit(low_a);
    const auto ticket_b = service.submit(low_b);
    const auto ticket_h = service.submit(high);
    service.resume();

    const ScanResponse ra = service.await(ticket_a);
    const ScanResponse rb = service.await(ticket_b);
    const ScanResponse rh = service.await(ticket_h);
    ASSERT_GT(ra.dispatch_seq, 0u);
    ASSERT_GT(rb.dispatch_seq, 0u);
    ASSERT_GT(rh.dispatch_seq, 0u);
    // The high-priority submission queued last but dispatched first; the
    // equal-priority pair kept submission order.
    EXPECT_LT(rh.dispatch_seq, ra.dispatch_seq);
    EXPECT_LT(ra.dispatch_seq, rb.dispatch_seq);
}

TEST(ServerSchedulingTest, CancelQueuedScanAndResubmit) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    service.pause();

    const ScanRequest request =
        one_file("cancelme", "a.php", "<?php echo $_GET['x'];");
    const auto first = service.submit(request);
    EXPECT_TRUE(service.cancel(first));
    // The fingerprint was released: an identical submit runs fresh instead
    // of coalescing onto the corpse.
    const auto second = service.submit(request);
    service.resume();

    const ScanResponse cancelled = service.await(first);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(cancelled.dispatch_seq, 0u);
    EXPECT_TRUE(cancelled.result.findings.empty());

    const ScanResponse fresh = service.await(second);
    EXPECT_FALSE(fresh.cancelled);
    EXPECT_FALSE(fresh.deduplicated);
    ASSERT_EQ(fresh.result.findings.size(), 1u);

    // A finished scan can no longer be cancelled.
    EXPECT_FALSE(service.cancel(second));
}

TEST(ServerSchedulingTest, CancellingCoalescedTicketAffectsAllAwaiters) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    service.pause();

    const ScanRequest request =
        one_file("shared", "a.php", "<?php echo $_GET['x'];");
    const auto first = service.submit(request);
    const auto coalesced = service.submit(request);
    EXPECT_TRUE(service.cancel(coalesced));
    service.resume();

    EXPECT_TRUE(service.await(first).cancelled);
    EXPECT_TRUE(service.await(coalesced).cancelled);
}

TEST(ServerSchedulingTest, AdmissionControlRejectsWhenQueueIsFull) {
    ServiceOptions options;
    options.workers = 1;
    options.max_queue_depth = 1;
    AnalysisService service(options);
    service.pause();

    const auto accepted =
        service.submit(one_file("ok", "a.php", "<?php echo $_GET['a'];"));
    const auto rejected =
        service.submit(one_file("no", "b.php", "<?php echo $_GET['b'];"));

    const ScanResponse bounced = service.await(rejected);
    EXPECT_TRUE(bounced.rejected);
    EXPECT_EQ(bounced.dispatch_seq, 0u);
    ASSERT_EQ(bounced.result.diagnostics.size(), 1u);

    service.resume();
    const ScanResponse served = service.await(accepted);
    EXPECT_FALSE(served.rejected);
    ASSERT_EQ(served.result.findings.size(), 1u);
}

// ---------------------------------------------------------- NDJSON framing

TEST(NdjsonFramingTest, ReadLineCapsBufferingAndRecovers) {
    std::istringstream in("abcdefgh\nok\nlast");
    std::string line;
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kOversized);
    EXPECT_EQ(line, "abcd");  // first cap bytes kept, remainder discarded
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kOk);
    EXPECT_EQ(line, "ok");
    // A truncated final line (no trailing newline) is still delivered.
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kOk);
    EXPECT_EQ(line, "last");
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kEof);
}

TEST(NdjsonFramingTest, OversizedRequestLineAnswersErrorAndContinues) {
    ServerOptions options;
    options.deterministic = true;
    options.max_line_bytes = 64;
    std::istringstream in("{\"op\":\"scan\",\"plugin\":\"big\",\"files\":[{"
                          "\"name\":\"a.php\",\"text\":\"" +
                          std::string(200, 'x') +
                          "\"}]}\n"
                          "{\"op\":\"stats\"}\n"
                          "{\"op\":\"quit\"}\n");
    std::ostringstream out;
    EXPECT_EQ(AnalysisServer(options).serve_serial(in, out), 3);

    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(line.find("exceeds 64 bytes"), std::string::npos);
    // The session survives: the next requests are answered normally.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"file_entries\":0"), std::string::npos);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"bye\":true"), std::string::npos);
}

TEST(NdjsonFramingTest, TruncatedFinalLineWithoutNewlineIsServed) {
    ServerOptions options;
    options.deterministic = true;
    std::istringstream in("{\"op\":\"stats\"}");  // EOF, no '\n'
    std::ostringstream out;
    EXPECT_EQ(AnalysisServer(options).serve_serial(in, out), 1);
    EXPECT_NE(out.str().find("\"file_entries\":0"), std::string::npos);
}

TEST(NdjsonFramingTest, ShutdownIsAnUnknownOp) {
    const service::NdjsonRequest request =
        service::parse_ndjson_request("{\"op\":\"shutdown\"}");
    EXPECT_EQ(request.op, service::NdjsonRequest::Op::kInvalid);
    EXPECT_EQ(request.error, "unknown op: \"shutdown\"");
}

/// Answers one request line on a fresh deterministic server.
std::string serve_one(const std::string& request) {
    ServerOptions options;
    options.deterministic = true;
    std::istringstream in(request + "\n");
    std::ostringstream out;
    EXPECT_EQ(AnalysisServer(options).serve_serial(in, out), 1);
    return out.str();
}

/// A fresh directory under the test temp dir, removed with the object.
struct ScratchDir {
    explicit ScratchDir(const std::string& name)
        : path(std::filesystem::path(::testing::TempDir()) / name) {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    void write(const std::string& name, const std::string& text) const {
        std::filesystem::create_directories((path / name).parent_path());
        std::ofstream(path / name, std::ios::binary) << text;
    }
    std::filesystem::path path;
};

TEST(NdjsonScanPathTest, DirectoryScanEqualsTheSameFilesSentInline) {
    const ScratchDir dir("phpsafe-scan-path-tree");
    // Inline order is the path order the directory loader sorts into.
    const std::vector<std::pair<std::string, std::string>> files = {
        {"lib/deep/x.php", "<?php function show($v) { echo $v; }"},
        {"lib/util.php", "<?php include 'deep/x.php'; show($_GET['u']);"},
        {"main.php", "<?php include 'lib/util.php'; echo $_POST['m'];"},
    };
    for (const auto& [name, text] : files) dir.write(name, text);
    dir.write("lib/readme.txt", "<?php echo $_GET['not_php'];");

    std::string inline_files;
    for (const auto& [name, text] : files)
        inline_files += std::string(inline_files.empty() ? "" : ",") +
                        "{\"name\":\"" + name + "\",\"text\":\"" + text + "\"}";
    const std::string by_path = serve_one(
        "{\"op\":\"scan\",\"plugin\":\"tree\",\"path\":\"" +
        dir.path.generic_string() + "\"}");
    const std::string by_files = serve_one(
        "{\"op\":\"scan\",\"plugin\":\"tree\",\"files\":[" + inline_files +
        "]}");
    EXPECT_EQ(by_path, by_files);
    EXPECT_EQ(by_path.rfind("{\"ok\":true", 0), 0u) << by_path;
    EXPECT_NE(by_path.find("\"files_total\":3"), std::string::npos) << by_path;
    EXPECT_EQ(by_path.find("not_php"), std::string::npos) << by_path;
}

TEST(NdjsonScanPathTest, PathThatIsNotADirectoryAnswersItsError) {
    const ScratchDir dir("phpsafe-scan-path-file");
    dir.write("only.php", "<?php echo 1;");
    const std::string file = (dir.path / "only.php").generic_string();
    EXPECT_EQ(serve_one("{\"op\":\"scan\",\"path\":\"" + file + "\"}"),
              "{\"ok\":false,\"error\":\"not a directory: " + file + "\"}\n");
}

TEST(NdjsonScanPathTest, DirectoryWithoutPhpFilesAnswersItsError) {
    const ScratchDir dir("phpsafe-scan-path-empty");
    dir.write("notes/readme.txt", "no code here");
    const std::string root = dir.path.generic_string();
    EXPECT_EQ(serve_one("{\"op\":\"scan\",\"path\":\"" + root + "\"}"),
              "{\"ok\":false,\"error\":\"no .php files under " + root +
                  "\"}\n");
}

TEST(NdjsonProtocolTest, EveryOpAndKeyIsDocumentedInServiceMd) {
    // The protocol table: a "| op | keys | answer |" header, a separator,
    // then one "| `op` | `key`, ... | ... |" row per op.
    std::ifstream in(PHPSAFE_DOCS_DIR "/service.md");
    ASSERT_TRUE(in) << "cannot open docs/service.md";
    std::string line;
    while (std::getline(in, line) && line.rfind("| op | keys |", 0) != 0) {
    }
    ASSERT_TRUE(in) << "docs/service.md has no \"| op | keys |\" table";
    std::getline(in, line);  // |---|---|---|
    std::map<std::string, std::set<std::string>> documented;
    while (std::getline(in, line) && line.rfind("| `", 0) == 0) {
        const size_t op_end = line.find('`', 3);
        const size_t keys_begin = line.find('|', op_end) + 1;
        const std::string keys =
            line.substr(keys_begin, line.find('|', keys_begin) - keys_begin);
        std::set<std::string>& row = documented[line.substr(3, op_end - 3)];
        for (size_t open = keys.find('`'); open != std::string::npos;) {
            const size_t close = keys.find('`', open + 1);
            row.insert(keys.substr(open + 1, close - open - 1));
            open = keys.find('`', close + 1);
        }
    }

    std::set<std::string> ops;
    for (const service::NdjsonOpSpec& spec : service::ndjson_ops()) {
        const std::string op(spec.name);
        ops.insert(op);
        std::set<std::string> keys;
        for (std::string_view key : spec.keys)
            if (key != "op") keys.insert(std::string(key));
        ASSERT_TRUE(documented.count(op))
            << "op \"" << op << "\" has no row in docs/service.md";
        EXPECT_EQ(documented[op], keys)
            << "keys of op \"" << op << "\" in docs/service.md";
    }
    for (const auto& [op, keys] : documented)
        EXPECT_TRUE(ops.count(op))
            << "docs/service.md documents op \"" << op
            << "\", which the protocol does not accept";
}

// ------------------------------------------------------- pipelined sessions

TEST(ServerSessionTest, PipelinedSessionMatchesSerialLoopByteForByte) {
    const std::string script =
        "{\"op\":\"scan\",\"plugin\":\"p1\",\"files\":[{\"name\":\"a.php\","
        "\"text\":\"<?php echo $_GET['a'];\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"p2\",\"files\":[{\"name\":\"b.php\","
        "\"text\":\"<?php echo $_GET['b'];\"}]}\n"
        "{\"op\":\"stats\"}\n"
        "{\"op\":\"validate\",\"plugin\":\"p1\",\"files\":[{\"name\":\"a.php\","
        "\"text\":\"<?php echo $_GET['a'];\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"p3\",\"files\":[{\"name\":\"c.php\","
        "\"text\":\"<?php $v = $_POST['c']; echo $v;\"}]}\n"
        "{\"op\":\"quit\"}\n";

    std::ostringstream serial_out;
    {
        ServerOptions options;
        options.deterministic = true;
        std::istringstream in(script);
        AnalysisServer(options).serve_serial(in, serial_out);
    }

    std::ostringstream session_out;
    {
        ServerOptions options;
        options.service.workers = 1;
        options.deterministic = true;
        AnalysisServer server(options);
        std::istringstream in(script);
        EXPECT_EQ(server.serve_session(in, session_out), 6);
    }
    EXPECT_EQ(session_out.str(), serial_out.str());
}

TEST(ServerSessionTest, SlotSupersedesStillQueuedScan) {
    ServiceOptions service_options;
    service_options.workers = 1;
    AnalysisService service(service_options);
    service.pause();  // hold the queue so the second request catches the first

    ServerOptions options;
    options.deterministic = true;
    AnalysisServer server(service, options);

    std::istringstream in(
        "{\"op\":\"scan\",\"plugin\":\"editor\",\"slot\":\"buf\","
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php echo "
        "$_GET['old'];\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"editor\",\"slot\":\"buf\","
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php echo "
        "$_GET['new'];\"}]}\n"
        "{\"op\":\"quit\"}\n");
    std::ostringstream out;
    std::thread session([&] { server.serve_session(in, out); });
    wait_for([&] { return service.queue_depth() >= 2; }, "both scans queued");
    service.resume();
    session.join();

    std::istringstream lines(out.str());
    std::string line;
    // The superseded scan is still answered, in order, as cancelled.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"cancelled\":true"), std::string::npos);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("$_GET['new']"), std::string::npos)
        << "latest slot revision must be analyzed: " << line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"bye\":true"), std::string::npos);
}

TEST(ServerSessionTest, TwoSessionsInterleaveWholeLinesOnSharedSink) {
    ServerOptions options;
    options.deterministic = true;
    options.service.workers = 2;
    AnalysisServer server(options);

    const auto script = [](const std::string& tag) {
        std::string s;
        for (int i = 0; i < 4; ++i)
            s += "{\"op\":\"scan\",\"plugin\":\"" + tag + std::to_string(i) +
                 "\",\"files\":[{\"name\":\"f.php\",\"text\":\"<?php echo "
                 "$_GET['" +
                 tag + std::to_string(i) + "'];\"}]}\n";
        return s + "{\"op\":\"quit\"}\n";
    };

    std::ostringstream shared;
    SyncLineWriter sink(shared);
    std::istringstream in_a(script("a")), in_b(script("b"));
    std::thread ta([&] { server.serve_session(in_a, sink); });
    std::thread tb([&] { server.serve_session(in_b, sink); });
    ta.join();
    tb.join();

    // 10 whole lines, every one of them standalone valid JSON: concurrent
    // sessions may interleave lines but never bytes.
    std::istringstream lines(shared.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        ++count;
        JsonValue value;
        std::string error;
        EXPECT_TRUE(JsonReader::parse(line, value, &error))
            << "torn line: " << line << " (" << error << ")";
        EXPECT_TRUE(value.is_object());
    }
    EXPECT_EQ(count, 10);
}

TEST(ServerSessionTest, ConcurrentClientsMatchSerialReferenceReports) {
    // Four pipelined clients over one shared 4-worker service; every scan's
    // report must equal the serial single-worker reference for the same
    // request — the standing byte-identity invariant under real overlap.
    std::vector<ScanRequest> requests;
    for (int i = 0; i < 8; ++i)
        requests.push_back(one_file(
            "plug" + std::to_string(i), "f.php",
            "<?php $v = $_GET['k" + std::to_string(i) + "']; echo $v;"));

    std::vector<std::string> reference;
    {
        ServiceOptions options;
        options.workers = 1;
        AnalysisService serial(options);
        for (const ScanRequest& request : requests)
            reference.push_back(render_json_report(serial.scan(request).result));
    }

    ServiceOptions options;
    options.workers = 4;
    AnalysisService shared(options);
    std::vector<std::thread> clients;
    std::vector<int> mismatches(4, 0);
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = 0; i < requests.size(); ++i) {
                const size_t pick = (i + static_cast<size_t>(t) * 3) % requests.size();
                if (render_json_report(shared.scan(requests[pick]).result) !=
                    reference[pick])
                    ++mismatches[static_cast<size_t>(t)];
            }
        });
    }
    for (std::thread& t : clients) t.join();
    for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0);
}

// ----------------------------------------------------------- watch mode

std::vector<std::string> finding_keys(const std::vector<Finding>& findings) {
    std::vector<std::string> keys;
    for (const Finding& f : findings) keys.push_back(finding_json(f));
    return keys;
}

/// The delta oracle: diff two full reports by canonical serialization,
/// honoring multiplicity, added in new order / removed in old order —
/// exactly what a client diffing two cold re-scans would compute.
void cold_diff(const std::vector<Finding>& before,
               const std::vector<Finding>& after,
               std::vector<std::string>& added,
               std::vector<std::string>& removed) {
    std::multiset<std::string> old_keys, new_keys;
    for (const Finding& f : before) old_keys.insert(finding_json(f));
    for (const Finding& f : after) new_keys.insert(finding_json(f));
    for (const Finding& f : after) {
        const auto it = old_keys.find(finding_json(f));
        if (it != old_keys.end())
            old_keys.erase(it);
        else
            added.push_back(finding_json(f));
    }
    for (const Finding& f : before) {
        const auto it = new_keys.find(finding_json(f));
        if (it != new_keys.end())
            new_keys.erase(it);
        else
            removed.push_back(finding_json(f));
    }
}

/// Watch-mode byte-identity: the delta an edit answers must equal the diff
/// of two *cold* scans on fresh services — at any worker count, with a
/// mixed upsert + remove batch, and with any file-pool budget.
void expect_delta_matches_cold_rescan(
    int workers, uint64_t file_bytes = CacheBudgets{}.file_bytes) {
    using FileSet = std::vector<std::pair<std::string, std::string>>;
    const FileSet before = {
        {"app.php",
         "<?php include 'lib.php'; echo wrap($_GET['q']); echo $_GET['r'];"},
        {"lib.php", "<?php function wrap($x) { return htmlentities($x); }"},
        {"other.php", "<?php echo $_COOKIE['c'];"},
    };
    const FileSet after = {
        {"app.php",
         "<?php include 'lib.php'; echo wrap($_GET['q']); echo $_GET['r'];"},
        {"lib.php", "<?php function wrap($x) { return $x; }"},
    };

    auto cold_scan = [&](const FileSet& files) {
        ServiceOptions so;
        so.workers = 1;
        AnalysisService fresh(so);
        ScanRequest request;
        request.plugin = "delta";
        for (const auto& [name, text] : files)
            request.files.push_back({name, text});
        return fresh.scan(request).result.findings;
    };
    const std::vector<Finding> cold_before = cold_scan(before);
    const std::vector<Finding> cold_after = cold_scan(after);
    std::vector<std::string> want_added, want_removed;
    cold_diff(cold_before, cold_after, want_added, want_removed);
    ASSERT_FALSE(want_added.empty());    // the sanitizer regression
    ASSERT_FALSE(want_removed.empty());  // the removed file's finding

    ServiceOptions so;
    so.workers = workers;
    so.budgets.file_bytes = file_bytes;
    AnalysisService service(so);
    service::WatchSession watch(service);
    ScanRequest open;
    open.plugin = "delta";
    for (const auto& [name, text] : before)
        open.files.push_back({name, text});
    const ScanResponse opened = watch.open(std::move(open));
    ASSERT_FALSE(opened.rejected);
    EXPECT_EQ(finding_keys(opened.result.findings), finding_keys(cold_before));
    // Every file is pinned by the session's project after the open; with a
    // zero file budget the pool held none of them, so each is the session's
    // own parse.
    ASSERT_NE(watch.project(), nullptr);
    EXPECT_EQ(watch.project()->files().size(), before.size());
    if (file_bytes == 0) {
        EXPECT_EQ(service.cache_stats().file_entries, 0u);
    }

    service::WatchEditBatch batch;
    batch.upserts.push_back(
        {"lib.php", "<?php function wrap($x) { return $x; }"});
    batch.removals.push_back("other.php");
    const service::WatchDelta delta = watch.edit(batch);
    ASSERT_TRUE(delta.ok) << delta.error;
    EXPECT_EQ(delta.changed_files, 2);
    EXPECT_GE(delta.cone_files, 3);  // lib + app (includes it) + other
    EXPECT_EQ(finding_keys(delta.added), want_added);
    EXPECT_EQ(finding_keys(delta.removed), want_removed);
    // The warm re-scan's full report equals the cold one, not just the diff.
    EXPECT_EQ(finding_keys(delta.response.result.findings),
              finding_keys(cold_after));
}

TEST(WatchModeTest, DeltaMatchesColdRescanDiffSerial) {
    expect_delta_matches_cold_rescan(1);
}

TEST(WatchModeTest, DeltaMatchesColdRescanDiffParallel) {
    expect_delta_matches_cold_rescan(4);
}

TEST(WatchModeTest, DeltaMatchesColdRescanDiffWithoutFilePool) {
    // A zero file budget keeps no parse, so the session's project holds the
    // only copy of every file's AST.
    expect_delta_matches_cold_rescan(1, 0);
}

/// Applies one upsert to a watch session opened on `before`, checks the
/// delta against the diff of two cold scans, and returns how many project
/// graphs the edit linked.
uint64_t graph_builds_for_edit(
    const std::vector<std::pair<std::string, std::string>>& before,
    const std::string& name, const std::string& text) {
    auto after = before;
    for (auto& [file, body] : after)
        if (file == name) body = text;
    auto cold_scan = [](const std::vector<std::pair<std::string, std::string>>& files) {
        ServiceOptions so;
        so.workers = 1;
        AnalysisService fresh(so);
        ScanRequest request;
        request.plugin = "relink";
        for (const auto& [file, body] : files) request.files.push_back({file, body});
        return fresh.scan(request).result.findings;
    };
    std::vector<std::string> want_added, want_removed;
    cold_diff(cold_scan(before), cold_scan(after), want_added, want_removed);

    ServiceOptions so;
    so.workers = 1;
    AnalysisService service(so);
    service::WatchSession watch(service);
    ScanRequest open;
    open.plugin = "relink";
    for (const auto& [file, body] : before) open.files.push_back({file, body});
    EXPECT_FALSE(watch.open(std::move(open)).rejected);

    service::WatchEditBatch batch;
    batch.upserts.push_back({name, text});
    const obs::CounterDelta counters;
    const service::WatchDelta delta = watch.edit(batch);
    const uint64_t builds = counters.take().graph_builds;
    EXPECT_TRUE(delta.ok) << delta.error;
    EXPECT_EQ(finding_keys(delta.added), want_added);
    EXPECT_EQ(finding_keys(delta.removed), want_removed);
    return builds;
}

const std::vector<std::pair<std::string, std::string>> kRelinkFiles = {
    {"app.php", "<?php include 'lib.php'; echo wrap($_GET['q']);"},
    {"lib.php", "<?php function wrap($x) { return htmlentities($x); }"},
    {"other.php", "<?php echo 'static';"},
};

TEST(WatchModeTest, BodyOnlyEditReusesTheLinkedGraph) {
    // Same declarations, calls and includes; only the body's data flow
    // changes (the wrapper now leaks its argument).
    EXPECT_EQ(graph_builds_for_edit(
                  kRelinkFiles, "lib.php",
                  "<?php function wrap($x) { $y = $x; return htmlentities($x) . $y; }"),
              0u);
}

TEST(WatchModeTest, IncludeEditRelinksTheGraph) {
    EXPECT_EQ(graph_builds_for_edit(
                  kRelinkFiles, "app.php",
                  "<?php include 'lib.php'; include 'other.php'; "
                  "echo wrap($_GET['q']);"),
              1u);
}

TEST(ServiceTest, SoakFilePoolChargesEveryReservedArenaByte) {
    // A few hundred scans of successive versions push every version of the
    // edited file through the file pool. The pool must charge at least the
    // arena bytes its resident parses reserve (the blocks they keep
    // resident, not just the bytes handed out), and stay within budget.
    ServiceOptions so;
    so.workers = 1;
    so.budgets.file_bytes = 256ull << 10;
    so.budgets.result_bytes = 0;  // bytes_resident = the file pool alone
    AnalysisService service(so);

    std::vector<std::pair<std::string, std::string>> versions = kRelinkFiles;
    for (int rev = 0; rev < 300; ++rev) {
        const std::string text =
            "<?php function wrap($x) { return htmlentities($x); } // rev " +
            std::to_string(rev);
        versions.emplace_back("lib.php", text);
        ScanRequest request;
        request.plugin = "soak";
        for (const auto& [file, body] : kRelinkFiles)
            request.files.push_back({file, file == "lib.php" ? text : body});
        ASSERT_FALSE(service.scan(std::move(request)).rejected) << "rev " << rev;
    }

    const CacheStats stats = service.cache_stats();
    uint64_t reserved = 0;
    uint64_t resident = 0;
    for (const auto& [name, text] : versions) {
        const auto parsed =
            service.cache().find_file(name, php::content_hash(text));
        if (!parsed) continue;
        reserved += parsed->arena.bytes_reserved();
        ++resident;
    }
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(resident, stats.file_entries);
    EXPECT_GE(stats.bytes_resident, reserved);
    EXPECT_LE(stats.bytes_resident, so.budgets.file_bytes);
}

TEST(WatchModeTest, EditsAdmitNothingToTheFilePool) {
    // The session's project pins every version it parses, so a few hundred
    // edits leave the shared pool exactly as the open filled it.
    ServiceOptions so;
    so.workers = 1;
    AnalysisService service(so);
    service::WatchSession watch(service);
    ScanRequest open;
    open.plugin = "soak";
    for (const auto& [file, body] : kRelinkFiles) open.files.push_back({file, body});
    ASSERT_FALSE(watch.open(std::move(open)).rejected);
    const uint64_t opened = service.cache_stats().file_entries;
    EXPECT_EQ(opened, kRelinkFiles.size());

    for (int rev = 0; rev < 300; ++rev) {
        service::WatchEditBatch batch;
        batch.upserts.push_back(
            {"lib.php", "<?php function wrap($x) { return htmlentities($x); } // rev " +
                            std::to_string(rev)});
        ASSERT_TRUE(watch.edit(batch).ok) << "rev " << rev;
    }
    EXPECT_EQ(service.cache_stats().file_entries, opened);
}

TEST(WatchModeTest, RejectedRescanClosesTheSession) {
    // Another client's scan fills the shared queue, so the edit's re-scan
    // is rejected. The edit fails and the session closes: a delta against
    // an empty baseline would be wrong, and so would every later one.
    ServiceOptions so;
    so.workers = 1;
    so.max_queue_depth = 1;
    AnalysisService service(so);
    service::WatchSession watch(service);
    ScanRequest open;
    open.plugin = "full";
    for (const auto& [file, body] : kRelinkFiles) open.files.push_back({file, body});
    ASSERT_FALSE(watch.open(std::move(open)).rejected);
    ASSERT_TRUE(watch.active());

    service.pause();
    const auto queued =
        service.submit(one_file("other", "x.php", "<?php echo $_GET['x'];"));
    service::WatchEditBatch batch;
    batch.upserts.push_back({"lib.php", "<?php function wrap($x) { return $x; }"});
    const service::WatchDelta delta = watch.edit(batch);
    EXPECT_FALSE(delta.ok);
    EXPECT_TRUE(delta.response.rejected);
    EXPECT_EQ(delta.error, "re-scan rejected by admission control");
    EXPECT_TRUE(delta.removed.empty());
    EXPECT_FALSE(watch.active());
    EXPECT_FALSE(watch.edit(batch).ok);

    service.resume();
    EXPECT_FALSE(service.await(queued).rejected);
}

TEST(ServerSessionTest, PipelinedWatchSessionMatchesSerialLoopByteForByte) {
    const std::string script =
        "{\"op\":\"watch\",\"plugin\":\"w\",\"files\":[{\"name\":\"a.php\","
        "\"text\":\"<?php include 'b.php'; echo esc($_GET['x']);\"},"
        "{\"name\":\"b.php\",\"text\":\"<?php function esc($v) { return "
        "htmlentities($v); }\"}]}\n"
        "{\"op\":\"edit\",\"files\":[{\"name\":\"b.php\",\"text\":\"<?php "
        "function esc($v) { return $v; }\"}]}\n"
        "{\"op\":\"graph\"}\n"
        "{\"op\":\"edit\",\"remove\":[\"b.php\"]}\n"
        "{\"op\":\"stats\"}\n"
        "{\"op\":\"quit\"}\n";

    std::ostringstream serial_out;
    {
        ServerOptions options;
        options.deterministic = true;
        std::istringstream in(script);
        AnalysisServer(options).serve_serial(in, serial_out);
    }

    std::ostringstream session_out;
    {
        ServerOptions options;
        options.service.workers = 4;
        options.deterministic = true;
        AnalysisServer server(options);
        std::istringstream in(script);
        EXPECT_EQ(server.serve_session(in, session_out), 6);
    }
    EXPECT_EQ(session_out.str(), serial_out.str());
}

TEST(NdjsonFramingTest, UnknownKeysRejectedWithUniformErrorShape) {
    // Every unknown-key rejection — whichever loop parses it — must be the
    // one structured {"ok":false,"error":...} shape with the same message.
    const std::string script =
        "{\"op\":\"stats\",\"extra\":1}\n"
        "{\"op\":\"clear\",\"slot\":\"x\"}\n"
        "{\"op\":\"scan\",\"plugin\":\"p\",\"detail\":true,"
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php\"}]}\n"
        "{\"op\":\"graph\",\"slot\":\"x\"}\n"
        "{\"op\":\"validate\",\"bogus\":1}\n"
        "{\"op\":\"quit\"}\n";
    const std::string expected =
        service::render_error_line("unknown key \"extra\" for op \"stats\"") +
        "\n" +
        service::render_error_line("unknown key \"slot\" for op \"clear\"") +
        "\n" +
        service::render_error_line("unknown key \"detail\" for op \"scan\"") +
        "\n" +
        service::render_error_line("unknown key \"slot\" for op \"graph\"") +
        "\n" +
        service::render_error_line(
            "unknown key \"bogus\" for op \"validate\"") +
        "\n" + service::render_bye_line() + "\n";

    std::ostringstream serial_out;
    {
        ServerOptions options;
        options.deterministic = true;
        std::istringstream in(script);
        AnalysisServer(options).serve_serial(in, serial_out);
    }
    EXPECT_EQ(serial_out.str(), expected);

    std::ostringstream session_out;
    {
        ServerOptions options;
        options.deterministic = true;
        AnalysisServer server(options);
        std::istringstream in(script);
        server.serve_session(in, session_out);
    }
    EXPECT_EQ(session_out.str(), expected);
}

// ------------------------------------------------------ multi-client golden

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(GoldenNdjsonProtocol, MultiClientTranscriptsMatch) {
    const std::string dir = PHPSAFE_GOLDEN_DIR;
    const std::string in_a = read_file(dir + "/ndjson_multi_a.in");
    const std::string in_b = read_file(dir + "/ndjson_multi_b.in");

    ServerOptions options;
    options.deterministic = true;
    options.service.workers = 2;
    AnalysisServer server(options);

    std::istringstream stream_a(in_a), stream_b(in_b);
    std::ostringstream out_a, out_b;
    std::thread ta([&] { server.serve_session(stream_a, out_a); });
    std::thread tb([&] { server.serve_session(stream_b, out_b); });
    ta.join();
    tb.join();

    // Disjoint plugin contents mean zero cross-client cache interaction, so
    // each client's transcript is deterministic despite true concurrency.
    EXPECT_EQ(out_a.str(), read_file(dir + "/ndjson_multi_a.out"));
    EXPECT_EQ(out_b.str(), read_file(dir + "/ndjson_multi_b.out"));
}

}  // namespace
}  // namespace phpsafe
