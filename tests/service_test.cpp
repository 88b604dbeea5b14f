// AnalysisService + AnalysisCache behavior: cache-state independence of
// findings (warm == cold, byte for byte) across changed dependencies,
// deleted and shadowing files and call cascades, LRU eviction under a tiny
// byte budget, in-flight request deduplication, and the daemon's JSON
// reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "corpus/generator.h"
#include "report/export.h"
#include "service/cache.h"
#include "service/service.h"
#include "util/json_reader.h"

namespace phpsafe {
namespace {

using service::AnalysisService;
using service::CacheStats;
using service::ScanRequest;
using service::ScanResponse;
using service::ServiceOptions;

ScanRequest simple_request(std::string plugin,
                           std::vector<service::SourceFileSpec> files) {
    ScanRequest request;
    request.plugin = std::move(plugin);
    request.files = std::move(files);
    return request;
}

/// The three-file project used by the warm == cold tests: main echoes a GET
/// value routed through wrap() (lib.php), which delegates to inner()
/// (util.php). Whether the output is vulnerable depends only on inner().
ScanRequest layered_request(const std::string& inner_body) {
    return simple_request(
        "layered",
        {{"lib.php", "<?php function wrap($v) { return inner($v); }"},
         {"util.php", "<?php function inner($v) { " + inner_body + " }"},
         {"main.php",
          "<?php include 'lib.php'; include 'util.php'; "
          "echo wrap($_GET['x']);"}});
}

TEST(ServiceTest, FindsSimpleXss) {
    AnalysisService service;
    const ScanResponse response = service.scan(simple_request(
        "demo", {{"a.php", "<?php echo $_GET['x'];"}}));
    ASSERT_EQ(response.result.findings.size(), 1u);
    EXPECT_EQ(response.result.findings[0].kind, VulnKind::kXss);
    EXPECT_FALSE(response.from_result_cache);
}

TEST(ServiceTest, ParameterFlowFindingEndsWithOneSinkStep) {
    // f() is first called with a clean argument, so its body reports
    // nothing and its summary records the parameter-to-sink flow. The
    // second call reaches the sink through that summarized flow; the trace
    // must close with exactly one "reaches sink" step: the parameter-flow
    // replay leaves that step to report().
    AnalysisService service;
    const ScanResponse response = service.scan(simple_request(
        "p", {{"a.php",
               "<?php\nfunction f($x) { echo $x; }\nf('safe');\n"
               "f($_GET[\"a\"]);\n"}}));
    ASSERT_EQ(response.result.findings.size(), 1u);
    const std::vector<TaintStep>& trace = response.result.findings[0].trace;
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].description, "source: $_GET['a']");
    EXPECT_EQ(trace[1].description, "passed to f() argument #1");
    EXPECT_EQ(trace[1].location.line, 4);
    EXPECT_EQ(trace[2].description, "reaches sink echo");
    EXPECT_EQ(trace[2].location.line, 2);
    EXPECT_EQ(std::count_if(trace.begin(), trace.end(),
                            [](const TaintStep& step) {
                                return step.description.starts_with(
                                    "reaches sink");
                            }),
              1);
}

TEST(ServiceTest, IdenticalRescanHitsResultPool) {
    AnalysisService service;
    const ScanRequest request =
        simple_request("demo", {{"a.php", "<?php echo $_GET['x'];"}});
    const ScanResponse cold = service.scan(request);
    const ScanResponse warm = service.scan(request);
    EXPECT_FALSE(cold.from_result_cache);
    EXPECT_TRUE(warm.from_result_cache);
    EXPECT_EQ(render_json_report(cold.result), render_json_report(warm.result));
}

TEST(ServiceTest, ColdScanChargesParsedBytesGauge) {
    AnalysisService service;
    const std::string code = "<?php echo $_GET['x'];";
    const ScanRequest request = simple_request("demo", {{"a.php", code}});
    const ScanResponse cold = service.scan(request);
    // The parsed-file pool charges the arena's reserved blocks plus the
    // retained source (plus a fixed entry header), so the gauge must
    // reconcile exactly with the cached file's arena for a single freshly
    // parsed file — and reserved bytes cover every byte the parse allocated.
    const auto parsed =
        service.cache().find_file("a.php", php::content_hash(code));
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(cold.counters.cache_bytes_parsed,
              64 + parsed->arena.bytes_reserved() + code.size());
    EXPECT_GE(parsed->arena.bytes_reserved(), cold.counters.alloc_arena_bytes);
    EXPECT_GT(cold.counters.alloc_arena_bytes, 0u);
    // A byte-identical rescan is served from the result pool: nothing is
    // parsed, so nothing new is charged.
    const ScanResponse warm = service.scan(request);
    EXPECT_EQ(warm.counters.cache_bytes_parsed, 0u);
}

TEST(ServiceTest, EditedFileReusesUnchangedAsts) {
    AnalysisService service;
    (void)service.scan(layered_request("return htmlentities($v);"));

    // Touch only main.php; the parses of lib.php and util.php must come
    // from the file pool.
    ScanRequest edited = layered_request("return htmlentities($v);");
    edited.files[2].text += " echo 'v2';";
    const ScanResponse response = service.scan(edited);
    EXPECT_FALSE(response.from_result_cache);
    EXPECT_EQ(response.files_reused, 2);
    EXPECT_TRUE(response.result.findings.empty());
    // The service carries no summary across scans: the fields and counters
    // the benchmark reads stay 0.
    EXPECT_EQ(response.summaries_seeded, 0);
    EXPECT_EQ(response.counters.cache_summary_hits, 0u);
    EXPECT_EQ(response.counters.cache_summary_misses, 0u);
    EXPECT_EQ(response.counters.cache_dep_walk_memo_hits, 0u);
}

TEST(ServiceTest, ChangedDependencyInvalidatesDependentSummary) {
    AnalysisService service;
    const ScanResponse sanitized =
        service.scan(layered_request("return htmlentities($v);"));
    EXPECT_TRUE(sanitized.result.findings.empty());

    // inner() loses its sanitization. wrap() lives in an unchanged file
    // whose AST comes from the pool; anything carried over from the first
    // scan that still treated the flow as sanitized would hide the finding.
    const ScanRequest vulnerable = layered_request("return $v;");
    const ScanResponse warm = service.scan(vulnerable);
    ASSERT_EQ(warm.result.findings.size(), 1u);
    EXPECT_EQ(warm.result.findings[0].kind, VulnKind::kXss);

    // And the warm findings are byte-identical to a cold service's.
    AnalysisService cold_service;
    const ScanResponse cold = cold_service.scan(vulnerable);
    EXPECT_EQ(render_json_report(warm.result), render_json_report(cold.result));
}

TEST(ServiceTest, FileDeletedBetweenScansInvalidatesDependents) {
    AnalysisService service;
    const ScanResponse sanitized =
        service.scan(layered_request("return htmlentities($v);"));
    EXPECT_TRUE(sanitized.result.findings.empty());

    // util.php disappears from the plugin. wrap() must not keep reporting
    // the flow as sanitized by a function that is gone.
    ScanRequest deleted = layered_request("return htmlentities($v);");
    deleted.files.erase(deleted.files.begin() + 1);  // drop util.php
    const ScanResponse warm = service.scan(deleted);
    EXPECT_FALSE(warm.from_result_cache);

    AnalysisService cold_service;
    const ScanResponse cold = cold_service.scan(deleted);
    EXPECT_EQ(render_json_report(warm.result), render_json_report(cold.result));
}

TEST(ServiceTest, IncludeRenamedToShadowAnotherFile) {
    // Every file's *content* stays byte-identical across the two scans —
    // only the names swap, flipping which file `include 'inc.php'` picks
    // up. The AST pool (content-addressed) may reuse everything; results
    // must still track the include resolution by name.
    const std::string sanitizes = "<?php $x = htmlentities($x);";
    const std::string noop = "<?php $unused = 1;";
    const std::string main_php =
        "<?php $x = $_GET['q']; include 'inc.php'; echo $x;";

    AnalysisService service;
    const ScanResponse before = service.scan(simple_request(
        "shadow",
        {{"inc.php", sanitizes}, {"spare.php", noop}, {"main.php", main_php}}));
    EXPECT_TRUE(before.result.findings.empty());

    // "spare.php" is renamed over "inc.php" (and the sanitizer file moves
    // aside): the include now resolves to the no-op shadow.
    const ScanResponse after = service.scan(simple_request(
        "shadow",
        {{"inc.php", noop}, {"spare.php", sanitizes}, {"main.php", main_php}}));
    EXPECT_FALSE(after.from_result_cache);
    ASSERT_EQ(after.result.findings.size(), 1u);
    EXPECT_EQ(after.result.findings[0].kind, VulnKind::kXss);

    AnalysisService cold_service;
    const ScanResponse cold = cold_service.scan(simple_request(
        "shadow",
        {{"inc.php", noop}, {"spare.php", sanitizes}, {"main.php", main_php}}));
    EXPECT_EQ(render_json_report(after.result), render_json_report(cold.result));
}

TEST(ServiceTest, InvalidationCascadesTwoLevelsUpTheCallGraph) {
    // outer() → mid() → inner(), one file each. Editing only inner()'s file
    // must change what *both* callers above it report: mid() calls inner()
    // directly, outer() only transitively.
    const auto chain_request = [](const std::string& inner_body) {
        return simple_request(
            "chain",
            {{"outer.php", "<?php function outer($v) { return mid($v); }"},
             {"mid.php", "<?php function mid($v) { return inner($v); }"},
             {"inner.php", "<?php function inner($v) { " + inner_body + " }"},
             {"main.php",
              "<?php include 'outer.php'; include 'mid.php'; "
              "include 'inner.php'; echo outer($_GET['x']);"}});
    };

    AnalysisService service;
    const ScanResponse sanitized =
        service.scan(chain_request("return htmlentities($v);"));
    EXPECT_TRUE(sanitized.result.findings.empty());

    const ScanResponse warm = service.scan(chain_request("return $v;"));
    ASSERT_EQ(warm.result.findings.size(), 1u);
    EXPECT_EQ(warm.result.findings[0].kind, VulnKind::kXss);

    AnalysisService cold_service;
    const ScanResponse cold = cold_service.scan(chain_request("return $v;"));
    EXPECT_EQ(render_json_report(warm.result), render_json_report(cold.result));
}

TEST(ServiceTest, LruEvictsUnderTinyByteBudget) {
    ServiceOptions options;
    options.budgets.file_bytes = 2048;    // holds ~2 small parsed files
    options.budgets.result_bytes = 0;     // result pool disabled entirely
    AnalysisService service(options);

    std::vector<service::SourceFileSpec> files;
    for (int i = 0; i < 8; ++i) {
        const std::string n = std::to_string(i);
        files.push_back({"f" + n + ".php",
                         "<?php function fn" + n + "($v) { return $v . '" + n +
                             "'; } echo fn" + n + "($_GET['q" + n + "']);"});
    }
    const ScanRequest request = simple_request("evict", files);
    const ScanResponse first = service.scan(request);
    const CacheStats stats = service.cache_stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LT(stats.file_entries, files.size());
    EXPECT_LE(stats.bytes_resident, options.budgets.file_bytes);
    EXPECT_EQ(stats.result_entries, 0u);

    // Eviction affects cost only: a re-scan under cache pressure returns
    // the same findings.
    const ScanResponse second = service.scan(request);
    EXPECT_FALSE(second.from_result_cache);
    EXPECT_EQ(render_json_report(first.result),
              render_json_report(second.result));
}

TEST(ServiceTest, InFlightIdenticalRequestsCoalesce) {
    AnalysisService service;
    service.pause();  // hold the queue so both submits see the same scan
    const ScanRequest request =
        simple_request("dedup", {{"a.php", "<?php echo $_GET['x'];"}});
    const AnalysisService::Ticket first = service.submit(request);
    const AnalysisService::Ticket second = service.submit(request);
    service.resume();
    const ScanResponse a = service.await(first);
    const ScanResponse b = service.await(second);
    EXPECT_FALSE(a.deduplicated);
    EXPECT_TRUE(b.deduplicated);
    EXPECT_EQ(render_json_report(a.result), render_json_report(b.result));
}

TEST(ServiceTest, RequestFingerprintCoversNamesAndContent) {
    const ScanRequest base =
        simple_request("p", {{"a.php", "<?php echo 1;"}});
    ScanRequest renamed = base;
    renamed.files[0].name = "b.php";
    ScanRequest edited = base;
    edited.files[0].text += " ";
    ScanRequest other_preset = base;
    other_preset.preset = "rips";
    const uint64_t fp = AnalysisService::request_fingerprint(base);
    EXPECT_NE(fp, AnalysisService::request_fingerprint(renamed));
    EXPECT_NE(fp, AnalysisService::request_fingerprint(edited));
    EXPECT_NE(fp, AnalysisService::request_fingerprint(other_preset));
    EXPECT_EQ(fp, AnalysisService::request_fingerprint(base));
}

// The editor/CI loop the service exists for: scan the whole corpus, touch
// one file of one plugin, scan everything again. The warm pass must run the
// engine once, for the touched plugin, over every other file's cached AST,
// and answer every other plugin from the result pool. Those counts, not a
// wall-clock ratio, are what make the warm pass fast, so they are asserted
// exactly; every warm report must equal a cold service's byte for byte.
TEST(ServiceTest, WarmScanOfCorpusPluginMatchesColdByteForByte) {
    corpus::CorpusOptions corpus_options;
    corpus_options.scale = 0.2;
    const corpus::Corpus corpus = corpus::generate_corpus(corpus_options);

    std::vector<ScanRequest> requests;
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        ScanRequest request;
        request.plugin = plugin.name;
        for (const auto& [name, text] : plugin.v2014.files)
            request.files.push_back({name, text});
        requests.push_back(std::move(request));
    }
    ASSERT_GT(requests.size(), 1u);
    const size_t touched = 0;
    const int touched_files = static_cast<int>(requests[touched].files.size());
    ASSERT_GT(touched_files, 1);

    AnalysisService warm_service;
    for (const ScanRequest& request : requests) (void)warm_service.scan(request);
    const CacheStats primed = warm_service.cache_stats();
    EXPECT_EQ(primed.result_hits, 0u);

    // A trailing comment changes the file's content hash, not its findings.
    requests[touched].files[0].text += "\n// touched\n";
    std::vector<ScanResponse> warm;
    for (const ScanRequest& request : requests)
        warm.push_back(warm_service.scan(request));
    const CacheStats after = warm_service.cache_stats();

    const uint64_t others = requests.size() - 1;
    EXPECT_EQ(after.result_hits - primed.result_hits, others);
    EXPECT_EQ(after.file_misses - primed.file_misses, 1u);
    EXPECT_EQ(after.file_hits - primed.file_hits,
              static_cast<uint64_t>(touched_files - 1));
    EXPECT_EQ(after.evictions, 0u);
    for (size_t i = 0; i < warm.size(); ++i)
        EXPECT_EQ(warm[i].from_result_cache, i != touched) << requests[i].plugin;
    EXPECT_EQ(warm[touched].files_reused, touched_files - 1);

    AnalysisService cold_service;
    for (size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(render_json_report(warm[i].result),
                  render_json_report(cold_service.scan(requests[i]).result))
            << requests[i].plugin;
}

TEST(ServiceTest, ServedReportEqualsPaperAnalyzerReportOnTheCorpus) {
    // The service runs the paper's semantics (summaries in the context of
    // the first call), so a served report is the paper Analyzer's report
    // byte for byte, on every plugin-version of the default corpus.
    const corpus::Corpus corpus = corpus::generate_corpus({});
    const Analyzer analyzer;  // WordPress profile, phpSAFE preset
    AnalysisService service;
    int versions = 0;
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        for (const corpus::PluginVersionSource* version :
             {&plugin.v2012, &plugin.v2014}) {
            ScanRequest request;
            request.plugin = plugin.name;
            php::Project project(plugin.name);
            for (const auto& [name, text] : version->files) {
                request.files.push_back({name, text});
                project.add_file(name, text);
            }
            DiagnosticSink sink;
            project.parse_all(sink);
            EXPECT_EQ(render_json_report(service.scan(request).result),
                      render_json_report(analyzer.scan(project).result))
                << plugin.name << " " << version->version;
            ++versions;
        }
    }
    EXPECT_EQ(versions, 70);
}

// ---------------------------------------------------------------------------
// JsonReader (the daemon's request decoder)
// ---------------------------------------------------------------------------

TEST(JsonReaderTest, ParsesDaemonRequestShape) {
    JsonValue v;
    ASSERT_TRUE(JsonReader::parse(
        R"({"op":"scan","plugin":"p","files":[{"name":"a.php","text":"<?php\n"}]})",
        v));
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.string_or("op", ""), "scan");
    const JsonValue* files = v.get("files");
    ASSERT_TRUE(files && files->is_array());
    ASSERT_EQ(files->array.size(), 1u);
    EXPECT_EQ(files->array[0].string_or("text", ""), "<?php\n");
}

TEST(JsonReaderTest, ParsesScalarsAndNesting) {
    JsonValue v;
    ASSERT_TRUE(JsonReader::parse(
        R"({"a":-1.5e2,"b":true,"c":null,"d":[1,2,[3]],"e":{"f":"g"}})", v));
    EXPECT_EQ(v.int_or("a", 0), -150);
    EXPECT_TRUE(v.get("b")->boolean);
    EXPECT_TRUE(v.get("c")->is_null());
    EXPECT_EQ(v.get("d")->array[2].array[0].number, 3);
    EXPECT_EQ(v.get("e")->string_or("f", ""), "g");
}

TEST(JsonReaderTest, DecodesEscapes) {
    JsonValue v;
    ASSERT_TRUE(JsonReader::parse(R"(["\"\\\n\tAé😀"])", v));
    EXPECT_EQ(v.array[0].string, "\"\\\n\tA\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(JsonReader::parse("{\"a\":}", v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(JsonReader::parse("[1,2", v));
    EXPECT_FALSE(JsonReader::parse("{} trailing", v));
    EXPECT_FALSE(JsonReader::parse("\"unterminated", v));
    EXPECT_FALSE(JsonReader::parse("nul", v));
    EXPECT_FALSE(JsonReader::parse("", v));
}

TEST(JsonReaderTest, RoundTripsThroughJsonWriter) {
    // The writer's escaping must always be parseable by the reader.
    std::ostringstream out;
    JsonWriter w(out);
    w.begin_object();
    w.kv("text", "quote\" slash\\ tab\t nl\n ctl\x01");
    w.end_object();
    JsonValue v;
    ASSERT_TRUE(JsonReader::parse(out.str(), v));
    EXPECT_EQ(v.string_or("text", ""), "quote\" slash\\ tab\t nl\n ctl\x01");
}

}  // namespace
}  // namespace phpsafe
