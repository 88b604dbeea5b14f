// Tests for the observability subsystem: counter arithmetic and TLS
// isolation, CounterDelta capture, Engine::Observer dispatch order, span
// tracing, and the subsystem's central cost contract — a disabled tracer
// and the always-on counters allocate nothing on the hot path.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "phpsafe.h"

// Sanitizer builds interpose their own allocator and may bypass the
// counting operator new (alloc_counter.cpp), so the no-allocation
// assertions are skipped there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHPSAFE_ALLOC_COUNT_RELIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PHPSAFE_ALLOC_COUNT_RELIABLE 0
#else
#define PHPSAFE_ALLOC_COUNT_RELIABLE 1
#endif
#else
#define PHPSAFE_ALLOC_COUNT_RELIABLE 1
#endif

namespace phpsafe {
namespace {

TEST(ObsCountersTest, ArithmeticIsFieldWise) {
    obs::Counters a;
    a.tokens_lexed = 10;
    a.sink_checks = 3;
    obs::Counters b;
    b.tokens_lexed = 5;
    b.findings_xss = 2;

    obs::Counters sum = a;
    sum += b;
    EXPECT_EQ(sum.tokens_lexed, 15u);
    EXPECT_EQ(sum.sink_checks, 3u);
    EXPECT_EQ(sum.findings_xss, 2u);
    EXPECT_EQ(sum.total(), 20u);

    const obs::Counters diff = sum - b;
    EXPECT_TRUE(diff == a);
}

TEST(ObsCountersTest, ForEachFieldVisitsEveryCounterInOrder) {
    obs::Counters c;
    c.tokens_lexed = 1;
    c.findings_sqli = 7;
    std::vector<std::string> names;
    uint64_t sum = 0;
    c.for_each_field([&](const char* name, uint64_t value) {
        names.push_back(name);
        sum += value;
    });
    EXPECT_EQ(sum, c.total());
    ASSERT_GE(names.size(), 14u);
    EXPECT_EQ(names.front(), "tokens_lexed");
    // The arena-allocation group closes the X-macro list.
    EXPECT_EQ(names.back(), "alloc_string_bytes_saved");
}

TEST(ObsCountersTest, EveryCounterIsDocumentedInObservabilityMd) {
    std::ifstream in(PHPSAFE_DOCS_DIR "/observability.md");
    ASSERT_TRUE(in) << "cannot open docs/observability.md";
    std::stringstream doc;
    doc << in.rdbuf();
    obs::Counters().for_each_field([&](const char* name, uint64_t) {
        EXPECT_NE(doc.str().find("`" + std::string(name) + "`"),
                  std::string::npos)
            << name << " is not documented in docs/observability.md";
    });
}

TEST(ObsCountersTest, DeltaCapturesOnlyThisThreadsIncrements) {
    const obs::CounterDelta delta;
    ++obs::tls().sink_checks;
    std::thread other([] { obs::tls().sink_checks += 100; });
    other.join();
    const obs::Counters seen = delta.take();
    EXPECT_EQ(seen.sink_checks, 1u);  // the other thread's adds are invisible
    EXPECT_EQ(seen.total(), 1u);
}

TEST(ObsCountersTest, DeltasNest) {
    const obs::CounterDelta outer;
    ++obs::tls().scope_lookups;
    const obs::CounterDelta inner;
    ++obs::tls().scope_lookups;
    EXPECT_EQ(inner.take().scope_lookups, 1u);
    EXPECT_EQ(outer.take().scope_lookups, 2u);
}

#if PHPSAFE_ALLOC_COUNT_RELIABLE
TEST(ObsCountersTest, IncrementsNeverAllocate) {
    ++obs::tls().tokens_lexed;  // fault in the TLS block first
    const uint64_t before = heap_allocations();
    for (int i = 0; i < 1000; ++i) {
        ++obs::tls().taint_propagations;
        ++obs::tls().sink_checks;
        const obs::CounterDelta delta;
        obs::Counters d = delta.take();
        obs::tls().scope_lookups += d.total() ? 0 : 1;
    }
    EXPECT_EQ(heap_allocations(), before);
}

TEST(ObsTraceTest, DisabledTracerSpansAreFree) {
    obs::Tracer tracer(/*enabled=*/false);
    const std::string plugin = "wp-forum";  // built before counting starts
    const uint64_t before = heap_allocations();
    for (int i = 0; i < 1000; ++i) {
        auto span = tracer.span("analyze", {{"plugin", plugin}});
        span.note("findings", "3");
        span.end();
    }
    EXPECT_EQ(heap_allocations(), before);
    EXPECT_EQ(tracer.record_count(), 0u);
}
#endif  // PHPSAFE_ALLOC_COUNT_RELIABLE

TEST(ObsTraceTest, EnabledTracerRecordsSpans) {
    obs::Tracer tracer(/*enabled=*/true);
    EXPECT_TRUE(tracer.enabled());
    {
        auto span = tracer.span("model", {{"plugin", "demo"}, {"version", "2012"}});
        EXPECT_TRUE(span.active());
        span.note("files", "3");
    }  // destructor ends the span
    auto explicit_span = tracer.span("analyze");
    explicit_span.end();
    explicit_span.end();  // idempotent

    const std::vector<obs::SpanRecord> records = tracer.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].name, "model");
    ASSERT_EQ(records[0].args.size(), 3u);
    EXPECT_EQ(records[0].args[0].first, "plugin");
    EXPECT_EQ(records[0].args[0].second, "demo");
    EXPECT_EQ(records[0].args[2].first, "files");
    EXPECT_GE(records[0].wall_seconds, 0.0);
    EXPECT_EQ(records[1].name, "analyze");
    EXPECT_GE(records[1].wall_start, records[0].wall_start);
}

TEST(ObsTraceTest, ExportersEmitWellFormedJson) {
    obs::Tracer tracer(/*enabled=*/true);
    tracer.span("model", {{"plugin", "a\"b"}}).end();
    const std::string chrome = tracer.chrome_trace_json();
    EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(chrome.find("a\\\"b"), std::string::npos);  // escaped label
    const std::string flat = tracer.flat_json();
    EXPECT_NE(flat.find("\"spans\""), std::string::npos);
    EXPECT_NE(flat.find("\"cpu_ms\""), std::string::npos);
    EXPECT_NE(flat.find("\"counters\""), std::string::npos);
}

TEST(ObsTraceTest, SpansRecordTheirCounterDeltas) {
    obs::Tracer tracer(/*enabled=*/true);
    {
        auto span = tracer.span("work");
        obs::tls().cache_file_hits += 3;
        obs::tls().cache_evictions += 1;
    }
    const std::vector<obs::SpanRecord> records = tracer.records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].counters.cache_file_hits, 3u);
    EXPECT_EQ(records[0].counters.cache_evictions, 1u);
    // The flat exporter emits exactly the nonzero fields.
    const std::string flat = tracer.flat_json();
    EXPECT_NE(flat.find("\"cache_file_hits\": 3"), std::string::npos);
    EXPECT_EQ(flat.find("\"tokens_lexed\""), std::string::npos);
}

TEST(ObsTraceTest, DefaultConstructedTracerIsDisabled) {
    obs::Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    { auto span = tracer.span("analyze"); EXPECT_FALSE(span.active()); }
    EXPECT_EQ(tracer.record_count(), 0u);
}

/// Records the order of every observer callback for the dispatch tests.
struct RecordingObserver : Engine::Observer {
    std::vector<std::string> events;
    void on_file_begin(const php::ParsedFile& file) override {
        events.push_back("begin " + file.source->name());
    }
    void on_file_end(const php::ParsedFile& file, bool failed) override {
        events.push_back((failed ? "fail " : "end ") + file.source->name());
    }
    void on_function_summary(const php::FunctionRef& ref,
                             const FunctionSummary&) override {
        events.push_back("summary " + ref.qualified_name());
    }
    void on_finding(const Finding& finding) override {
        events.push_back("finding " + finding.sink);
    }
};

TEST(ObsObserverTest, DispatchOrderOnASmallProject) {
    php::Project project("demo");
    project.add_file("a.php", R"PHP(<?php
function render($x) { echo $x; }
render($_GET['q']);
)PHP");
    project.add_file("b.php", R"PHP(<?php
echo "static";
)PHP");
    DiagnosticSink sink;
    project.parse_all(sink);

    const Tool tool = make_phpsafe_tool();
    RecordingObserver observer;
    const AnalysisResult result = run_tool(tool, project, &observer);
    ASSERT_FALSE(result.findings.empty());

    // Files are visited in project order; the summary of render() and the
    // finding inside it land between a.php's begin and end events.
    const auto at = [&](const std::string& event) {
        for (size_t i = 0; i < observer.events.size(); ++i)
            if (observer.events[i] == event) return static_cast<int>(i);
        return -1;
    };
    ASSERT_GE(at("begin a.php"), 0) << ::testing::PrintToString(observer.events);
    ASSERT_GE(at("end a.php"), 0);
    ASSERT_GE(at("summary render"), 0);
    ASSERT_GE(at("finding echo"), 0);
    EXPECT_LT(at("begin a.php"), at("summary render"));
    EXPECT_LT(at("summary render"), at("end a.php"));
    EXPECT_LT(at("finding echo"), at("summary render"));
    EXPECT_LT(at("end a.php"), at("begin b.php"));
    EXPECT_LT(at("begin b.php"), at("end b.php"));
}

TEST(ObsObserverTest, ObserverIsOptionalAndDetachable) {
    php::Project project("demo");
    project.add_file("a.php", "<?php echo $_GET['q'];\n");
    DiagnosticSink sink;
    project.parse_all(sink);

    const Tool tool = make_phpsafe_tool();
    Engine engine(tool.kb, tool.options);
    EXPECT_EQ(engine.observer(), nullptr);
    const AnalysisResult without = engine.analyze(project);

    RecordingObserver observer;
    engine.set_observer(&observer);
    EXPECT_EQ(engine.observer(), &observer);
    const AnalysisResult with = engine.analyze(project);
    EXPECT_FALSE(observer.events.empty());

    engine.set_observer(nullptr);
    const size_t events_before = observer.events.size();
    const AnalysisResult detached = engine.analyze(project);
    EXPECT_EQ(observer.events.size(), events_before);

    EXPECT_EQ(without.findings.size(), with.findings.size());
    EXPECT_EQ(with.findings.size(), detached.findings.size());
}

TEST(ObsObserverTest, RunToolFillsCountersFromTheRun) {
    php::Project project("demo");
    project.add_file("a.php", "<?php $q = $_GET['q']; echo $q;\n");
    DiagnosticSink sink;
    project.parse_all(sink);  // parsing happens before run_tool's delta

    const AnalysisResult result = run_tool(make_phpsafe_tool(), project);
    EXPECT_EQ(result.counters.tokens_lexed, 0u);  // parsed outside the run
    EXPECT_GT(result.counters.sink_checks, 0u);
    EXPECT_GT(result.counters.scope_lookups, 0u);
    EXPECT_EQ(result.counters.findings_xss,
              static_cast<uint64_t>(result.count(VulnKind::kXss)));
}

}  // namespace
}  // namespace phpsafe
