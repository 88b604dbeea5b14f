// Allocation bench: cold model construction (lex + parse + include
// resolution) over the full generated corpus, measured against the
// pre-arena seed pipeline. This is the verification artifact for the
// arena-allocated AST: it reports wall/CPU time, a malloc-count proxy
// (every global operator new call made while the models are built), and
// peak RSS, and writes BENCH_alloc.json next to the repo root.
//
// The "pre" block embeds the seed baseline measured with this same
// procedure before the arena landed: the old parser made at least one heap
// allocation per AST node (make_unique per node, plus a std::string per
// identifier), so allocations-per-node = 1.0 is a conservative floor.
//
// Usage: bench_alloc [corpus_scale] [output_path]
//        bench_alloc --smoke
//
// --smoke rebuilds the corpus at the committed baseline's scale and gates
// on the committed BENCH_alloc.json:
// it fails (exit 1) when allocations-per-node, arena-bytes-per-node or the
// lexer's share of lex+parse CPU regress by more than 20%. Those ratios are
// scale- and machine-independent, unlike wall time on a shared CI runner,
// so the gate catches "someone re-introduced per-node heap traffic" or "the
// lexer fell back to per-token string compares" without flaking.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>

#include "corpus/generator.h"
#include "obs/counters.h"
#include "php/project.h"
#include "php/walk.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/timing.h"
#include "host.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

// ---------------------------------------------------------------------------
// Malloc-count proxy: count every global operator new while models build.
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace phpsafe {
namespace {

// Seed baseline (pre-arena pipeline, same machine, same procedure): cold
// lex/parse/include CPU over the scale-1.0 corpus, and its peak RSS.
constexpr double kPreLexCpuSeconds = 0.316;      // 2012: 0.099 + 2014: 0.217
constexpr double kPreParseCpuSeconds = 0.261;    // 2012: 0.082 + 2014: 0.179
constexpr double kPreIncludeCpuSeconds = 0.001;
constexpr double kPreTotalCpuSeconds =
    kPreLexCpuSeconds + kPreParseCpuSeconds + kPreIncludeCpuSeconds;
constexpr uint64_t kPreAstNodes = 681135;
constexpr uint64_t kPrePeakRssKb = 27696;
constexpr double kPreAllocsPerNodeFloor = 1.0;

struct ColdRun {
    double wall_seconds = 0;
    double lex_cpu_seconds = 0;
    double parse_cpu_seconds = 0;
    double include_cpu_seconds = 0;
    uint64_t heap_allocations = 0;
    obs::Counters counters;
    int includes_checked = 0;

    double total_cpu_seconds() const {
        return lex_cpu_seconds + parse_cpu_seconds + include_cpu_seconds;
    }
    double allocs_per_node() const {
        return counters.ast_nodes
                   ? static_cast<double>(heap_allocations) /
                         static_cast<double>(counters.ast_nodes)
                   : 0;
    }
    /// Lexing's share of lex+parse CPU: a lexer slowdown raises it on any
    /// machine, while a uniformly slower host leaves it alone.
    double lex_cpu_share() const {
        const double both = lex_cpu_seconds + parse_cpu_seconds;
        return both > 0 ? lex_cpu_seconds / both : 0;
    }
    double arena_bytes_per_node() const {
        return counters.ast_nodes
                   ? static_cast<double>(counters.alloc_arena_bytes) /
                         static_cast<double>(counters.ast_nodes)
                   : 0;
    }
};

/// Builds every plugin-version model of the corpus from cold source text,
/// then resolves every literal include path, exactly like the engine's
/// model-construction stage — and nothing else.
ColdRun run_cold_construction(const corpus::Corpus& corpus) {
    ColdRun run;
    const obs::CounterDelta delta;
    const uint64_t allocs_before =
        g_heap_allocations.load(std::memory_order_relaxed);
    const double wall_start = wall_seconds();

    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        for (const corpus::PluginVersionSource* version :
             {&plugin.v2012, &plugin.v2014}) {
            php::Project project(plugin.name);
            for (const auto& [name, text] : version->files)
                project.add_file(name, text);
            DiagnosticSink sink;
            project.parse_all(sink);
            run.lex_cpu_seconds += project.build_stats().lex_cpu_seconds;
            run.parse_cpu_seconds += project.build_stats().parse_cpu_seconds;

            const double include_start = thread_cpu_seconds();
            // Visitors hoisted out of the statement loop so the walk costs
            // zero allocations regardless of std::function's SBO size.
            const php::ExprVisitor find_includes = [&](const php::Expr& e) {
                if (e.kind != php::NodeKind::kIncludeExpr) return;
                const auto& inc = static_cast<const php::IncludeExpr&>(e);
                if (!inc.path || inc.path->kind != php::NodeKind::kLiteral)
                    return;
                const auto& lit = static_cast<const php::Literal&>(*inc.path);
                (void)project.resolve_include(lit.value);
                ++run.includes_checked;
            };
            const php::StmtVisitor ignore_stmts = [](const php::Stmt&) {};
            for (const auto& file : project.files()) {
                if (!file) continue;
                for (const php::StmtPtr& stmt : file->unit.statements)
                    if (stmt) php::walk_stmt(*stmt, find_includes, ignore_stmts);
            }
            run.include_cpu_seconds += thread_cpu_seconds() - include_start;
        }
    }

    run.wall_seconds = wall_seconds() - wall_start;
    run.heap_allocations =
        g_heap_allocations.load(std::memory_order_relaxed) - allocs_before;
    run.counters = delta.take();
    return run;
}

uint64_t peak_rss_kb() {
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_maxrss);
}

void write_report(const std::string& path, double scale, const ColdRun& run) {
    std::ofstream out(path);
    JsonWriter w(out, 2);
    w.begin_object();
    w.kv("bench", "bench_alloc");
    w.kv("corpus_scale", scale, 4);
    w.key("pre").begin_object();
    w.kv("pipeline", "per-node make_unique + std::string identifiers");
    w.kv("lex_cpu_seconds", kPreLexCpuSeconds, 4);
    w.kv("parse_cpu_seconds", kPreParseCpuSeconds, 4);
    w.kv("include_cpu_seconds", kPreIncludeCpuSeconds, 4);
    w.kv("total_cpu_seconds", kPreTotalCpuSeconds, 4);
    w.kv("ast_nodes", kPreAstNodes);
    w.kv("peak_rss_kb", kPrePeakRssKb);
    w.kv("allocs_per_node_floor", kPreAllocsPerNodeFloor, 4);
    w.end_object();
    w.key("post").begin_object();
    w.kv("pipeline", "arena nodes + zero-copy string_view identifiers");
    w.kv("wall_seconds", run.wall_seconds, 4);
    w.kv("lex_cpu_seconds", run.lex_cpu_seconds, 4);
    w.kv("parse_cpu_seconds", run.parse_cpu_seconds, 4);
    w.kv("include_cpu_seconds", run.include_cpu_seconds, 4);
    w.kv("total_cpu_seconds", run.total_cpu_seconds(), 4);
    w.kv("lex_cpu_share", run.lex_cpu_share(), 4);
    w.kv("ast_nodes", run.counters.ast_nodes);
    w.kv("tokens_lexed", run.counters.tokens_lexed);
    w.kv("files_parsed", run.counters.files_parsed);
    w.kv("includes_checked", static_cast<uint64_t>(run.includes_checked));
    w.kv("heap_allocations", run.heap_allocations);
    w.kv("allocs_per_node", run.allocs_per_node(), 4);
    w.kv("arena_bytes", run.counters.alloc_arena_bytes);
    w.kv("arena_blocks", run.counters.alloc_arena_blocks);
    w.kv("arena_bytes_per_node", run.arena_bytes_per_node(), 4);
    w.kv("string_bytes_copied", run.counters.alloc_string_bytes);
    w.kv("string_bytes_zero_copy", run.counters.alloc_string_bytes_saved);
    w.kv("peak_rss_kb", peak_rss_kb());
    w.end_object();
    w.kv("speedup_cold_model_construction",
         kPreTotalCpuSeconds / run.total_cpu_seconds(), 4);
    w.kv("heap_alloc_reduction_per_node",
         kPreAllocsPerNodeFloor / run.allocs_per_node(), 4);
    bench::write_host(w);
    w.end_object();
}

/// Loads the committed baseline; returns false (with a message) when it is
/// missing or malformed.
bool load_baseline(JsonValue& doc) {
    const std::string baseline_path =
        std::string(PHPSAFE_REPO_ROOT) + "/BENCH_alloc.json";
    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "bench_alloc --smoke: baseline " << baseline_path
                  << " not found\n";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    if (!JsonReader::parse(buffer.str(), doc, &error)) {
        std::cerr << "bench_alloc --smoke: bad baseline JSON: " << error
                  << "\n";
        return false;
    }
    return true;
}

int smoke(const ColdRun& run, const JsonValue& doc) {
    const JsonValue* post = doc.get("post");
    const JsonValue* base_allocs = post ? post->get("allocs_per_node") : nullptr;
    const JsonValue* base_bytes =
        post ? post->get("arena_bytes_per_node") : nullptr;
    const JsonValue* base_lex_share = post ? post->get("lex_cpu_share") : nullptr;
    if (!base_allocs || !base_bytes || !base_lex_share) {
        std::cerr << "bench_alloc --smoke: baseline lacks post ratios\n";
        return 1;
    }

    int failures = 0;
    auto gate = [&](const char* what, double current, double committed) {
        const double limit = committed * 1.2;
        const bool ok = current <= limit;
        std::printf("%-24s current %.4f  committed %.4f  limit %.4f  %s\n",
                    what, current, committed, limit, ok ? "ok" : "REGRESSION");
        if (!ok) ++failures;
    };
    gate("allocs_per_node", run.allocs_per_node(), base_allocs->number);
    gate("arena_bytes_per_node", run.arena_bytes_per_node(),
         base_bytes->number);
    gate("lex_cpu_share", run.lex_cpu_share(), base_lex_share->number);
    return failures ? 1 : 0;
}

int bench_main(int argc, char** argv) {
    bool smoke_mode = false;
    double scale = 1.0;
    std::string output = std::string(PHPSAFE_REPO_ROOT) + "/BENCH_alloc.json";
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke_mode = true;
        } else if (positional == 0) {
            scale = std::atof(argv[i]);
            ++positional;
        } else {
            output = argv[i];
            ++positional;
        }
    }
    // The per-node ratios depend on corpus scale (tiny files amortize
    // per-file fixed costs over fewer nodes), so the smoke run rebuilds the
    // corpus at the committed baseline's own scale — a full-scale cold
    // construction takes well under a second.
    JsonValue baseline;
    if (smoke_mode) {
        if (!load_baseline(baseline)) return 1;
        const JsonValue* base_scale = baseline.get("corpus_scale");
        scale = base_scale ? base_scale->number : 1.0;
    }
    if (scale <= 0) {
        std::cerr << "usage: bench_alloc [corpus_scale] [output_path] "
                     "| bench_alloc --smoke\n";
        return 2;
    }

    corpus::CorpusOptions options;
    options.scale = scale;
    options.filler_lines_2012 = static_cast<int>(70000 * scale);
    options.filler_lines_2014 = static_cast<int>(150000 * scale);
    const corpus::Corpus corpus = corpus::generate_corpus(options);

    const ColdRun run = run_cold_construction(corpus);

    std::printf(
        "cold model construction: %.3f s wall, %.3f s cpu "
        "(lex %.3f, parse %.3f, include %.3f; lex share %.4f)\n",
        run.wall_seconds, run.total_cpu_seconds(), run.lex_cpu_seconds,
        run.parse_cpu_seconds, run.include_cpu_seconds, run.lex_cpu_share());
    std::printf(
        "%llu nodes, %llu heap allocations (%.4f per node), "
        "%llu arena bytes in %llu blocks\n",
        static_cast<unsigned long long>(run.counters.ast_nodes),
        static_cast<unsigned long long>(run.heap_allocations),
        run.allocs_per_node(),
        static_cast<unsigned long long>(run.counters.alloc_arena_bytes),
        static_cast<unsigned long long>(run.counters.alloc_arena_blocks));

    if (smoke_mode) return smoke(run, baseline);

    std::printf("speedup vs seed: %.2fx cpu; alloc reduction: %.1fx; "
                "peak rss %llu KB (seed %llu KB)\n",
                kPreTotalCpuSeconds / run.total_cpu_seconds(),
                kPreAllocsPerNodeFloor / run.allocs_per_node(),
                static_cast<unsigned long long>(peak_rss_kb()),
                static_cast<unsigned long long>(kPrePeakRssKb));
    write_report(output, scale, run);
    std::printf("wrote %s\n", output.c_str());
    return 0;
}

}  // namespace
}  // namespace phpsafe

int main(int argc, char** argv) { return phpsafe::bench_main(argc, argv); }
