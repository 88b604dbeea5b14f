// Multi-client load benchmark for the analysis server: N synthetic clients
// hammer ONE shared AnalysisService with the three request kinds real
// front-ends send — cold scans of unseen plugins, warm re-scans of content
// the cache already holds, and single-file edits (the warm-rescan
// scenario of tests/service_test.cpp) — while the service dispatches
// across its TaskTeam and shares one AnalysisCache. Reported per client
// count: p50/p95/p99 request latency and throughput; the saturation row is
// the client count with the highest throughput.
//
// Byte-identity rides along as a hard gate: every concurrent response's
// report must equal the report a serial single-client service produces for
// the same request fingerprint (the repo's standing invariant — scheduling
// must never change output).
//
// Results go to BENCH_serve.json at the repo root (committed, like the
// other BENCH_*.json files).
//
// Usage: bench_serve [scale] [output.json]
//        bench_serve --smoke [baseline.json]
//
// --smoke is the CI gate: it replays a small fixed workload and fails when
// the measured p95/p50 tail ratio regresses more than 20% against the
// committed baseline's smoke block. The workload pools 216 requests, so
// p95 rests on the slowest 11 of them rather than on one or two outliers.
// Gating the RATIO rather than absolute p95 keeps the check meaningful
// across machines of different speeds (the bench_alloc precedent): a
// scheduling or lock-contention regression amplifies the tail relative to
// the median on any host, while a uniformly slower CI box moves both
// together. Byte-identity is always a hard fail.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "report/export.h"
#include "service/service.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/timing.h"
#include "host.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

using namespace phpsafe;
using service::AnalysisService;
using service::ScanRequest;
using service::ScanResponse;
using service::ServiceOptions;

namespace {

/// The smoke workload: kSmokeRounds rounds, each on a fresh service, of
/// kSmokeClients clients sending kSmokeRequestsPerClient requests over the
/// corpus at kSmokeScale. Every round has the same mostly-cold mix; the
/// rounds pool 216 latencies, so p95 rests on the slowest 11.
constexpr double kSmokeScale = 0.5;
constexpr int kSmokeClients = 4;
constexpr int kSmokeRequestsPerClient = 9;
constexpr int kSmokeRounds = 6;

/// Per-client request schedule: a deterministic mix of cold scans, warm
/// re-scans and single-file edits over the shared corpus. Client c starts
/// at a different corpus offset so the cold phase fans out over distinct
/// plugins, then revisits (warm) and edits them. The same schedules replay
/// serially for the byte-identity reference.
std::vector<ScanRequest> client_schedule(const corpus::Corpus& corpus,
                                         int client, int requests) {
    std::vector<ScanRequest> schedule;
    schedule.reserve(static_cast<size_t>(requests));
    const size_t plugins = corpus.plugins.size();
    for (int i = 0; i < requests; ++i) {
        const corpus::GeneratedPlugin& plugin =
            corpus.plugins[(static_cast<size_t>(client) * 7 +
                            static_cast<size_t>(i)) %
                           plugins];
        ScanRequest request;
        request.plugin = plugin.name;
        for (const auto& [name, text] : plugin.v2014.files)
            request.files.push_back({name, text});
        // i % 3 == 0: base content (cold the first time, warm after);
        // i % 3 == 1: identical re-scan (result-pool hit / dedup);
        // i % 3 == 2: single-file edit — appends a comment revision, so
        // the ASTs of untouched files come from the file pool.
        if (i % 3 == 2 && !request.files.empty())
            request.files[0].text +=
                "\n// edit revision " + std::to_string(i / 3) + "\n";
        schedule.push_back(std::move(request));
    }
    return schedule;
}

double percentile(std::vector<double> sorted, double q) {
    if (sorted.empty()) return 0;
    const size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

struct LoadResult {
    int clients = 0;
    size_t requests = 0;
    double wall = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    std::vector<double> latencies;  ///< every request's, sorted
    double throughput = 0;
    bool identical = true;
};

/// Runs every client schedule concurrently against one shared service and
/// checks each response's report against the serial reference.
LoadResult run_load(const std::vector<std::vector<ScanRequest>>& schedules,
                    const std::map<uint64_t, std::string>& reference) {
    LoadResult result;
    result.clients = static_cast<int>(schedules.size());

    ServiceOptions options;
    options.workers = result.clients;
    options.max_queue_depth = 4096;  // effectively unbounded; keeps the
                                     // admission path compiled into the run
    AnalysisService service(options);

    std::mutex merge_mutex;
    std::vector<double> latencies;
    std::atomic<bool> identical{true};

    std::vector<std::thread> threads;
    threads.reserve(schedules.size());
    const double start = wall_seconds();
    for (const std::vector<ScanRequest>& schedule : schedules) {
        threads.emplace_back([&, &schedule = schedule] {
            std::vector<double> local;
            local.reserve(schedule.size());
            for (const ScanRequest& request : schedule) {
                const double t0 = wall_seconds();
                ScanResponse response = service.scan(request);
                local.push_back(wall_seconds() - t0);
                const auto expect = reference.find(
                    AnalysisService::request_fingerprint(request));
                if (expect == reference.end() ||
                    expect->second != render_json_report(response.result))
                    identical.store(false, std::memory_order_relaxed);
            }
            std::lock_guard<std::mutex> lock(merge_mutex);
            latencies.insert(latencies.end(), local.begin(), local.end());
        });
    }
    for (std::thread& t : threads) t.join();
    result.wall = wall_seconds() - start;

    std::sort(latencies.begin(), latencies.end());
    result.requests = latencies.size();
    result.p50 = percentile(latencies, 0.50);
    result.p95 = percentile(latencies, 0.95);
    result.p99 = percentile(latencies, 0.99);
    result.latencies = std::move(latencies);
    result.throughput =
        result.wall > 0 ? static_cast<double>(result.requests) / result.wall : 0;
    result.identical = identical.load();
    return result;
}

/// Serial single-client reference: one worker, requests in client order.
/// The returned map is fingerprint → report, the ground truth every
/// concurrent response must match byte-for-byte.
std::map<uint64_t, std::string> serial_reference(
    const std::vector<std::vector<ScanRequest>>& schedules) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    std::map<uint64_t, std::string> reference;
    for (const std::vector<ScanRequest>& schedule : schedules)
        for (const ScanRequest& request : schedule)
            reference.emplace(AnalysisService::request_fingerprint(request),
                              render_json_report(service.scan(request).result));
    return reference;
}

std::vector<std::vector<ScanRequest>> build_schedules(
    const corpus::Corpus& corpus, int clients, int requests_per_client) {
    std::vector<std::vector<ScanRequest>> schedules;
    schedules.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c)
        schedules.push_back(client_schedule(corpus, c, requests_per_client));
    return schedules;
}

/// Runs the smoke workload `reps` times and keeps the run with the lowest
/// p95/p50 tail ratio over its pooled rounds. Best-of-N because the ratio
/// is a scheduling-noise statistic on a loaded box: one bad rep must not
/// fail CI, a consistent regression still shows in every rep.
/// Byte-identity is checked on all rounds regardless.
LoadResult best_smoke_run(int reps, bool& identical) {
    corpus::CorpusOptions corpus_options;
    corpus_options.scale = kSmokeScale;
    const corpus::Corpus corpus = corpus::generate_corpus(corpus_options);
    const auto schedules =
        build_schedules(corpus, kSmokeClients, kSmokeRequestsPerClient);
    const auto reference = serial_reference(schedules);
    LoadResult best;
    double best_ratio = 0;
    identical = true;
    for (int rep = 0; rep < reps; ++rep) {
        LoadResult pooled;
        pooled.clients = kSmokeClients;
        for (int round = 0; round < kSmokeRounds; ++round) {
            const LoadResult load = run_load(schedules, reference);
            identical = identical && load.identical;
            pooled.latencies.insert(pooled.latencies.end(), load.latencies.begin(),
                                    load.latencies.end());
        }
        std::sort(pooled.latencies.begin(), pooled.latencies.end());
        pooled.requests = pooled.latencies.size();
        pooled.p50 = percentile(pooled.latencies, 0.50);
        pooled.p95 = percentile(pooled.latencies, 0.95);
        const double ratio = pooled.p50 > 0 ? pooled.p95 / pooled.p50 : 0;
        if (rep == 0 || (ratio > 0 && ratio < best_ratio)) {
            best_ratio = ratio;
            best = std::move(pooled);
        }
    }
    return best;
}

int run_smoke(const std::string& baseline_path) {
    bool identical = true;
    const LoadResult load = best_smoke_run(3, identical);
    if (!identical) {
        std::cerr << "SMOKE FAIL: concurrent responses differ from the "
                     "serial reference\n";
        return 1;
    }
    const double ratio = load.p50 > 0 ? load.p95 / load.p50 : 0;

    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "SMOKE FAIL: cannot read baseline " << baseline_path
                  << "\n";
        return 1;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonValue baseline;
    std::string error;
    if (!JsonReader::parse(text, baseline, &error)) {
        std::cerr << "SMOKE FAIL: bad baseline JSON: " << error << "\n";
        return 1;
    }
    const JsonValue* smoke = baseline.get("smoke");
    const JsonValue* base_ratio =
        smoke ? smoke->get("p95_over_p50") : nullptr;
    if (!base_ratio || !base_ratio->is_number() || base_ratio->number <= 0) {
        std::cerr << "SMOKE FAIL: baseline has no smoke.p95_over_p50\n";
        return 1;
    }
    const double limit = base_ratio->number * 1.2;
    std::cout << "serve smoke: p50 " << load.p50 * 1e3 << "ms p95 "
              << load.p95 * 1e3 << "ms tail ratio " << ratio << " (baseline "
              << base_ratio->number << ", limit " << limit << ")\n";
    if (ratio > limit) {
        std::cerr << "SMOKE FAIL: p95/p50 tail ratio " << ratio
                  << " exceeds baseline " << base_ratio->number
                  << " by more than 20%\n";
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::string(argv[1]) == "--smoke") {
        const std::string baseline =
            argc > 2 ? argv[2]
                     : std::string(PHPSAFE_REPO_ROOT "/BENCH_serve.json");
        return run_smoke(baseline);
    }

    const double scale = argc > 1 ? std::atof(argv[1]) : 4.0;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string(PHPSAFE_REPO_ROOT "/BENCH_serve.json");
    if (scale <= 0) {
        std::cerr << "usage: bench_serve [scale] [output.json] | "
                     "bench_serve --smoke [baseline.json]\n";
        return 2;
    }

    // Smoke baseline: the gate's own statistic (best of 3 reps), measured
    // first, while the process is as fresh as the gate's. Host contention
    // moves that statistic between runs, so the baseline is the sample with
    // the median ratio of five, not whichever one run happened to read.
    bool smoke_identical = true;
    std::vector<LoadResult> smoke_samples;
    for (int sample = 0; sample < 5; ++sample) {
        bool sample_identical = true;
        smoke_samples.push_back(best_smoke_run(3, sample_identical));
        smoke_identical = smoke_identical && sample_identical;
    }
    std::sort(smoke_samples.begin(), smoke_samples.end(),
              [](const LoadResult& a, const LoadResult& b) {
                  return a.p95 / a.p50 < b.p95 / b.p50;
              });
    const LoadResult& smoke = smoke_samples[smoke_samples.size() / 2];

    corpus::CorpusOptions corpus_options;
    corpus_options.scale = scale;
    const corpus::Corpus corpus = corpus::generate_corpus(corpus_options);
    const int requests_per_client = 12;

    // One schedule set per client count; the serial reference covers the
    // union (fingerprint-keyed, so shared requests dedupe naturally).
    const std::vector<int> sweep = {1, 2, 4, 8};
    std::vector<std::vector<std::vector<ScanRequest>>> all_schedules;
    for (int clients : sweep)
        all_schedules.push_back(
            build_schedules(corpus, clients, requests_per_client));
    std::map<uint64_t, std::string> reference;
    {
        ServiceOptions options;
        options.workers = 1;
        AnalysisService service(options);
        for (const auto& schedules : all_schedules)
            for (const auto& schedule : schedules)
                for (const ScanRequest& request : schedule)
                    reference.emplace(
                        AnalysisService::request_fingerprint(request),
                        render_json_report(service.scan(request).result));
    }

    std::vector<LoadResult> results;
    bool identical = smoke_identical;
    for (size_t i = 0; i < sweep.size(); ++i) {
        LoadResult load = run_load(all_schedules[i], reference);
        identical = identical && load.identical;
        std::cout << "clients " << load.clients << ": " << load.requests
                  << " requests in " << load.wall << "s ("
                  << load.throughput << " req/s, p50 " << load.p50 * 1e3
                  << "ms, p95 " << load.p95 * 1e3 << "ms, p99 "
                  << load.p99 * 1e3 << "ms)\n";
        results.push_back(std::move(load));
    }
    const LoadResult& saturation = *std::max_element(
        results.begin(), results.end(),
        [](const LoadResult& a, const LoadResult& b) {
            return a.throughput < b.throughput;
        });

    std::ofstream out(out_path);
    JsonWriter w(out, 2);
    w.begin_object();
    w.kv("bench", "bench_serve");
    w.kv("scenario",
         "N concurrent clients share one AnalysisService: per client, a "
         "deterministic mix of cold scans, identical warm re-scans and "
         "single-file edits over the generated corpus; latency measured per "
         "request, responses checked byte-identical to a serial "
         "single-client reference");
    w.kv("corpus_scale", scale);
    w.kv("hardware_concurrency",
         static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.kv("plugins", static_cast<int>(corpus.plugins.size()));
    w.kv("files", corpus.total_files("2014"));
    w.kv("lines", corpus.total_lines("2014"));
    w.kv("requests_per_client", requests_per_client);
    w.key("clients_sweep").begin_array();
    for (const LoadResult& load : results) {
        w.begin_object();
        w.kv("clients", load.clients);
        w.kv("requests", static_cast<uint64_t>(load.requests));
        w.kv("wall_seconds", load.wall);
        w.kv("throughput_rps", load.throughput, 2);
        w.kv("p50_ms", load.p50 * 1e3, 3);
        w.kv("p95_ms", load.p95 * 1e3, 3);
        w.kv("p99_ms", load.p99 * 1e3, 3);
        w.end_object();
    }
    w.end_array();
    w.key("saturation").begin_object();
    w.kv("clients", saturation.clients);
    w.kv("throughput_rps", saturation.throughput, 2);
    w.end_object();
    w.key("smoke").begin_object();
    w.kv("corpus_scale", kSmokeScale);
    w.kv("clients", kSmokeClients);
    w.kv("requests", static_cast<uint64_t>(smoke.requests));
    w.kv("p50_ms", smoke.p50 * 1e3, 3);
    w.kv("p95_ms", smoke.p95 * 1e3, 3);
    w.kv("p95_over_p50", smoke.p50 > 0 ? smoke.p95 / smoke.p50 : 0, 3);
    w.end_object();
    w.kv("responses_byte_identical_to_serial", identical);
    bench::write_host(w);
    w.end_object();
    out << "\n";
    std::cout << "wrote " << out_path << "\n";

    if (!identical) {
        std::cerr << "FATAL: a concurrent response differed from the serial "
                     "reference\n";
        return 1;
    }
    return 0;
}
