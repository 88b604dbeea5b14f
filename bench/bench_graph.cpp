// Watch-edit benchmark: what does ONE edit cost a front-end
// after the first scan of a monorepo-scale tree?
//
// Two protocol-level paths answer the same question ("these files changed,
// what are the findings now?") against identically-warm services:
//
//   warm  — the whole-request path a watch-less front-end pays per edit:
//           re-send the ENTIRE file set as one NDJSON scan line. Timed
//           region: parse_ndjson_request (JSON-decoding every file body)
//           + AnalysisService::scan (re-hash + file-pool probe per file,
//           re-analysis of the whole project) + render_scan_line.
//   watch — the watch-mode path (service/watch.h): one small NDJSON edit
//           line naming only the changed files. Timed region: parse +
//           WatchSession::edit (a fork of the session's built project
//           that parses the edited files alone and hands the scan a
//           finished model; the invalidated cone comes from the reverse
//           project graph) + render_edit_line (delta findings only).
//
// Both paths analyze the full file set through the same perform_scan, so
// their reports agree byte-for-byte; what differs is the per-edit
// overhead around the analysis, which is O(tree bytes) for the warm path
// (decode, hash and probe every file, rebuild the model) and O(edit) for
// watch. The sweep runs
// monorepo scales 1/2/4/8 (~1.3k to ~10k files), single-edit and 16-edit
// batches, best-of-N reps. Results go to BENCH_graph.json (committed).
//
// Correctness gate (always a hard fail): the watch delta after an edit
// that plants a vulnerability must equal the multiset diff of two cold
// scans on fresh single-worker services — checked at workers 1 and 4.
//
// Usage: bench_graph [reps] [output.json]
//        bench_graph --smoke [baseline.json]
//
// --smoke is the CI gate: byte-identity plus the machine-independent
// watch/warm wall ratio on a small fixed workload; the ratio failing means
// the watch path lost its edge over the path it exists to replace, which
// no uniformly faster/slower CI box can mask. >20% regression against the
// committed baseline's smoke block fails (the bench_serve precedent).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "host.h"
#include "report/export.h"
#include "service/ndjson.h"
#include "service/service.h"
#include "service/watch.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/timing.h"

#ifndef PHPSAFE_REPO_ROOT
#define PHPSAFE_REPO_ROOT "."
#endif

using namespace phpsafe;
using service::AnalysisService;
using service::NdjsonRequest;
using service::ScanRequest;
using service::ScanResponse;
using service::ServiceOptions;
using service::WatchDelta;
using service::WatchEditBatch;
using service::WatchSession;

namespace {

using FileList = std::vector<std::pair<std::string, std::string>>;

/// Client-side NDJSON line carrying the whole file set (untimed: building
/// the request is the client's cost; the benchmark times the server side).
std::string scan_line_json(const std::string& plugin, const FileList& files) {
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.begin_object();
    w.kv("op", "scan");
    w.kv("plugin", plugin);
    w.key("files").begin_array();
    for (const auto& [name, text] : files) {
        w.begin_object();
        w.kv("name", name);
        w.kv("text", text);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return os.str();
}

/// Client-side NDJSON edit line naming only the changed files.
std::string edit_line_json(const FileList& upserts) {
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.begin_object();
    w.kv("op", "edit");
    w.key("files").begin_array();
    for (const auto& [name, text] : upserts) {
        w.begin_object();
        w.kv("name", name);
        w.kv("text", text);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return os.str();
}

ScanRequest full_request(const std::string& plugin, const FileList& files) {
    ScanRequest request;
    request.plugin = plugin;
    request.files.reserve(files.size());
    for (const auto& [name, text] : files)
        request.files.emplace_back(name, text);
    return request;
}

/// One warm whole-request round trip; returns wall seconds of the server
/// side (line parse + scan + response render).
double timed_warm(AnalysisService& service, const std::string& line) {
    const double t0 = wall_seconds();
    NdjsonRequest request = service::parse_ndjson_request(line);
    const ScanResponse response = service.scan(request.scan);
    const std::string rendered = service::render_scan_line(response, true);
    const double dt = wall_seconds() - t0;
    if (request.op != NdjsonRequest::Op::kScan || rendered.empty()) {
        std::cerr << "FATAL: warm path failed: " << request.error << "\n";
        std::exit(1);
    }
    return dt;
}

/// One watch edit round trip; returns wall seconds, reports the cone.
double timed_watch(WatchSession& watch, const std::string& line,
                   int& cone_files, int& cone_functions) {
    const double t0 = wall_seconds();
    NdjsonRequest request = service::parse_ndjson_request(line);
    const WatchDelta delta = watch.edit(request.edit);
    const std::string rendered = service::render_edit_line(delta, true);
    const double dt = wall_seconds() - t0;
    if (request.op != NdjsonRequest::Op::kEdit || !delta.ok ||
        rendered.empty()) {
        std::cerr << "FATAL: watch path failed: "
                  << (delta.ok ? request.error : delta.error) << "\n";
        std::exit(1);
    }
    cone_files = delta.cone_files;
    cone_functions = delta.cone_functions;
    return dt;
}

struct EditScenario {
    int edits = 0;
    double warm_seconds = 0;
    double watch_seconds = 0;
    int cone_files = 0;
    int cone_functions = 0;
    double speedup() const {
        return watch_seconds > 0 ? warm_seconds / watch_seconds : 0;
    }
};

struct ScaleResult {
    double scale = 0;
    int plugins = 0;
    size_t files = 0;
    int lines = 0;
    int graph_files = 0;
    int graph_functions = 0;
    int include_edges = 0;
    int use_edges = 0;
    EditScenario single;
    EditScenario batch16;
    bool ran_batch = false;
};

/// Best-of-`reps` measurement of one edit scenario: each rep revises the
/// target files (distinct content per rep, so nothing hits the result
/// pool), sends the whole tree through the warm service and the same edit
/// through the watch session. Separate services keep the paths honest —
/// neither feeds the other's caches.
EditScenario measure_edits(FileList& master,
                           std::map<std::string, size_t>& index,
                           const std::vector<std::string>& targets,
                           const std::string& tag, int reps,
                           AnalysisService& warm_service,
                           WatchSession& watch) {
    EditScenario scenario;
    scenario.edits = static_cast<int>(targets.size());
    for (int rep = 0; rep < reps; ++rep) {
        FileList upserts;
        upserts.reserve(targets.size());
        for (const std::string& target : targets) {
            std::string& text = master[index.at(target)].second;
            text += "\n// " + tag + " rev " + std::to_string(rep) + "\n";
            upserts.emplace_back(target, text);
        }
        const std::string warm_line = scan_line_json("monorepo", master);
        const double warm = timed_warm(warm_service, warm_line);
        const std::string edit_line = edit_line_json(upserts);
        int cone_files = 0, cone_functions = 0;
        const double watch_dt =
            timed_watch(watch, edit_line, cone_files, cone_functions);
        if (rep == 0 || warm < scenario.warm_seconds)
            scenario.warm_seconds = warm;
        if (rep == 0 || watch_dt < scenario.watch_seconds)
            scenario.watch_seconds = watch_dt;
        scenario.cone_files = cone_files;
        scenario.cone_functions = cone_functions;
    }
    return scenario;
}

ScaleResult run_scale(double scale, int reps) {
    corpus::MonorepoOptions options;
    options.scale = scale;
    const corpus::MonorepoSource source = corpus::generate_monorepo(options);

    ScaleResult result;
    result.scale = scale;
    result.files = source.files.size();
    result.lines = source.total_lines;

    FileList master = source.files;
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < master.size(); ++i)
        index.emplace(master[i].first, i);
    for (const auto& [name, text] : master)
        if (name.size() > 9 &&
            name.compare(name.size() - 9, 9, "/main.php") == 0 &&
            name.rfind("plugin-", 0) == 0)
            ++result.plugins;

    ServiceOptions service_options;
    service_options.workers = 1;
    AnalysisService warm_service(service_options);
    AnalysisService watch_service(service_options);

    // Prime both: one full cold scan each, so every later round trip is
    // the steady-state warm comparison.
    warm_service.scan(full_request("monorepo", master));
    WatchSession watch(watch_service);
    watch.open(full_request("monorepo", master));

    const graph::ProjectGraph* g = watch.graph();
    if (g) {
        result.graph_files = g->file_count();
        result.graph_functions = g->function_count();
        result.include_edges = g->include_edge_count();
        result.use_edges = g->use_edge_count();
    }

    // Single edit: one leaf include part — its cone is {part, its main}.
    result.single = measure_edits(master, index, {"plugin-001/inc/part-5.php"},
                                  "single", reps, warm_service, watch);

    // 16-edit batch: one leaf part in each of 16 different plugins.
    if (result.plugins >= 17) {
        std::vector<std::string> targets;
        for (int p = 1; p <= 16; ++p) {
            char name[64];
            std::snprintf(name, sizeof name, "plugin-%03d/inc/part-%d.php", p,
                          3 + p % 10);
            targets.push_back(name);
        }
        result.batch16 =
            measure_edits(master, index, targets, "batch", reps, warm_service,
                          watch);
        result.ran_batch = true;
    }
    return result;
}

std::multiset<std::string> finding_multiset(const std::vector<Finding>& v) {
    std::multiset<std::string> out;
    for (const Finding& finding : v) out.insert(finding_json(finding));
    return out;
}

std::multiset<std::string> multiset_minus(const std::multiset<std::string>& a,
                                          const std::multiset<std::string>& b) {
    std::multiset<std::string> out;
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.end()));
    return out;
}

/// The hard gate: open a watch session at `workers`, plant a
/// vulnerability in one leaf file, and require the delta to equal the
/// multiset diff of two cold scans on fresh single-worker services (and
/// the underlying full report to match the cold re-scan byte-for-byte).
bool verify_byte_identity(int workers, std::string& detail) {
    corpus::MonorepoOptions options;
    options.scale = 0.25;
    const corpus::MonorepoSource source = corpus::generate_monorepo(options);
    const std::string target = "plugin-001/inc/part-5.php";

    FileList edited = source.files;
    bool patched = false;
    for (auto& [name, text] : edited)
        if (name == target) {
            text += "\necho $_GET['bench_graph_probe'];\n";
            patched = true;
        }
    if (!patched) {
        detail = "edit target missing from the generated monorepo";
        return false;
    }

    const auto cold_scan = [&](const FileList& files) {
        ServiceOptions cold;
        cold.workers = 1;
        AnalysisService fresh(cold);
        return fresh.scan(full_request("monorepo-verify", files)).result;
    };
    const AnalysisResult cold_before = cold_scan(source.files);
    const AnalysisResult cold_after = cold_scan(edited);

    ServiceOptions live;
    live.workers = workers;
    AnalysisService service(live);
    WatchSession watch(service);
    const ScanResponse open =
        watch.open(full_request("monorepo-verify", source.files));
    if (render_json_report(open.result) != render_json_report(cold_before)) {
        detail = "watch open report differs from a cold scan";
        return false;
    }

    WatchEditBatch batch;
    for (const auto& [name, text] : edited)
        if (name == target) batch.upserts.emplace_back(name, text);
    const WatchDelta delta = watch.edit(batch);
    if (!delta.ok) {
        detail = "edit rejected: " + delta.error;
        return false;
    }
    if (render_json_report(delta.response.result) !=
        render_json_report(cold_after)) {
        detail = "post-edit report differs from a cold re-scan";
        return false;
    }
    const auto before = finding_multiset(cold_before.findings);
    const auto after = finding_multiset(cold_after.findings);
    if (finding_multiset(delta.added) != multiset_minus(after, before)) {
        detail = "added findings differ from the cold-scan diff";
        return false;
    }
    if (finding_multiset(delta.removed) != multiset_minus(before, after)) {
        detail = "removed findings differ from the cold-scan diff";
        return false;
    }
    if (delta.added.empty()) {
        detail = "planted vulnerability produced no delta findings";
        return false;
    }
    return true;
}

struct IdentityCheck {
    int workers = 0;
    bool ok = false;
};

std::vector<IdentityCheck> run_identity_checks() {
    std::vector<IdentityCheck> checks = {{1, false}, {4, false}};
    for (IdentityCheck& check : checks) {
        std::string detail;
        check.ok = verify_byte_identity(check.workers, detail);
        std::cout << "byte-identity (workers " << check.workers
                  << "): " << (check.ok ? "ok" : "FAIL — " + detail) << "\n";
    }
    return checks;
}

int run_smoke(const std::string& baseline_path) {
    for (const IdentityCheck& check : run_identity_checks())
        if (!check.ok) {
            std::cerr << "SMOKE FAIL: watch delta not byte-identical to the "
                         "cold re-scan diff\n";
            return 1;
        }

    const ScaleResult small = run_scale(0.25, 3);
    const double ratio = small.single.warm_seconds > 0
                             ? small.single.watch_seconds /
                                   small.single.warm_seconds
                             : 1e9;

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
    const JsonValue* base_ratio = smoke ? smoke->get("watch_over_warm") : nullptr;
    if (!base_ratio || !base_ratio->is_number() || base_ratio->number <= 0) {
        std::cerr << "SMOKE FAIL: baseline has no smoke.watch_over_warm\n";
        return 1;
    }
    const double limit = base_ratio->number * 1.2;
    std::cout << "graph smoke: warm " << small.single.warm_seconds * 1e3
              << "ms watch " << small.single.watch_seconds * 1e3
              << "ms ratio " << ratio << " (baseline " << base_ratio->number
              << ", limit " << limit << ")\n";
    if (ratio > limit) {
        std::cerr << "SMOKE FAIL: watch/warm ratio " << ratio
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
                     : std::string(PHPSAFE_REPO_ROOT "/BENCH_graph.json");
        return run_smoke(baseline);
    }

    const int reps = argc > 1 ? std::atoi(argv[1]) : 3;
    const std::string out_path =
        argc > 2 ? argv[2] : std::string(PHPSAFE_REPO_ROOT "/BENCH_graph.json");
    if (reps <= 0) {
        std::cerr << "usage: bench_graph [reps] [output.json] | "
                     "bench_graph --smoke [baseline.json]\n";
        return 2;
    }

    const std::vector<IdentityCheck> identity = run_identity_checks();
    bool identical = true;
    for (const IdentityCheck& check : identity) identical &= check.ok;

    const std::vector<double> sweep = {1, 2, 4, 8};
    std::vector<ScaleResult> results;
    for (double scale : sweep) {
        ScaleResult r = run_scale(scale, reps);
        std::cout << "scale " << scale << " (" << r.files << " files): single "
                  << "warm " << r.single.warm_seconds * 1e3 << "ms watch "
                  << r.single.watch_seconds * 1e3 << "ms (x"
                  << r.single.speedup() << ", cone " << r.single.cone_files
                  << " files)";
        if (r.ran_batch)
            std::cout << "; batch16 warm " << r.batch16.warm_seconds * 1e3
                      << "ms watch " << r.batch16.watch_seconds * 1e3
                      << "ms (x" << r.batch16.speedup() << ", cone "
                      << r.batch16.cone_files << " files)";
        std::cout << "\n";
        results.push_back(std::move(r));
    }

    // Smoke baseline: same small workload and statistic the CI gate replays.
    const ScaleResult smoke = run_scale(0.25, reps);
    const double smoke_ratio =
        smoke.single.warm_seconds > 0
            ? smoke.single.watch_seconds / smoke.single.warm_seconds
            : 0;

    std::ofstream out(out_path);
    JsonWriter w(out, 2);
    w.begin_object();
    w.kv("bench", "bench_graph");
    w.kv("scenario",
         "per-edit cost after the first scan of a generated monorepo: the "
         "whole-request warm path (full NDJSON scan line: parse + re-hash + "
         "probe every file + model rebuild + scan + full report render) vs "
         "the watch path (one edit line: fork of the session's built project "
         "re-parsing only the edited file + full re-analysis + delta "
         "render); identical services, identical findings, best-of-reps");
    w.kv("timing_reps", reps);
    w.kv("workers", 1);
    w.key("scales").begin_array();
    for (const ScaleResult& r : results) {
        w.begin_object();
        w.kv("scale", r.scale, 2);
        w.kv("plugins", r.plugins);
        w.kv("files", static_cast<uint64_t>(r.files));
        w.kv("lines", r.lines);
        w.kv("graph_functions", r.graph_functions);
        w.kv("include_edges", r.include_edges);
        w.kv("use_edges", r.use_edges);
        w.key("single_edit").begin_object();
        w.kv("warm_ms", r.single.warm_seconds * 1e3, 3);
        w.kv("watch_ms", r.single.watch_seconds * 1e3, 3);
        w.kv("speedup", r.single.speedup(), 2);
        w.kv("cone_files", r.single.cone_files);
        w.kv("cone_functions", r.single.cone_functions);
        w.end_object();
        if (r.ran_batch) {
            w.key("batch16_edits").begin_object();
            w.kv("warm_ms", r.batch16.warm_seconds * 1e3, 3);
            w.kv("watch_ms", r.batch16.watch_seconds * 1e3, 3);
            w.kv("speedup", r.batch16.speedup(), 2);
            w.kv("cone_files", r.batch16.cone_files);
            w.kv("cone_functions", r.batch16.cone_functions);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.key("byte_identity").begin_array();
    for (const IdentityCheck& check : identity) {
        w.begin_object();
        w.kv("workers", check.workers);
        w.kv("delta_matches_cold_rescan_diff", check.ok);
        w.end_object();
    }
    w.end_array();
    w.key("smoke").begin_object();
    w.kv("monorepo_scale", 0.25);
    w.kv("warm_ms", smoke.single.warm_seconds * 1e3, 3);
    w.kv("watch_ms", smoke.single.watch_seconds * 1e3, 3);
    w.kv("watch_over_warm", smoke_ratio, 3);
    w.end_object();
    bench::write_host(w);
    w.end_object();
    out << "\n";
    std::cout << "wrote " << out_path << "\n";

    if (!identical) {
        std::cerr << "FATAL: a watch delta differed from the cold re-scan "
                     "diff\n";
        return 1;
    }
    for (const ScaleResult& r : results)
        if (r.scale >= 4 && r.single.speedup() <= 1.0)
            std::cerr << "WARNING: watch did not beat the warm path at scale "
                      << r.scale << "\n";
    return 0;
}
