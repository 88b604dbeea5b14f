#include "service/ndjson.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "report/export.h"
#include "util/json_reader.h"
#include "util/json_writer.h"

namespace phpsafe::service {

namespace fs = std::filesystem;

namespace {

/// Loads all *.php files under `root` (recursively, path-sorted so the
/// request fingerprint is stable across directory iteration order).
bool load_directory(const std::string& root,
                    std::vector<SourceFileSpec>& files, std::string& error) {
    std::error_code ec;
    if (!fs::is_directory(root, ec)) {
        error = "not a directory: " + root;
        return false;
    }
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".php")
            paths.push_back(entry.path());
    }
    if (ec) {
        error = "cannot list " + root + ": " + ec.message();
        return false;
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            error = "cannot read " + path.string();
            return false;
        }
        std::ostringstream text;
        text << in.rdbuf();
        SourceFileSpec spec;
        spec.name = fs::relative(path, root, ec).generic_string();
        spec.text = std::move(text).str();
        files.push_back(std::move(spec));
    }
    if (files.empty()) {
        error = "no .php files under " + root;
        return false;
    }
    return true;
}

bool build_request(const JsonValue& request, ScanRequest& scan,
                   std::string& error) {
    scan.preset = request.string_or("preset", "phpsafe");
    scan.priority = static_cast<int>(request.int_or("priority", 0));
    const std::string path = request.string_or("path", "");
    if (!path.empty()) {
        if (!load_directory(path, scan.files, error)) return false;
        scan.plugin =
            request.string_or("plugin", fs::path(path).filename().string());
        return true;
    }
    const JsonValue* files = request.get("files");
    if (!files || !files->is_array() || files->array.empty()) {
        error = "scan needs \"path\" or a non-empty \"files\" array";
        return false;
    }
    for (const JsonValue& file : files->array) {
        const JsonValue* name = file.get("name");
        const JsonValue* text = file.get("text");
        if (!name || !name->is_string() || !text || !text->is_string()) {
            error = "each file needs string \"name\" and \"text\"";
            return false;
        }
        SourceFileSpec spec;
        spec.name = name->string;
        spec.text = text->string;
        scan.files.push_back(std::move(spec));
    }
    scan.plugin = request.string_or("plugin", "stdin");
    return true;
}

/// Strict key validation: a request carrying a key its op does not define
/// is rejected with a structured error, not silently ignored. `allowed` is
/// a null-terminated array of accepted key names.
bool check_keys(const JsonValue& request, const char* op,
                const char* const* allowed, std::string& error) {
    for (const auto& [key, value] : request.object) {
        bool known = false;
        for (const char* const* a = allowed; *a; ++a) {
            if (key == *a) {
                known = true;
                break;
            }
        }
        if (!known) {
            error = "unknown key \"" + key + "\" for op \"" + op + "\"";
            return false;
        }
    }
    return true;
}

bool parse_edit_batch(const JsonValue& request, WatchEditBatch& batch,
                      std::string& error) {
    const JsonValue* files = request.get("files");
    if (files) {
        if (!files->is_array()) {
            error = "edit \"files\" must be an array";
            return false;
        }
        for (const JsonValue& file : files->array) {
            const JsonValue* name = file.get("name");
            const JsonValue* text = file.get("text");
            if (!name || !name->is_string() || !text || !text->is_string()) {
                error = "each file needs string \"name\" and \"text\"";
                return false;
            }
            SourceFileSpec spec;
            spec.name = name->string;
            spec.text = text->string;
            batch.upserts.push_back(std::move(spec));
        }
    }
    const JsonValue* remove = request.get("remove");
    if (remove) {
        if (!remove->is_array()) {
            error = "edit \"remove\" must be an array of file names";
            return false;
        }
        for (const JsonValue& name : remove->array) {
            if (!name.is_string()) {
                error = "edit \"remove\" must be an array of file names";
                return false;
            }
            batch.removals.push_back(name.string);
        }
    }
    if (batch.upserts.empty() && batch.removals.empty()) {
        error = "edit needs \"files\" and/or \"remove\"";
        return false;
    }
    return true;
}

}  // namespace

LineStatus read_ndjson_line(std::istream& in, std::string& line,
                            size_t max_bytes) {
    line.clear();
    if (max_bytes == 0) {
        if (!std::getline(in, line)) return LineStatus::kEof;
        return LineStatus::kOk;
    }
    bool read_any = false;
    bool oversized = false;
    char c;
    while (in.get(c)) {
        read_any = true;
        if (c == '\n')
            return oversized ? LineStatus::kOversized : LineStatus::kOk;
        if (line.size() < max_bytes)
            line.push_back(c);
        else
            oversized = true;  // keep consuming, stop buffering
    }
    if (!read_any) return LineStatus::kEof;
    return oversized ? LineStatus::kOversized : LineStatus::kOk;
}

NdjsonRequest parse_ndjson_request(const std::string& line) {
    NdjsonRequest request;
    JsonValue json;
    std::string error;
    if (!JsonReader::parse(line, json, &error) || !json.is_object()) {
        request.error =
            error.empty() ? "request must be a JSON object" : error;
        return request;
    }
    static const char* const kBareKeys[] = {"op", nullptr};
    static const char* const kScanKeys[] = {
        "op", "path", "files", "plugin", "preset", "priority", "slot", nullptr};
    static const char* const kWatchKeys[] = {
        "op", "path", "files", "plugin", "preset", "priority", nullptr};
    static const char* const kEditKeys[] = {"op", "files", "remove", nullptr};
    static const char* const kGraphKeys[] = {
        "op", "path", "files", "plugin", "detail", nullptr};
    static const char* const kValidateKeys[] = {
        "op", "path", "files", "plugin", "preset", "priority", nullptr};

    const std::string op = json.string_or("op", "");
    if (op == "quit" || op == "shutdown") {
        if (!check_keys(json, op.c_str(), kBareKeys, request.error))
            return request;
        request.op = NdjsonRequest::Op::kQuit;
        return request;
    }
    if (op == "stats") {
        if (!check_keys(json, "stats", kBareKeys, request.error))
            return request;
        request.op = NdjsonRequest::Op::kStats;
        return request;
    }
    if (op == "clear") {
        if (!check_keys(json, "clear", kBareKeys, request.error))
            return request;
        request.op = NdjsonRequest::Op::kClear;
        return request;
    }
    if (op == "scan") {
        if (!check_keys(json, "scan", kScanKeys, request.error))
            return request;
        if (!build_request(json, request.scan, request.error)) return request;
        request.slot = json.string_or("slot", "");
        request.op = NdjsonRequest::Op::kScan;
        return request;
    }
    if (op == "watch") {
        if (!check_keys(json, "watch", kWatchKeys, request.error))
            return request;
        if (!build_request(json, request.scan, request.error)) return request;
        request.op = NdjsonRequest::Op::kWatch;
        return request;
    }
    if (op == "edit") {
        if (!check_keys(json, "edit", kEditKeys, request.error))
            return request;
        if (!parse_edit_batch(json, request.edit, request.error))
            return request;
        request.op = NdjsonRequest::Op::kEdit;
        return request;
    }
    if (op == "validate") {
        if (!check_keys(json, "validate", kValidateKeys, request.error))
            return request;
        if (json.get("path") || json.get("files")) {
            if (!build_request(json, request.scan, request.error))
                return request;
            request.validate_has_payload = true;
        } else if (!json.object.empty() && json.object.size() > 1) {
            // Payload-less validate targets the watch session; stray
            // request keys there would be silently meaningless.
            request.error =
                "validate without \"path\"/\"files\" takes no other keys";
            return request;
        }
        request.op = NdjsonRequest::Op::kValidate;
        return request;
    }
    if (op == "graph") {
        if (!check_keys(json, "graph", kGraphKeys, request.error))
            return request;
        const JsonValue* detail = json.get("detail");
        if (detail) {
            if (!detail->is_bool()) {
                request.error = "graph \"detail\" must be a boolean";
                return request;
            }
            request.graph_detail = detail->boolean;
        }
        if (json.get("path") || json.get("files")) {
            if (!build_request(json, request.scan, request.error))
                return request;
            request.graph_has_payload = true;
        }
        request.op = NdjsonRequest::Op::kGraph;
        return request;
    }
    request.error = "unknown op: \"" + op + "\"";
    return request;
}

std::string render_error_line(const std::string& message) {
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object().kv("ok", false).kv("error", message).end_object();
    return line.str();
}

std::string render_ok_line() {
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object().kv("ok", true).end_object();
    return line.str();
}

std::string render_bye_line() {
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object().kv("ok", true).kv("bye", true).end_object();
    return line.str();
}

std::string render_scan_line(const ScanResponse& response,
                             bool deterministic) {
    if (response.cancelled) {
        std::ostringstream line;
        JsonWriter w(line);
        w.begin_object().kv("ok", false).kv("cancelled", true).end_object();
        return line.str();
    }
    if (response.rejected) {
        std::ostringstream line;
        JsonWriter w(line);
        w.begin_object().kv("ok", false).kv("rejected", true).end_object();
        return line.str();
    }
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object();
    w.kv("ok", true);
    w.kv("from_result_cache", response.from_result_cache);
    w.kv("deduplicated", response.deduplicated);
    w.kv("files_reused", response.files_reused);
    w.kv("summaries_seeded", response.summaries_seeded);
    w.kv("summaries_invalidated", response.summaries_invalidated);
    w.kv("wall_seconds", deterministic ? 0.0 : response.wall_seconds, 4);
    w.key("report");
    // render_json_report emits a complete compact object; splice it in as
    // the final member rather than re-serializing every finding here.
    line << render_json_report(response.result) << "}";
    return line.str();
}

std::string render_stats_line(const CacheStats& stats, bool deterministic) {
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object();
    w.kv("ok", true);
    w.kv("file_entries", stats.file_entries);
    w.kv("summary_entries", stats.summary_entries);
    w.kv("result_entries", stats.result_entries);
    w.kv("bytes_resident", deterministic ? uint64_t{0} : stats.bytes_resident);
    w.kv("file_hits", stats.file_hits);
    w.kv("file_misses", stats.file_misses);
    w.kv("summary_hits", stats.summary_hits);
    w.kv("summary_misses", stats.summary_misses);
    w.kv("result_hits", stats.result_hits);
    w.kv("evictions", stats.evictions);
    w.kv("invalidations", stats.invalidations);
    w.kv("shed_entries", stats.shed_entries);
    w.kv("shards", static_cast<uint64_t>(stats.shards.size()));
    w.end_object();
    return line.str();
}

std::string render_watch_line(const ScanResponse& response, int files,
                              bool deterministic) {
    if (response.cancelled || response.rejected)
        return render_scan_line(response, deterministic);
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object();
    w.kv("ok", true);
    w.kv("watch", true);
    w.kv("files", files);
    w.kv("from_result_cache", response.from_result_cache);
    w.kv("deduplicated", response.deduplicated);
    w.kv("files_reused", response.files_reused);
    w.kv("summaries_seeded", response.summaries_seeded);
    w.kv("summaries_invalidated", response.summaries_invalidated);
    w.kv("wall_seconds", deterministic ? 0.0 : response.wall_seconds, 4);
    w.key("report");
    line << render_json_report(response.result) << "}";
    return line.str();
}

std::string render_edit_line(const WatchDelta& delta, bool deterministic) {
    // A failed edit — bad batch, no session, or a rejected/cancelled
    // re-scan — is the one structured error shape like every other error.
    if (!delta.ok) return render_error_line(delta.error);
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object();
    w.kv("ok", true);
    w.kv("changed_files", delta.changed_files);
    w.kv("cone_files", delta.cone_files);
    w.kv("cone_functions", delta.cone_functions);
    w.kv("files_reused", delta.response.files_reused);
    w.kv("summaries_seeded", delta.response.summaries_seeded);
    w.kv("summaries_invalidated", delta.response.summaries_invalidated);
    w.kv("wall_seconds",
         deterministic ? 0.0 : delta.response.wall_seconds, 4);
    w.key("added").begin_array();
    for (const Finding& f : delta.added) render_finding_json(w, f);
    w.end_array();
    w.key("removed").begin_array();
    for (const Finding& f : delta.removed) render_finding_json(w, f);
    w.end_array();
    w.end_object();
    return line.str();
}

std::string render_validate_line(const ValidateResponse& response,
                                 bool deterministic) {
    if (response.scan.cancelled || response.scan.rejected)
        return render_scan_line(response.scan, deterministic);
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object();
    w.kv("ok", true);
    w.kv("validate", true);
    w.kv("from_result_cache", response.scan.from_result_cache);
    w.kv("from_validate_cache", response.from_validate_cache);
    w.kv("executions", response.report.executions);
    w.kv("validated", response.report.validated);
    w.kv("unvalidated", response.report.unvalidated);
    w.kv("inconclusive", response.report.inconclusive);
    w.kv("fixes_proposed", response.report.fixes_proposed);
    w.kv("fixes_verified", response.report.fixes_verified);
    w.kv("wall_seconds", deterministic ? 0.0 : response.wall_seconds, 4);
    w.key("quickfixes").begin_array();
    for (const validate::CaseOutcome& outcome : response.report.cases) {
        if (!outcome.fix) continue;
        const validate::Quickfix& fix = *outcome.fix;
        w.begin_object();
        w.kv("kind", to_string(fix.kind));
        w.kv("file", fix.file);
        w.kv("line", fix.line);
        w.kv("before", fix.before);
        w.kv("after", fix.after);
        w.kv("note", fix.note);
        w.kv("verified", fix.verified);
        w.end_object();
    }
    w.end_array();
    w.key("report");
    // The tiered result: every finding carries its "confidence" member.
    line << render_json_report(response.tiered) << "}";
    return line.str();
}

std::string render_graph_line(const graph::ProjectGraph& g, bool detail) {
    const graph::ProjectGraph::Analytics analytics = g.analyze();
    std::ostringstream line;
    JsonWriter w(line);
    w.begin_object();
    w.kv("ok", true);
    w.kv("files", g.file_count());
    w.kv("functions", g.function_count());
    w.kv("include_edges", g.include_edge_count());
    w.kv("use_edges", g.use_edge_count());
    w.key("analytics");
    // Both payloads arrive pre-serialized; splice them in like the scan
    // renderer splices its report.
    line << graph::render_graph_analytics(g, analytics);
    if (detail) line << ",\"detail\":" << g.to_json();
    line << "}";
    return line.str();
}

int serve_ndjson(std::istream& in, std::ostream& out,
                 const ServeOptions& options) {
    AnalysisService own_service;
    AnalysisService& service =
        options.service ? *options.service : own_service;
    WatchSession watch(service);  // per-call, like a server session's
    int served = 0;

    std::string line;
    for (;;) {
        const LineStatus status =
            read_ndjson_line(in, line, options.max_line_bytes);
        if (status == LineStatus::kEof) break;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        ++served;
        if (status == LineStatus::kOversized) {
            out << render_error_line("request line exceeds " +
                                     std::to_string(options.max_line_bytes) +
                                     " bytes")
                << "\n"
                << std::flush;
            continue;
        }

        const NdjsonRequest request = parse_ndjson_request(line);
        switch (request.op) {
        case NdjsonRequest::Op::kQuit:
            out << render_bye_line() << "\n" << std::flush;
            return served;
        case NdjsonRequest::Op::kStats:
            out << render_stats_line(service.cache_stats(),
                                     options.deterministic)
                << "\n"
                << std::flush;
            continue;
        case NdjsonRequest::Op::kClear:
            service.clear_cache();
            out << render_ok_line() << "\n" << std::flush;
            continue;
        case NdjsonRequest::Op::kInvalid:
            out << render_error_line(request.error) << "\n" << std::flush;
            continue;
        case NdjsonRequest::Op::kWatch: {
            // Sequence open() before file_count() — as arguments the calls
            // would be unsequenced relative to each other.
            const ScanResponse response = watch.open(request.scan);
            out << render_watch_line(response, watch.file_count(),
                                     options.deterministic)
                << "\n"
                << std::flush;
            continue;
        }
        case NdjsonRequest::Op::kEdit:
            out << render_edit_line(watch.edit(request.edit),
                                    options.deterministic)
                << "\n"
                << std::flush;
            continue;
        case NdjsonRequest::Op::kGraph: {
            if (request.graph_has_payload) {
                out << render_graph_line(
                           build_request_graph(service, request.scan),
                           request.graph_detail)
                    << "\n"
                    << std::flush;
            } else if (watch.graph()) {
                out << render_graph_line(*watch.graph(), request.graph_detail)
                    << "\n"
                    << std::flush;
            } else {
                out << render_error_line(
                           "graph needs an open watch session or a "
                           "\"path\"/\"files\" payload")
                    << "\n"
                    << std::flush;
            }
            continue;
        }
        case NdjsonRequest::Op::kValidate: {
            if (request.validate_has_payload) {
                out << render_validate_line(service.validate(request.scan),
                                            options.deterministic)
                    << "\n"
                    << std::flush;
            } else if (watch.active()) {
                out << render_validate_line(
                           service.validate(watch.request()),
                           options.deterministic)
                    << "\n"
                    << std::flush;
            } else {
                out << render_error_line(
                           "validate needs an open watch session or a "
                           "\"path\"/\"files\" payload")
                    << "\n"
                    << std::flush;
            }
            continue;
        }
        case NdjsonRequest::Op::kScan:
            break;
        }
        // The synchronous loop runs one scan at a time, so a slot's
        // previous request is always already answered — supersede slots
        // only matter to the pipelined sessions in service/server.h.
        out << render_scan_line(service.scan(request.scan),
                                options.deterministic)
            << "\n"
            << std::flush;
    }
    return served;
}

}  // namespace phpsafe::service
