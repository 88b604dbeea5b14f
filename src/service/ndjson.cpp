#include "service/ndjson.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
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

/// Fills request.scan from a "path" directory or an inline "files" array
/// plus the optional "plugin", "preset" and "priority" keys.
bool load_scan_payload(const JsonValue& json, NdjsonRequest& request) {
    ScanRequest& scan = request.scan;
    scan.preset = json.string_or("preset", "phpsafe");
    scan.priority = static_cast<int>(json.int_or("priority", 0));
    const std::string path = json.string_or("path", "");
    if (!path.empty()) {
        if (!load_directory(path, scan.files, request.error)) return false;
        scan.plugin =
            json.string_or("plugin", fs::path(path).filename().string());
        return true;
    }
    const JsonValue* files = json.get("files");
    if (!files || !files->is_array() || files->array.empty()) {
        request.error = "scan needs \"path\" or a non-empty \"files\" array";
        return false;
    }
    for (const JsonValue& file : files->array) {
        const JsonValue* name = file.get("name");
        const JsonValue* text = file.get("text");
        if (!name || !name->is_string() || !text || !text->is_string()) {
            request.error = "each file needs string \"name\" and \"text\"";
            return false;
        }
        SourceFileSpec spec;
        spec.name = name->string;
        spec.text = text->string;
        scan.files.push_back(std::move(spec));
    }
    scan.plugin = json.string_or("plugin", "stdin");
    return true;
}

bool parse_scan(const JsonValue& json, NdjsonRequest& request) {
    request.slot = json.string_or("slot", "");
    return load_scan_payload(json, request);
}

bool parse_edit(const JsonValue& json, NdjsonRequest& request) {
    WatchEditBatch& batch = request.edit;
    std::string& error = request.error;
    const JsonValue* files = json.get("files");
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
    const JsonValue* remove = json.get("remove");
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

bool parse_graph(const JsonValue& json, NdjsonRequest& request) {
    if (const JsonValue* detail = json.get("detail")) {
        if (!detail->is_bool()) {
            request.error = "graph \"detail\" must be a boolean";
            return false;
        }
        request.graph_detail = detail->boolean;
    }
    request.has_payload = json.get("path") || json.get("files");
    return !request.has_payload || load_scan_payload(json, request);
}

bool parse_validate(const JsonValue& json, NdjsonRequest& request) {
    request.has_payload = json.get("path") || json.get("files");
    if (request.has_payload) return load_scan_payload(json, request);
    if (json.object.size() > 1) {
        // Payload-less validate targets the watch session; stray request
        // keys there would be silently meaningless.
        request.error =
            "validate without \"path\"/\"files\" takes no other keys";
        return false;
    }
    return true;
}

}  // namespace

LineStatus read_ndjson_line(std::istream& in, std::string& line,
                            size_t max_bytes) {
    line.clear();
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

const std::vector<NdjsonOpSpec>& ndjson_ops() {
    using Op = NdjsonRequest::Op;
    static const std::vector<NdjsonOpSpec> kOps = {
        {"scan", Op::kScan,
         {"op", "path", "files", "plugin", "preset", "priority", "slot"},
         parse_scan},
        {"watch", Op::kWatch,
         {"op", "path", "files", "plugin", "preset", "priority"},
         load_scan_payload},
        {"edit", Op::kEdit, {"op", "files", "remove"}, parse_edit},
        {"graph", Op::kGraph, {"op", "path", "files", "plugin", "detail"},
         parse_graph},
        {"validate", Op::kValidate,
         {"op", "path", "files", "plugin", "preset", "priority"},
         parse_validate},
        {"stats", Op::kStats, {"op"}, nullptr},
        {"clear", Op::kClear, {"op"}, nullptr},
        {"quit", Op::kQuit, {"op"}, nullptr},
    };
    return kOps;
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
    const std::string op = json.string_or("op", "");
    const std::vector<NdjsonOpSpec>& ops = ndjson_ops();
    const auto spec =
        std::find_if(ops.begin(), ops.end(),
                     [&](const NdjsonOpSpec& row) { return row.name == op; });
    if (spec == ops.end()) {
        request.error = "unknown op: \"" + op + "\"";
        return request;
    }
    // Strict keys: a key the op does not define is an error, not ignored.
    for (const auto& [key, value] : json.object) {
        if (std::find(spec->keys.begin(), spec->keys.end(), key) ==
            spec->keys.end()) {
            request.error =
                "unknown key \"" + key + "\" for op \"" + op + "\"";
            return request;
        }
    }
    if (spec->parse_payload && !spec->parse_payload(json, request))
        return request;
    request.op = spec->op;
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
    w.kv("result_entries", stats.result_entries);
    w.kv("bytes_resident", deterministic ? uint64_t{0} : stats.bytes_resident);
    w.kv("file_hits", stats.file_hits);
    w.kv("file_misses", stats.file_misses);
    w.kv("result_hits", stats.result_hits);
    w.kv("evictions", stats.evictions);
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

std::optional<NdjsonRequest> read_next_request(std::istream& in,
                                               size_t max_line_bytes) {
    std::string line;
    for (;;) {
        const LineStatus status = read_ndjson_line(in, line, max_line_bytes);
        if (status == LineStatus::kEof) return std::nullopt;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        if (status == LineStatus::kOk) return parse_ndjson_request(line);
        NdjsonRequest oversized;
        oversized.error = "request line exceeds " +
                          std::to_string(max_line_bytes) + " bytes";
        return oversized;
    }
}

std::string execute(NdjsonRequest& request, AnalysisService& service,
                    WatchSession& watch, bool deterministic) {
    using Op = NdjsonRequest::Op;
    switch (request.op) {
    case Op::kScan:
        // One scan at a time, so a slot's previous request is always
        // already answered: supersede slots only matter to the pipelined
        // loop, which submits scans itself.
        return render_scan_line(service.scan(std::move(request.scan)),
                                deterministic);
    case Op::kWatch: {
        // Sequence open() before file_count() — as arguments the calls
        // would be unsequenced relative to each other.
        const ScanResponse response = watch.open(std::move(request.scan));
        return render_watch_line(response, watch.file_count(), deterministic);
    }
    case Op::kEdit:
        return render_edit_line(watch.edit(request.edit), deterministic);
    case Op::kGraph:
        if (request.has_payload)
            return render_graph_line(build_request_graph(service, request.scan),
                                     request.graph_detail);
        if (watch.graph())
            return render_graph_line(*watch.graph(), request.graph_detail);
        return render_error_line(
            "graph needs an open watch session or a \"path\"/\"files\" "
            "payload");
    case Op::kValidate:
        if (request.has_payload)
            return render_validate_line(service.validate(request.scan),
                                        deterministic);
        if (watch.active())
            return render_validate_line(service.validate(watch.request()),
                                        deterministic);
        return render_error_line(
            "validate needs an open watch session or a \"path\"/\"files\" "
            "payload");
    case Op::kStats:
        return render_stats_line(service.cache_stats(), deterministic);
    case Op::kClear:
        service.clear_cache();
        return render_ok_line();
    case Op::kQuit:
        return render_bye_line();
    case Op::kInvalid:
        break;
    }
    return render_error_line(request.error);
}

}  // namespace phpsafe::service
