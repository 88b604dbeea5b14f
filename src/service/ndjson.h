// Newline-delimited JSON protocol for the AnalysisService — the transport
// behind tools/phpsafe_serve. One JSON request object per input line, one
// JSON response object per output line:
//
//   {"op":"scan","plugin":"p","files":[{"name":"a.php","text":"<?php ..."}]}
//   {"op":"stats"}
//   {"op":"quit"}
//
// The ops: scan, stats, clear and quit (docs/service.md); watch, edit and
// graph, which keep per-session incremental state (docs/graph.md); and
// validate, batch exploit confirmation with fixes (docs/validation.md).
// The protocol table in docs/service.md lists every op and the keys it
// accepts; ndjson_ops() is the same table in code, and a test holds the
// two together.
//
// Scan responses carry the same report object render_json_report() emits
// for the batch tools, plus cache effectiveness fields. Every error —
// malformed JSON, unknown op, unknown key, bad payload, oversized line —
// is the ONE structured shape {"ok":false,"error":"..."}; requests
// carrying keys their op does not define are rejected, not silently
// ignored. Living in the library (not the tool's main) makes the protocol
// drivable from tests over string streams.
//
// The file splits into three layers, shared by both request loops of
// AnalysisServer (service/server.h):
//   - read_next_request: byte-capped line framing (bounded request
//     memory) that skips blank lines and decodes the rest,
//   - parse_ndjson_request / render_*_line: framing in both directions,
//   - execute: the one dispatch over every op, answering a request with
//     its rendered response line.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/project_graph.h"
#include "service/service.h"
#include "service/watch.h"

namespace phpsafe {
class JsonValue;
}

namespace phpsafe::service {

/// Outcome of one capped line read.
enum class LineStatus {
    kOk,        ///< a complete line (or a truncated final line at EOF)
    kEof,       ///< end of input, nothing read
    kOversized  ///< line exceeded the cap; its remainder was discarded
};

/// Reads one newline-terminated line into `line`, buffering at most
/// `max_bytes` of it. An oversized line is consumed to its
/// terminator but only the first `max_bytes` are kept. A final line without
/// a trailing newline is returned as kOk — partial trailing requests are
/// the sender's problem, not a reason to drop them silently.
LineStatus read_ndjson_line(std::istream& in, std::string& line,
                            size_t max_bytes);

/// One decoded request line.
struct NdjsonRequest {
    enum class Op {
        kScan, kWatch, kEdit, kGraph, kValidate, kStats, kClear, kQuit,
        kInvalid
    };
    Op op = Op::kInvalid;
    ScanRequest scan;    ///< populated for kScan/kWatch/kGraph/kValidate
                         ///< when the request carries a payload
    std::string slot;    ///< optional supersede key for kScan ("" = none)
    WatchEditBatch edit; ///< populated for kEdit
    bool graph_detail = false;  ///< kGraph: include full nodes + edges
    bool has_payload = false;   ///< kGraph/kValidate: "path"/"files" present
    std::string error;   ///< populated for kInvalid
};

/// One row of the protocol table: an op's wire name, the keys a request
/// of that op may carry ("op" included), and the decoder of its payload
/// (null for the bare ops).
struct NdjsonOpSpec {
    std::string_view name;
    NdjsonRequest::Op op;
    std::vector<std::string_view> keys;
    bool (*parse_payload)(const JsonValue& json, NdjsonRequest& request);
};

/// Every op the protocol accepts.
const std::vector<NdjsonOpSpec>& ndjson_ops();

/// Parses one request line (JSON object with an "op"). Never throws; bad
/// input yields Op::kInvalid with `error` set.
NdjsonRequest parse_ndjson_request(const std::string& line);

/// Response renderers. Each returns one complete JSON line WITHOUT the
/// trailing newline, so callers control write atomicity (the multi-session
/// server appends the newline inside its synchronized line writer).
std::string render_error_line(const std::string& message);
std::string render_ok_line();
std::string render_bye_line();
std::string render_scan_line(const ScanResponse& response, bool deterministic);
std::string render_stats_line(const CacheStats& stats, bool deterministic);
/// The scan response of a watch open, tagged "watch":true with the
/// session's tracked file count.
std::string render_watch_line(const ScanResponse& response, int files,
                              bool deterministic);
/// One edit batch's answer: cone size + delta findings (or the structured
/// error when the delta is not ok).
std::string render_edit_line(const WatchDelta& delta, bool deterministic);
/// Graph analytics, optionally with the full serialized graph.
std::string render_graph_line(const graph::ProjectGraph& g, bool detail);
/// One validate response: tier counts, verified quickfixes and the tiered
/// report (each finding carrying its "confidence").
std::string render_validate_line(const ValidateResponse& response,
                                 bool deterministic);

/// Reads lines from `in` up to the next non-blank one and decodes it;
/// nullopt at end of input. A line longer than `max_line_bytes` is never
/// buffered whole: it becomes a kInvalid request carrying the "request
/// line exceeds N bytes" error.
std::optional<NdjsonRequest> read_next_request(std::istream& in,
                                               size_t max_line_bytes);

/// Answers one request with its rendered response line (no newline). Every
/// op runs synchronously: scan through service.scan, watch/edit/graph and
/// payload-less validate against the session's `watch`, quit as the bye
/// line. The payloads are moved out of `request`.
std::string execute(NdjsonRequest& request, AnalysisService& service,
                    WatchSession& watch, bool deterministic);

}  // namespace phpsafe::service
