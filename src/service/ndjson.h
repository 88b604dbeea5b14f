// Newline-delimited JSON protocol for the AnalysisService — the transport
// behind tools/phpsafe_serve. One JSON request object per input line, one
// JSON response object per output line:
//
//   {"op":"scan","path":"/plugin/dir"}            scan *.php under a directory
//   {"op":"scan","plugin":"p","files":[{"name":"a.php","text":"<?php ..."}]}
//   {"op":"scan",...,"preset":"rips"}             preset: phpsafe|rips|pixy
//   {"op":"scan",...,"priority":5}                higher dispatches sooner
//   {"op":"scan",...,"slot":"editor"}             supersedes the slot's
//                                                 previous still-queued scan
//   {"op":"stats"}                                cache statistics
//   {"op":"clear"}                                drop all cache pools
//   {"op":"quit"}                                 end the session cleanly
//
// Watch mode (docs/graph.md) — per-session incremental state:
//   {"op":"watch",...}                            scan + open a watch
//                                                 session (same keys as
//                                                 scan, minus "slot")
//   {"op":"edit","files":[...],"remove":[...]}    apply a change batch;
//                                                 answers delta findings
//                                                 ("added"/"removed") plus
//                                                 the invalidated cone size
//   {"op":"graph"}                                analytics of the watch
//                                                 session's project graph
//   {"op":"graph","path":...} / "files":[...]     ... of a standalone tree
//   {"op":"graph",...,"detail":true}              + full nodes and edges
//
// Validation (docs/validation.md) — batch exploit confirmation + fixes:
//   {"op":"validate",...}                         scan + tier every finding
//                                                 (same payload keys as
//                                                 watch); cached by request
//                                                 fingerprint
//   {"op":"validate"}                             ... of the open watch
//                                                 session's file set
//
// Scan responses carry the same report object render_json_report() emits
// for the batch tools, plus cache effectiveness fields. Every error —
// malformed JSON, unknown op, unknown key, bad payload, oversized line —
// is the ONE structured shape {"ok":false,"error":"..."} regardless of
// which loop (serve_ndjson or the multi-session server) parsed the
// request; requests carrying keys their op does not define are rejected,
// not silently ignored. Living in the library (not the tool's main) makes
// the protocol drivable from tests over string streams.
//
// The file splits into three layers so the single-client loop and the
// multi-session server (service/server.h) share one wire format:
//   - read_ndjson_line: a byte-capped line reader (bounded request memory),
//   - parse_ndjson_request / render_*_line: framing in both directions,
//   - serve_ndjson: the synchronous read-execute-reply loop over one stream
//     pair, which the golden protocol test drives.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "graph/project_graph.h"
#include "service/service.h"
#include "service/watch.h"

namespace phpsafe::service {

struct ServeOptions {
    /// Service to drive (caller keeps ownership, caches persist across
    /// calls); null = serve() runs a private service for the session.
    AnalysisService* service = nullptr;

    /// Zero the fields that vary run-to-run (wall_seconds, bytes_resident)
    /// so a scripted session produces a byte-identical transcript — the
    /// golden protocol test depends on this.
    bool deterministic = false;

    /// Longest accepted request line in bytes; longer lines are answered
    /// with an error and skipped without being buffered whole. 0 means
    /// unbounded (stdin tools); the multi-session server sets a bound.
    size_t max_line_bytes = 0;
};

/// Outcome of one capped line read.
enum class LineStatus {
    kOk,        ///< a complete line (or a truncated final line at EOF)
    kEof,       ///< end of input, nothing read
    kOversized  ///< line exceeded the cap; its remainder was discarded
};

/// Reads one newline-terminated line into `line`, buffering at most
/// `max_bytes` of it (0 = unbounded). An oversized line is consumed to its
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
    bool graph_detail = false;     ///< kGraph: include full nodes + edges
    bool graph_has_payload = false;  ///< kGraph: "path"/"files" present
    bool validate_has_payload = false;  ///< kValidate: "path"/"files" present
    std::string error;   ///< populated for kInvalid
};

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

/// Serves requests from `in` until EOF or a quit op; responses go to
/// `out`, one per line, flushed. Returns the number of lines processed
/// (blank lines excluded).
int serve_ndjson(std::istream& in, std::ostream& out,
                 const ServeOptions& options = {});

}  // namespace phpsafe::service
