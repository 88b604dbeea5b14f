// AnalysisServer: the NDJSON front-end over one AnalysisService. It has two
// request loops, and both answer every op through service/ndjson.h's one
// execute():
//   - serve_serial answers one request at a time on one stream pair —
//     phpsafe_serve's stdin mode and the golden protocol transcripts;
//   - serve_session is *pipelined*: the calling thread reads and submits
//     requests as fast as the client sends them, and a per-session writer
//     thread emits the responses in request order as the scans complete.
//     Clients therefore overlap — all sessions share the service's
//     TaskTeam, its priority queue, and its AnalysisCache — while
//     each client still observes the simple serial protocol: response N on
//     its stream answers request N.
// Both read through read_next_request, so a line beyond max_line_bytes is
// answered with an error without ever being buffered whole.
//
// On top of the shared wire format the pipelined session adds:
//   - priorities: a scan's "priority" field (plus the session's base
//     priority) orders dispatch across all clients,
//   - supersede slots: a scan carrying "slot":"name" cancels the session's
//     previous still-queued scan in that slot — the editor pattern, where
//     only the latest state of a buffer is worth scanning. The superseded
//     request is still answered (in order) with {"ok":false,
//     "cancelled":true},
//   - admission control: when the service's queue depth limit is reached,
//     submissions are answered {"ok":false,"rejected":true} immediately
//     (see ServiceOptions::max_queue_depth).
//
// Sessions that write to the SAME sink (many FIFO clients multiplexed
// onto one log, tests driving two sessions into one string stream) hand
// their output through a shared SyncLineWriter, which makes each response
// line atomic — interleaving happens only at line granularity.
//
// Responses stay byte-identical to a serial single-client replay of the
// same requests: scheduling (priorities, coalescing, cache locking) moves
// *when* a scan runs, never what it reports. tests/server_test.cpp and the
// fuzz concurrency oracle hold that invariant.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>

#include "service/ndjson.h"
#include "service/service.h"

namespace phpsafe::service {

struct ServerOptions {
    /// Configuration for the owned service (ignored when a shared service
    /// is injected via the second constructor).
    ServiceOptions service;
    /// Zero run-varying response fields (golden transcripts).
    bool deterministic = false;
    /// Longest accepted request line in bytes; a longer line is answered
    /// with an error and skipped without being buffered whole.
    size_t max_line_bytes = 16u << 20;
};

/// Serializes whole-line writes from concurrent sessions onto one stream.
/// Each write_line appends the newline and flushes under the lock, so two
/// sessions sharing a sink can interleave lines but never bytes.
class SyncLineWriter {
public:
    explicit SyncLineWriter(std::ostream& out) : out_(out) {}

    SyncLineWriter(const SyncLineWriter&) = delete;
    SyncLineWriter& operator=(const SyncLineWriter&) = delete;

    void write_line(const std::string& line);

private:
    std::ostream& out_;
    std::mutex mutex_;
};

class AnalysisServer {
public:
    /// Owns its service, configured from `options.service`.
    explicit AnalysisServer(ServerOptions options = {});
    /// Shares an existing service (caller keeps ownership; it must outlive
    /// the server). Caches and the scheduler queue are common property.
    AnalysisServer(AnalysisService& service, ServerOptions options);
    ~AnalysisServer();

    AnalysisServer(const AnalysisServer&) = delete;
    AnalysisServer& operator=(const AnalysisServer&) = delete;

    AnalysisService& service() noexcept { return *service_; }

    /// Serves requests from `in` one at a time until EOF or quit; each
    /// response goes to `out` as one flushed line before the next request
    /// is read. Returns requests processed (blank lines excluded).
    int serve_serial(std::istream& in, std::ostream& out);

    /// Runs one client session to EOF or quit (blocking — dedicate a
    /// thread per client). Requests are read and submitted eagerly; the
    /// session's writer thread emits responses in request order to `out`.
    /// `base_priority` is added to each request's own priority, letting a
    /// front-end rank whole clients. Returns requests processed.
    int serve_session(std::istream& in, SyncLineWriter& out,
                      int base_priority = 0);

    /// Convenience for a session with an unshared sink.
    int serve_session(std::istream& in, std::ostream& out,
                      int base_priority = 0);

private:
    ServerOptions options_;
    std::unique_ptr<AnalysisService> owned_service_;
    AnalysisService* service_;
};

}  // namespace phpsafe::service
