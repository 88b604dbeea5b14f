// WatchSession: the reverse-graph incremental scheduler behind the NDJSON
// "watch"/"edit" ops. A client opens a session with a full scan request,
// then streams file-change events; each edit batch answers with *delta
// findings* — what the change added and removed relative to the previous
// scan — instead of the whole report.
//
// State kept per session (this is what the whole-request warm path pays
// for on every scan and a watch session pays for once):
//   - every file's content hash and a pinned shared_ptr to its immutable
//     parsed AST (re-pinned from the service's file pool after each scan,
//     or re-parsed locally when the pool evicted it),
//   - per-file graph facts and the linked ProjectGraph
//     (graph/project_graph.h), rebuilt after each edit by re-extracting
//     facts for the changed files only,
//   - the previous scan's findings, diffed against each new scan.
//
// An edit therefore submits a request whose unchanged files are pinned
// ASTs: the service skips re-hashing, re-parsing and the per-file cache
// probes for everything outside the edit, and the request fingerprint is
// computed from content hashes alone. The invalidated cone — every file
// that transitively includes or uses a changed file, via
// ProjectGraph::dependency_cone — is computed per batch and reported in
// the delta (cone_files/cone_functions, plus the watch_* obs counters).
//
// Soundness: the cone is *advisory*. The re-scan always covers the full
// updated file set through the same AnalysisService::perform_scan path as
// a cold scan, so delta findings are byte-identical to the diff of two
// full cold re-scans by the service's standing warm==cold invariant — at
// any PHPSAFE_JOBS, any cache state. What the cone bounds is
// *cost*, not correctness: out-of-cone files ride through as pinned ASTs
// with cached summaries whose dependency validation is memoized
// (DepCheckMemo), so re-analysis work scales with the cone, not the tree
// (BENCH_graph.json). A cone-gated scan that skipped out-of-cone files
// outright would be unsound: a changed file can shadow a declaration an
// out-of-cone summary resolved, which only dependency validation against
// the full project catches.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/finding.h"
#include "graph/project_graph.h"
#include "service/service.h"

namespace phpsafe::service {

/// One batch of file-change events (the "edit" op). Upserts create or
/// replace files; removals delete them. A name in both lists is an error.
struct WatchEditBatch {
    std::vector<SourceFileSpec> upserts;  ///< name + text
    std::vector<std::string> removals;
};

/// Answer to one edit batch.
struct WatchDelta {
    bool ok = false;
    std::string error;          ///< set when !ok (nothing was applied)
    int changed_files = 0;      ///< upserts + removals applied
    int cone_files = 0;         ///< invalidated cone size (incl. the edits)
    int cone_functions = 0;     ///< function nodes declared by cone files
    /// Findings present after the edit but not before / before but not
    /// after, diffed by canonical serialization (report/export.h
    /// finding_json) honoring multiplicity, in result order.
    std::vector<Finding> added;
    std::vector<Finding> removed;
    ScanResponse response;      ///< the underlying full re-scan
};

class WatchSession {
public:
    /// The service is shared (it outlives the session); scans submitted by
    /// the session go through its normal queue and caches.
    explicit WatchSession(AnalysisService& service) : service_(service) {}

    bool active() const noexcept { return active_; }
    int file_count() const noexcept { return static_cast<int>(files_.size()); }

    /// Opens (or re-opens, replacing all state) the session: runs a full
    /// scan of `request` and captures the baseline. The response is the
    /// ordinary scan response for the request.
    ScanResponse open(ScanRequest request);

    /// Applies one edit batch and re-scans. The batch must change at least
    /// one file; removals must name files the session holds.
    WatchDelta edit(const WatchEditBatch& batch);

    /// The current project graph (null before open()).
    const graph::ProjectGraph* graph() const noexcept { return graph_.get(); }

    /// Findings of the most recent scan.
    const std::vector<Finding>& baseline_findings() const noexcept {
        return baseline_;
    }

    /// Snapshot of the session's current full request — plugin, preset
    /// and the complete file set with pinned ASTs. The session-
    /// aware "validate" op replays this through AnalysisService::validate,
    /// fingerprint-compatible with the session's own scans. Empty (no
    /// files) before open().
    ScanRequest request() const {
        return active_ ? assemble_request() : ScanRequest{};
    }

private:
    struct FileState {
        uint64_t hash = 0;
        std::shared_ptr<const php::ParsedFile> parsed;  ///< pinned AST
        std::string text;  ///< kept only while `parsed` is null
        graph::FileFacts facts;
        bool dirty = true;  ///< facts/pin stale (new or edited)
    };

    /// The session's full file set as a scan request (files in name
    /// order — deterministic like load_directory's path sort).
    ScanRequest assemble_request() const;
    /// Pins ASTs and re-extracts facts for dirty files, then relinks the
    /// graph — unless every edited file kept its graph structure
    /// (structure_equals), in which case the linked graph is reused and
    /// only node hashes refresh. Runs after every scan.
    void refresh_state();

    AnalysisService& service_;
    ScanRequest base_;  ///< plugin/preset/priority (files unused)
    std::map<std::string, FileState> files_;
    std::vector<Finding> baseline_;
    std::unique_ptr<graph::ProjectGraph> graph_;
    bool active_ = false;
    /// Files were added or removed since the last relink — the graph must
    /// rebuild even if every surviving file kept its structure.
    bool graph_stale_ = true;
};

/// Builds the project graph of a standalone request (no session), reusing
/// the service's file pool for parsed files — the "graph" op with an
/// explicit "path"/"files" payload.
graph::ProjectGraph build_request_graph(AnalysisService& service,
                                        const ScanRequest& request);

}  // namespace phpsafe::service
