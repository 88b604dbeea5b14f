// WatchSession: the reverse-graph incremental scheduler behind the NDJSON
// "watch"/"edit" ops. A client opens a session with a full scan request,
// then streams file-change events; each edit batch answers with *delta
// findings* — what the change added and removed relative to the previous
// scan — instead of the whole report.
//
// State kept per session (this is what the whole-request warm path pays
// for on every scan and a watch session pays for once):
//   - one built php::Project over the session's files (name order), held
//     by shared_ptr<const>: its ParsedFiles pin every AST, so nothing the
//     session holds depends on the service's file pool,
//   - per-file graph facts and the linked ProjectGraph
//     (graph/project_graph.h), refreshed after each edit for the changed
//     files only,
//   - the previous scan's findings, diffed against each new scan.
//
// An edit that only replaces existing files forks the held project
// (php::Project::fork_with_replacements): the fork parses the edited files
// alone — a file whose new content the service's file pool holds is taken
// from it instead — and overlays the shared declaration tables when the
// edit keeps the file's declarations, as every comment or body edit does.
// An edit that adds or removes files rebuilds the project from the held
// ASTs plus the new texts. Either way the scan request carries the built
// project (ScanRequest::project), so the service neither hashes, probes nor
// builds anything, and its fingerprint — computed from the project's names
// and content hashes — equals that of the same files sent as text. Edits
// admit nothing to the file pool. The invalidated cone — every file that
// transitively includes or uses a changed file, via
// ProjectGraph::dependency_cone — is computed per batch and reported in
// the delta (cone_files/cone_functions, plus the watch_* obs counters).
//
// Soundness: the cone is *reported*, never used to skip work. The re-scan
// always analyzes the full updated project through the same
// AnalysisService::perform_scan path as a cold scan, so delta findings are
// byte-identical to the diff of two full cold re-scans — at any
// PHPSAFE_JOBS, any cache state. An edit saves the re-parse of every
// unchanged file and the model construction over them, but re-analyzes the
// whole project: no summary survives from one scan to the next. A
// cone-gated scan that skipped out-of-cone files outright would be
// unsound: a changed file can shadow a declaration an out-of-cone function
// resolved.
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
    int file_count() const noexcept {
        return project_ ? static_cast<int>(project_->files().size()) : 0;
    }

    /// Opens (or re-opens, replacing all state) the session: builds the
    /// project from `request` (through the file pool), scans it and
    /// captures the baseline. The response is the ordinary scan response
    /// for the request.
    ScanResponse open(ScanRequest request);

    /// Applies one edit batch and re-scans. The batch must change at least
    /// one file; removals must name files the session holds. A re-scan the
    /// service rejects or cancels fails the edit and closes the session:
    /// without a fresh baseline every later delta would be wrong.
    WatchDelta edit(const WatchEditBatch& batch);

    /// The current project graph (null before open()).
    const graph::ProjectGraph* graph() const noexcept { return graph_.get(); }

    /// The project the session holds (null before open()).
    const std::shared_ptr<const php::Project>& project() const noexcept {
        return project_;
    }

    /// Findings of the most recent scan.
    const std::vector<Finding>& baseline_findings() const noexcept {
        return baseline_;
    }

    /// The session's current full request: plugin, preset and the held
    /// project. The session-aware "validate" op replays this through
    /// AnalysisService::validate, fingerprint-compatible with the
    /// session's own scans. Carries no project before open().
    ScanRequest request() const {
        ScanRequest request = base_;
        if (active_) request.project = project_;
        return request;
    }

private:
    /// Re-extracts the graph facts of the `changed` files, drops the
    /// `removed` ones, then relinks the graph — unless no file was added
    /// or removed and every changed file kept its graph structure
    /// (structure_equals), in which case the linked graph is reused and
    /// only the changed files' node hashes refresh.
    void refresh_state(const std::vector<std::string>& changed,
                       const std::vector<std::string>& removed);
    /// Scans the held project; adds `build`, the counters of building it,
    /// to the response so its per-layer counts cover model construction.
    ScanResponse scan(const obs::Counters& build);

    AnalysisService& service_;
    ScanRequest base_;  ///< plugin/preset/priority (files unused)
    std::shared_ptr<const php::Project> project_;
    std::map<std::string, graph::FileFacts> facts_;
    std::vector<Finding> baseline_;
    std::unique_ptr<graph::ProjectGraph> graph_;
    bool active_ = false;
};

/// Builds the project graph of a standalone request (no session), reusing
/// the service's file pool for parsed files — the "graph" op with an
/// explicit "path"/"files" payload.
graph::ProjectGraph build_request_graph(AnalysisService& service,
                                        const ScanRequest& request);

}  // namespace phpsafe::service
