#include "service/watch.h"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/counters.h"
#include "report/export.h"
#include "util/diagnostics.h"

namespace phpsafe::service {

namespace {

/// Parses one file outside any project — the fallback when the service's
/// file pool evicted a parse between the scan and the state refresh.
std::shared_ptr<const php::ParsedFile> parse_standalone(
    const std::string& name, const std::string& text) {
    php::Project project("watch-refresh");
    project.add_file(name, text);
    DiagnosticSink sink;
    project.parse_all(sink);
    return project.files().empty() ? nullptr : project.files().front();
}

}  // namespace

ScanRequest WatchSession::assemble_request() const {
    ScanRequest request = base_;
    request.files.reserve(files_.size());
    for (const auto& [name, state] : files_) {
        SourceFileSpec spec;
        spec.name = name;
        if (state.parsed) {
            spec.parsed = state.parsed;
        } else {
            spec.text = state.text;
            spec.known_hash = state.hash;
        }
        request.files.push_back(std::move(spec));
    }
    return request;
}

void WatchSession::refresh_state() {
    bool relink = !graph_ || graph_stale_;
    for (auto& [name, state] : files_) {
        if (!state.parsed) {
            state.parsed = service_.cache().find_file(name, state.hash);
            if (!state.parsed && !state.text.empty())
                state.parsed = parse_standalone(name, state.text);
            state.dirty = true;
        }
        if (state.dirty && state.parsed) {
            graph::FileFacts fresh = graph::extract_file_facts(*state.parsed);
            if (!relink && !graph::structure_equals(fresh, state.facts))
                relink = true;
            state.facts = std::move(fresh);
            state.dirty = false;
            state.text.clear();  // the pinned AST retains the source
        }
    }
    if (relink) {
        std::vector<graph::FileFacts> facts;
        facts.reserve(files_.size());
        for (const auto& [name, state] : files_) facts.push_back(state.facts);
        graph_ = std::make_unique<graph::ProjectGraph>(
            graph::ProjectGraph::build(std::move(facts)));
        ++obs::tls().graph_builds;
    } else {
        // Structure-preserving edit (comments, whitespace, bodies): every
        // node and edge stays valid, only content hashes moved.
        for (const auto& [name, state] : files_) {
            const auto id = graph_->file_id(name);
            if (id != graph::ProjectGraph::kNoFile)
                graph_->set_file_hash(id, state.facts.content_hash);
        }
    }
    graph_stale_ = false;
}

ScanResponse WatchSession::open(ScanRequest request) {
    files_.clear();
    graph_.reset();
    baseline_.clear();
    active_ = false;
    graph_stale_ = true;

    base_ = request;
    base_.files.clear();
    for (SourceFileSpec& spec : request.files) {
        FileState state;
        state.hash = AnalysisService::spec_content_hash(spec);
        state.parsed = std::move(spec.parsed);
        state.text = std::move(spec.text);
        state.dirty = true;
        files_.insert_or_assign(std::move(spec.name), std::move(state));
    }

    ScanResponse response = service_.scan(assemble_request());
    if (response.rejected || response.cancelled) {
        files_.clear();
        return response;
    }
    baseline_ = response.result.findings;
    refresh_state();
    active_ = true;
    return response;
}

WatchDelta WatchSession::edit(const WatchEditBatch& batch) {
    WatchDelta delta;
    if (!active_) {
        delta.error = "no watch session open (send {\"op\":\"watch\"} first)";
        return delta;
    }
    if (batch.upserts.empty() && batch.removals.empty()) {
        delta.error = "edit changes no files";
        return delta;
    }
    std::set<std::string> touched;
    for (const SourceFileSpec& spec : batch.upserts) {
        if (spec.name.empty()) {
            delta.error = "edit file needs a non-empty name";
            return delta;
        }
        if (!touched.insert(spec.name).second) {
            delta.error = "edit touches \"" + spec.name + "\" twice";
            return delta;
        }
    }
    for (const std::string& name : batch.removals) {
        if (!touched.insert(name).second) {
            delta.error = "edit touches \"" + name + "\" twice";
            return delta;
        }
        if (!files_.count(name)) {
            delta.error = "cannot remove unknown file \"" + name + "\"";
            return delta;
        }
    }

    // The invalidated cone, on the pre-edit graph: everything that could
    // observe the changed files. Advisory — see the header.
    std::vector<graph::ProjectGraph::FileId> changed_ids;
    int new_files = 0;
    for (const std::string& name : touched) {
        const auto id = graph_->file_id(name);
        if (id == graph::ProjectGraph::kNoFile)
            ++new_files;  // brand-new file: in the cone by itself
        else
            changed_ids.push_back(id);
    }
    const std::vector<graph::ProjectGraph::FileId> cone =
        graph_->dependency_cone(changed_ids);
    delta.changed_files = static_cast<int>(touched.size());
    delta.cone_files = static_cast<int>(cone.size()) + new_files;
    for (const auto id : cone)
        delta.cone_functions +=
            static_cast<int>(graph_->functions_of(id).size());
    obs::tls().watch_edits += static_cast<uint64_t>(touched.size());
    obs::tls().watch_cone_files += static_cast<uint64_t>(delta.cone_files);

    // Apply the batch.
    for (const SourceFileSpec& spec : batch.upserts) {
        FileState state;
        // The previous facts stay until refresh_state compares the edited
        // file's fresh facts against them: an edit that keeps the file's
        // structure reuses the linked graph instead of relinking it.
        if (const auto it = files_.find(spec.name); it != files_.end())
            state.facts = std::move(it->second.facts);
        state.hash = AnalysisService::spec_content_hash(spec);
        state.parsed = spec.parsed;
        state.text = spec.text;
        state.dirty = true;
        files_.insert_or_assign(spec.name, std::move(state));
    }
    for (const std::string& name : batch.removals) files_.erase(name);
    if (new_files > 0 || !batch.removals.empty()) graph_stale_ = true;

    // Full re-scan: unchanged files ride as pinned ASTs, so the request
    // costs O(edit) to assemble and the engine reuses every out-of-cone
    // summary. Identical findings to a cold scan of the same content.
    delta.response = service_.scan(assemble_request());
    if (delta.response.rejected || delta.response.cancelled) {
        delta.error = delta.response.rejected
                          ? "re-scan rejected by admission control"
                          : "re-scan cancelled";
        // Without a fresh baseline later deltas would be wrong; force the
        // client to re-open.
        active_ = false;
        baseline_.clear();
        return delta;
    }

    // Delta findings: canonical-serialization multiset diff, both sides in
    // their result order. Byte-identical to diffing two full cold scans.
    const std::vector<Finding>& now = delta.response.result.findings;
    std::multiset<std::string> before_keys;
    for (const Finding& f : baseline_) before_keys.insert(finding_json(f));
    std::multiset<std::string> after_keys;
    for (const Finding& f : now) after_keys.insert(finding_json(f));
    for (const Finding& f : now) {
        const auto it = before_keys.find(finding_json(f));
        if (it != before_keys.end())
            before_keys.erase(it);
        else
            delta.added.push_back(f);
    }
    for (const Finding& f : baseline_) {
        const auto it = after_keys.find(finding_json(f));
        if (it != after_keys.end())
            after_keys.erase(it);
        else
            delta.removed.push_back(f);
    }

    baseline_ = now;
    refresh_state();
    delta.ok = true;
    return delta;
}

graph::ProjectGraph build_request_graph(AnalysisService& service,
                                        const ScanRequest& request) {
    php::Project project(request.plugin);
    for (const SourceFileSpec& spec : request.files) {
        if (spec.parsed) {
            project.add_parsed(spec.parsed);
            continue;
        }
        const uint64_t hash = AnalysisService::spec_content_hash(spec);
        if (auto cached = service.cache().find_file(spec.name, hash))
            project.add_parsed(std::move(cached));
        else
            project.add_file(spec.name, spec.text);
    }
    DiagnosticSink sink;
    project.parse_all(sink);
    for (const auto& parsed : project.files()) service.cache().insert_file(parsed);
    ++obs::tls().graph_builds;
    return graph::build_project_graph(project);
}

}  // namespace phpsafe::service
