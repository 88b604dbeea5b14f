#include "service/watch.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "obs/counters.h"
#include "report/export.h"
#include "util/diagnostics.h"

namespace phpsafe::service {

void WatchSession::refresh_state(const std::vector<std::string>& changed,
                                 const std::vector<std::string>& removed) {
    bool relink = !graph_ || !removed.empty();
    for (const std::string& name : removed) facts_.erase(name);
    for (const std::string& name : changed) {
        graph::FileFacts fresh =
            graph::extract_file_facts(*project_->file_named(name));
        const auto [it, added] = facts_.try_emplace(name);
        if (!relink && (added || !graph::structure_equals(fresh, it->second)))
            relink = true;
        it->second = std::move(fresh);
    }
    if (relink) {
        std::vector<graph::FileFacts> facts;
        facts.reserve(facts_.size());
        for (const auto& [name, file_facts] : facts_) facts.push_back(file_facts);
        graph_ = std::make_unique<graph::ProjectGraph>(
            graph::ProjectGraph::build(std::move(facts)));
        ++obs::tls().graph_builds;
    } else {
        // Structure-preserving edit (comments, whitespace, bodies): every
        // node and edge stays valid, only the changed files' hashes moved.
        for (const std::string& name : changed)
            graph_->set_file_hash(graph_->file_id(name),
                                  facts_.at(name).content_hash);
    }
}

ScanResponse WatchSession::scan(const obs::Counters& build) {
    ScanRequest request = base_;
    request.project = project_;
    ScanResponse response = service_.scan(std::move(request));
    response.counters += build;
    return response;
}

ScanResponse WatchSession::open(ScanRequest request) {
    project_.reset();
    facts_.clear();
    graph_.reset();
    baseline_.clear();
    active_ = false;

    // Files in name order, the last spec of a repeated name winning —
    // deterministic like load_directory's path sort.
    std::map<std::string, std::string> texts;
    for (SourceFileSpec& spec : request.files)
        texts.insert_or_assign(std::move(spec.name), std::move(spec.text));
    request.files.clear();
    base_ = request;
    for (auto& [name, text] : texts) request.files.emplace_back(name, std::move(text));

    const obs::CounterDelta build;
    project_ = std::make_shared<const php::Project>(service_.build_project(request));
    ScanResponse response = scan(build.take());
    if (response.rejected || response.cancelled) {
        project_.reset();
        return response;
    }
    baseline_ = response.result.findings;
    std::vector<std::string> names;
    names.reserve(texts.size());
    for (const auto& [name, text] : texts) names.push_back(name);
    refresh_state(names, {});
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
        if (!project_->file_named(name)) {
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

    // Apply the batch. An edit of existing files forks the held project;
    // adding or removing files rebuilds it from the held ASTs. Edited
    // content the file pool already holds is taken from it; nothing is
    // admitted to it. A fork refuses (and parses nothing) only if a name it
    // is given is not a file of the project; the rebuild then handles the
    // batch.
    const obs::CounterDelta build;
    std::optional<php::Project> forked;
    if (new_files == 0 && batch.removals.empty()) {
        std::vector<php::Project::Replacement> replacements;
        replacements.reserve(batch.upserts.size());
        for (const SourceFileSpec& spec : batch.upserts) {
            auto parsed = service_.cache().find_file(
                spec.name, php::content_hash(spec.text));
            replacements.push_back(
                {spec.name, parsed ? std::string() : spec.text, std::move(parsed)});
        }
        DiagnosticSink sink;
        forked = project_->fork_with_replacements(std::move(replacements), sink);
    }
    if (forked) {
        project_ = std::make_shared<const php::Project>(std::move(*forked));
    } else {
        std::map<std::string_view, const SourceFileSpec*> upserts;
        for (const SourceFileSpec& spec : batch.upserts) upserts[spec.name] = &spec;
        const std::set<std::string_view> removals(batch.removals.begin(),
                                                  batch.removals.end());
        php::Project next(base_.plugin);
        auto upsert = upserts.begin();
        for (const auto& file : project_->files()) {
            const std::string& name = file->unit.file_name;
            for (; upsert != upserts.end() && upsert->first < name; ++upsert)
                service_.add_source(next, *upsert->second);
            if (upsert != upserts.end() && upsert->first == name)
                service_.add_source(next, *(upsert++)->second);
            else if (!removals.count(name))
                next.add_parsed(file);
        }
        for (; upsert != upserts.end(); ++upsert)
            service_.add_source(next, *upsert->second);
        DiagnosticSink sink;
        next.parse_all(sink);
        project_ = std::make_shared<const php::Project>(std::move(next));
    }

    // Full re-scan of the new project; identical findings to a cold scan
    // of the same content.
    delta.response = scan(build.take());
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
    std::vector<std::string> changed;
    changed.reserve(batch.upserts.size());
    for (const SourceFileSpec& spec : batch.upserts) changed.push_back(spec.name);
    refresh_state(changed, batch.removals);
    delta.ok = true;
    return delta;
}

graph::ProjectGraph build_request_graph(AnalysisService& service,
                                        const ScanRequest& request) {
    const php::Project project = service.build_project(request);
    ++obs::tls().graph_builds;
    return graph::build_project_graph(project);
}

}  // namespace phpsafe::service
