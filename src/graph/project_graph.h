// ProjectGraph: an explicit, queryable program graph for one scan request.
// The include/call relationships phpSAFE relies on exist implicitly — as
// resolution tables inside php::Project. This subsystem
// materializes them once per scan into a dense graph artifact:
//
//   nodes  - files (every source file of the request) and functions (every
//            declared free function and method, linked to its declaring
//            file). Node names are interned into an arena; all public
//            surfaces traffic in dense integer ids (FileId / FuncId).
//   edges  - include edges (a file's include/require literals, resolved
//            by php::IncludeIndex — the resolver php::Project uses, so the
//            graph, the engine and the interpreter pick the same file) and
//            use edges (a file calling a function, using a class, or
//            extending a parent declared in another file). Both directions
//            are stored, so reverse reachability is one adjacency walk.
//
// The graph is built from per-file FileFacts — a detached copy of the facts
// block php::Project::parse_file records for each file (what it declares,
// calls and includes), so no AST is walked here. Facts are independent per
// file, which is what makes the watch mode's incremental rebuild possible:
// an edit re-extracts facts for the changed files only and re-links the
// graph (linking is O(V+E) string-map work, orders of magnitude below
// re-analysis).
//
// On top of the structure sit the analytics the paper's plugin-review
// workflow wants answered before reading any finding (docs/graph.md):
// include hubs, orphan files, include cycles (iterative Tarjan SCC),
// dead/backup files and vendor directories. And the watch scheduler's core
// query: dependency_cone() — every file whose analysis could observe a
// change to the given files, i.e. the reverse closure over include and use
// edges. The cone is advisory (scheduling and reporting); the watch mode's
// byte-identity guarantee never depends on its precision (service/watch.h).
//
// to_json() serializes the nodes and edges (util/json_writer) so a
// front-end can persist or diff graphs across scans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "php/project.h"
#include "util/arena.h"

namespace phpsafe::graph {

/// What one file declares, calls and includes — everything ProjectGraph
/// needs, detached from the AST so facts survive file-pool eviction. All
/// names are ASCII-lowercased except file names and include paths, which
/// keep their case (file resolution is case-sensitive, like the engine's).
struct FileFacts {
    std::string name;
    uint64_t content_hash = 0;
    bool parse_failed = false;
    std::vector<std::string> declared_functions;  ///< free functions
    std::vector<std::string> declared_classes;
    std::vector<std::string> declared_methods;    ///< "class::method"
    std::vector<std::string> called_functions;
    std::vector<std::string> called_methods;      ///< bare method names
    std::vector<std::string> used_classes;        ///< new/static-call/extends
    std::vector<std::string> include_paths;       ///< literal (or trailing-
                                                  ///< literal concat) paths
};

/// Copies one parsed file's facts block (php::FactsBlock) into detached
/// FileFacts; walks no AST. An include path built by concatenation keeps
/// its trailing string literal — the `dirname(__FILE__) . '/x.php'` idiom
/// resolves through the same suffix match the engine uses.
FileFacts extract_file_facts(const php::ParsedFile& file);

/// True when two facts would produce the same graph nodes and edges —
/// everything except the content hash. An edit that only touches comments,
/// whitespace or statement bodies keeps the structure, so a linked graph
/// stays valid and only the node hash needs refreshing (set_file_hash).
bool structure_equals(const FileFacts& a, const FileFacts& b);

class ProjectGraph {
public:
    using FileId = int32_t;
    using FuncId = int32_t;
    static constexpr FileId kNoFile = -1;

    /// Ranked include hub: a file and how many distinct files include it.
    struct Hub {
        FileId file = kNoFile;
        int fan_in = 0;
    };

    /// Whole-graph analytics, computed by analyze().
    struct Analytics {
        std::vector<Hub> hubs;                 ///< top-N include fan-in
        std::vector<FileId> orphans;           ///< see analyze() docs
        std::vector<std::vector<FileId>> cycles;  ///< include SCCs, sorted
        std::vector<FileId> dead_files;        ///< backup/leftover names
        std::vector<std::string> vendor_dirs;  ///< shared-library directories
    };

    ProjectGraph() = default;
    ProjectGraph(ProjectGraph&&) = default;
    ProjectGraph& operator=(ProjectGraph&&) = default;

    /// Links a graph from per-file facts. Name resolution mirrors
    /// php::Project: first declaration wins for functions and classes,
    /// method names link to every class declaring them (a conservative
    /// superset — the receiver class is not re-inferred here), include
    /// paths resolve through php::IncludeIndex over the facts' file order.
    static ProjectGraph build(std::vector<FileFacts> facts);

    // -- nodes ---------------------------------------------------------------
    int file_count() const noexcept { return static_cast<int>(files_.size()); }
    std::string_view file_name(FileId id) const { return files_[static_cast<size_t>(id)].name; }
    uint64_t file_hash(FileId id) const { return files_[static_cast<size_t>(id)].hash; }
    bool file_parse_failed(FileId id) const { return files_[static_cast<size_t>(id)].parse_failed; }
    /// Refreshes a node's content hash in place — the structure-preserving
    /// edit fast path (see structure_equals): edges stay valid, only the
    /// recorded content moved.
    void set_file_hash(FileId id, uint64_t hash) {
        files_[static_cast<size_t>(id)].hash = hash;
    }
    /// Id of the exactly-named file, or kNoFile.
    FileId file_id(std::string_view name) const;

    int function_count() const noexcept { return static_cast<int>(functions_.size()); }
    std::string_view function_name(FuncId id) const { return functions_[static_cast<size_t>(id)].name; }
    /// The declaring-file link of a function node.
    FileId declaring_file(FuncId id) const { return functions_[static_cast<size_t>(id)].file; }
    /// Function nodes declared by `file`, in declaration order.
    const std::vector<FuncId>& functions_of(FileId file) const {
        return files_[static_cast<size_t>(file)].functions;
    }

    // -- edges (sorted, deduplicated, self-edges kept only for includes) -----
    const std::vector<FileId>& includes_of(FileId id) const { return files_[static_cast<size_t>(id)].includes; }
    const std::vector<FileId>& included_by(FileId id) const { return files_[static_cast<size_t>(id)].included_by; }
    const std::vector<FileId>& uses_of(FileId id) const { return files_[static_cast<size_t>(id)].uses; }
    const std::vector<FileId>& used_by(FileId id) const { return files_[static_cast<size_t>(id)].used_by; }
    int include_edge_count() const noexcept { return include_edges_; }
    int use_edge_count() const noexcept { return use_edges_; }

    // -- queries -------------------------------------------------------------
    /// The invalidated cone of an edit: every file that can transitively
    /// reach a changed file through include or use edges (i.e. whose
    /// analysis could observe the change), plus the changed files
    /// themselves. Result is sorted by id. Unknown ids are ignored.
    std::vector<FileId> dependency_cone(const std::vector<FileId>& changed) const;

    /// Analytics over the whole graph:
    ///   hubs      - the `hub_limit` most-included files (fan-in > 0),
    ///               ties broken by name.
    ///   orphans   - subdirectory files nothing includes and nothing uses:
    ///               candidates for deletion or for files the CMS reaches
    ///               directly. Top-level files and well-known entry
    ///               basenames (index.php, main.php) are assumed to be
    ///               entry points; dead/backup files are reported
    ///               separately.
    ///   cycles    - include-edge SCCs of size > 1 plus self-includes
    ///               (iterative Tarjan — deep include chains must not
    ///               recurse), each cycle and the list sorted by name.
    ///   dead      - backup/leftover names: *.bak, *~, *.old, *.orig and
    ///               "copy of" prefixes. Shipped backups of PHP files are
    ///               a real plugin-audit finding — servers execute them.
    ///   vendor    - top-level directories that look like shared
    ///               libraries: a known-name set (vendor/, framework/,
    ///               lib/, ...) plus any directory included from three or
    ///               more other top-level directories.
    Analytics analyze(int hub_limit = 5) const;

    // -- serialization -------------------------------------------------------
    /// Compact JSON: nodes with names/hashes, edges as [from,to] id pairs
    /// (the NDJSON `graph` op's `detail`).
    std::string to_json() const;

private:
    struct FileNode {
        std::string_view name;  ///< interned in names_
        uint64_t hash = 0;
        bool parse_failed = false;
        std::vector<FuncId> functions;
        std::vector<FileId> includes;
        std::vector<FileId> included_by;
        std::vector<FileId> uses;
        std::vector<FileId> used_by;
    };
    struct FuncNode {
        std::string_view name;  ///< interned in names_
        FileId file = kNoFile;
    };

    std::string_view intern(std::string_view s);
    /// Rebuilds file_index_ over the file nodes' names.
    void index_files();
    void finish_edges();

    Arena names_;  ///< backs every node name; nodes hold views
    std::vector<FileNode> files_;
    std::vector<FuncNode> functions_;
    php::IncludeIndex file_index_;  ///< over node names, in id order
    int include_edges_ = 0;
    int use_edges_ = 0;
};

/// Extracts facts for every file of a parsed project and links the graph.
ProjectGraph build_project_graph(const php::Project& project);

/// Renders analyze() output as one compact JSON object (the payload of the
/// NDJSON "graph" response; also used by bench_graph). Ids are rendered as
/// file names so the output is stable across id assignment.
std::string render_graph_analytics(const ProjectGraph& g,
                                   const ProjectGraph::Analytics& a);

}  // namespace phpsafe::graph
