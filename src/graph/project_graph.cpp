#include "graph/project_graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "util/json_writer.h"
#include "util/strings.h"

namespace phpsafe::graph {

namespace {

void sort_unique(std::vector<std::string>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

void sort_unique_ids(std::vector<ProjectGraph::FileId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

std::string_view basename_of(std::string_view path) {
    const size_t slash = path.rfind('/');
    return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

std::string_view top_dir_of(std::string_view path) {
    const size_t slash = path.find('/');
    return slash == std::string_view::npos ? std::string_view() : path.substr(0, slash);
}

std::string hex64(uint64_t value) {
    char buf[17];
    for (int i = 15; i >= 0; --i) {
        buf[i] = "0123456789abcdef"[value & 0xf];
        value >>= 4;
    }
    buf[16] = '\0';
    return std::string(buf);
}

/// Backup/leftover file names an audit should flag: shipped backups of PHP
/// files are live code on a real server.
bool is_dead_name(std::string_view name) {
    if (ends_with(name, "~") || ends_with(name, ".bak") ||
        ends_with(name, ".old") || ends_with(name, ".orig"))
        return true;
    const std::string_view base = basename_of(name);
    return base.size() >= 8 && iequals(base.substr(0, 8), "copy of ");
}

constexpr std::string_view kVendorDirNames[] = {
    "external", "framework", "lib", "libs", "node_modules",
    "third-party", "thirdparty", "vendor",
};

}  // namespace

FileFacts extract_file_facts(const php::ParsedFile& file) {
    FileFacts facts;
    facts.name = file.unit.file_name;
    facts.content_hash = file.content_hash;
    facts.parse_failed = file.parse_failed;
    const php::FactsBlock& block = file.facts;
    for (const php::FunctionDecl* fn : block.functions)
        if (!fn->name.empty())
            facts.declared_functions.push_back(ascii_lower(fn->name));
    for (const php::ClassDecl* cls : block.classes) {
        if (cls->name.empty()) continue;
        const std::string class_lower = ascii_lower(cls->name);
        facts.declared_classes.push_back(class_lower);
        for (const php::FunctionDecl* method : cls->methods)
            if (method && !method->name.empty())
                facts.declared_methods.push_back(class_lower + "::" +
                                                 ascii_lower(method->name));
    }
    // The block's name lists are already folded, sorted and unique.
    const auto copy = [](std::span<const std::string_view> from,
                         std::vector<std::string>& to) {
        to.reserve(from.size());
        for (const std::string_view name : from)
            if (!name.empty()) to.emplace_back(name);
    };
    copy(block.called_functions, facts.called_functions);
    copy(block.called_methods, facts.called_methods);
    copy(block.used_classes, facts.used_classes);
    copy(block.include_paths, facts.include_paths);
    sort_unique(facts.declared_functions);
    sort_unique(facts.declared_classes);
    sort_unique(facts.declared_methods);
    return facts;
}

bool structure_equals(const FileFacts& a, const FileFacts& b) {
    return a.name == b.name && a.parse_failed == b.parse_failed &&
           a.declared_functions == b.declared_functions &&
           a.declared_classes == b.declared_classes &&
           a.declared_methods == b.declared_methods &&
           a.called_functions == b.called_functions &&
           a.called_methods == b.called_methods &&
           a.used_classes == b.used_classes &&
           a.include_paths == b.include_paths;
}

std::string_view ProjectGraph::intern(std::string_view s) {
    return names_.store(s);
}

ProjectGraph::FileId ProjectGraph::file_id(std::string_view name) const {
    const size_t pos = file_index_.find(name);
    return pos == php::IncludeIndex::npos ? kNoFile : static_cast<FileId>(pos);
}

void ProjectGraph::index_files() {
    std::vector<std::string_view> names;
    names.reserve(files_.size());
    for (const FileNode& node : files_) names.push_back(node.name);
    file_index_ = php::IncludeIndex(names);
}

void ProjectGraph::finish_edges() {
    include_edges_ = 0;
    use_edges_ = 0;
    for (FileNode& node : files_) {
        sort_unique_ids(node.includes);
        sort_unique_ids(node.uses);
        node.included_by.clear();
        node.used_by.clear();
    }
    for (size_t from = 0; from < files_.size(); ++from) {
        for (const FileId to : files_[from].includes)
            files_[static_cast<size_t>(to)].included_by.push_back(
                static_cast<FileId>(from));
        for (const FileId to : files_[from].uses)
            files_[static_cast<size_t>(to)].used_by.push_back(
                static_cast<FileId>(from));
        include_edges_ += static_cast<int>(files_[from].includes.size());
        use_edges_ += static_cast<int>(files_[from].uses.size());
    }
}

ProjectGraph ProjectGraph::build(std::vector<FileFacts> facts) {
    ProjectGraph g;
    g.files_.reserve(facts.size());

    // Pass 1: file nodes + declaration indexes. First declaration wins for
    // functions and classes (php::Project keeps the first emplace); method
    // names index every declaring file.
    std::map<std::string_view, FileId> function_file;
    std::map<std::string_view, FileId> class_file;
    std::map<std::string_view, std::vector<FileId>> method_files;
    for (const FileFacts& f : facts) {
        const FileId id = static_cast<FileId>(g.files_.size());
        FileNode node;
        node.name = g.intern(f.name);
        node.hash = f.content_hash;
        node.parse_failed = f.parse_failed;
        g.files_.push_back(std::move(node));

        for (const std::string& fn : f.declared_functions) {
            const FuncId fid = static_cast<FuncId>(g.functions_.size());
            g.functions_.push_back({g.intern(fn), id});
            g.files_.back().functions.push_back(fid);
            function_file.emplace(g.functions_.back().name, id);
        }
        for (const std::string& cls : f.declared_classes)
            class_file.emplace(g.intern(cls), id);
        for (const std::string& qualified : f.declared_methods) {
            const FuncId fid = static_cast<FuncId>(g.functions_.size());
            g.functions_.push_back({g.intern(qualified), id});
            g.files_.back().functions.push_back(fid);
            const size_t sep = qualified.find("::");
            if (sep != std::string::npos)
                method_files[g.functions_.back().name.substr(sep + 2)]
                    .push_back(id);
        }
    }

    // Pass 2: edges. Include paths resolve through the same index
    // php::Project::resolve_include uses.
    g.index_files();
    for (size_t i = 0; i < facts.size(); ++i) {
        const FileId from = static_cast<FileId>(i);
        FileNode& node = g.files_[i];
        for (const std::string& path : facts[i].include_paths) {
            const size_t to = g.file_index_.resolve(path);
            if (to != php::IncludeIndex::npos)
                node.includes.push_back(static_cast<FileId>(to));
        }
        const auto link_use = [&](const FileId to) {
            if (to != kNoFile && to != from) node.uses.push_back(to);
        };
        for (const std::string& fn : facts[i].called_functions) {
            const auto it = function_file.find(fn);
            if (it != function_file.end()) link_use(it->second);
        }
        for (const std::string& method : facts[i].called_methods) {
            const auto it = method_files.find(method);
            if (it == method_files.end()) continue;
            for (const FileId to : it->second) link_use(to);
        }
        for (const std::string& cls : facts[i].used_classes) {
            const auto it = class_file.find(cls);
            if (it != class_file.end()) link_use(it->second);
        }
    }

    g.finish_edges();
    return g;
}

std::vector<ProjectGraph::FileId> ProjectGraph::dependency_cone(
    const std::vector<FileId>& changed) const {
    std::vector<bool> in_cone(files_.size(), false);
    std::vector<FileId> frontier;
    for (const FileId id : changed) {
        if (id < 0 || static_cast<size_t>(id) >= files_.size()) continue;
        if (in_cone[static_cast<size_t>(id)]) continue;
        in_cone[static_cast<size_t>(id)] = true;
        frontier.push_back(id);
    }
    while (!frontier.empty()) {
        const FileId id = frontier.back();
        frontier.pop_back();
        const FileNode& node = files_[static_cast<size_t>(id)];
        for (const std::vector<FileId>* reverse :
             {&node.included_by, &node.used_by}) {
            for (const FileId dependent : *reverse) {
                if (in_cone[static_cast<size_t>(dependent)]) continue;
                in_cone[static_cast<size_t>(dependent)] = true;
                frontier.push_back(dependent);
            }
        }
    }
    std::vector<FileId> cone;
    for (size_t i = 0; i < in_cone.size(); ++i)
        if (in_cone[i]) cone.push_back(static_cast<FileId>(i));
    return cone;
}

ProjectGraph::Analytics ProjectGraph::analyze(int hub_limit) const {
    Analytics a;
    const size_t n = files_.size();
    const auto name_less = [this](FileId lhs, FileId rhs) {
        return file_name(lhs) < file_name(rhs);
    };

    // Hubs: top fan-in, name tie-break.
    std::vector<Hub> ranked;
    for (size_t i = 0; i < n; ++i) {
        const int fan_in = static_cast<int>(files_[i].included_by.size());
        if (fan_in > 0) ranked.push_back({static_cast<FileId>(i), fan_in});
    }
    std::sort(ranked.begin(), ranked.end(), [&](const Hub& lhs, const Hub& rhs) {
        if (lhs.fan_in != rhs.fan_in) return lhs.fan_in > rhs.fan_in;
        return name_less(lhs.file, rhs.file);
    });
    if (hub_limit >= 0 && ranked.size() > static_cast<size_t>(hub_limit))
        ranked.resize(static_cast<size_t>(hub_limit));
    a.hubs = std::move(ranked);

    // Dead/backup files and orphans.
    for (size_t i = 0; i < n; ++i) {
        const FileNode& node = files_[i];
        if (is_dead_name(node.name)) {
            a.dead_files.push_back(static_cast<FileId>(i));
            continue;
        }
        // Top-level files and well-known entry basenames are assumed to be
        // reached by the CMS directly (WordPress loads plugin-dir/main.php
        // itself); everything else unreferenced is an orphan candidate.
        const std::string_view base = basename_of(node.name);
        const bool entry_name =
            iequals(base, "index.php") || iequals(base, "main.php");
        if (node.included_by.empty() && node.used_by.empty() &&
            node.name.find('/') != std::string_view::npos && !entry_name)
            a.orphans.push_back(static_cast<FileId>(i));
    }
    std::sort(a.dead_files.begin(), a.dead_files.end(), name_less);
    std::sort(a.orphans.begin(), a.orphans.end(), name_less);

    // Include cycles: iterative Tarjan over the include edges. SCCs of
    // size > 1 are cycles; singletons only when they self-include.
    std::vector<int> index(n, -1);
    std::vector<int> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<FileId> stack;
    struct Frame {
        FileId v;
        size_t child;
    };
    std::vector<Frame> frames;
    int next_index = 0;
    for (size_t root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        frames.push_back({static_cast<FileId>(root), 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(static_cast<FileId>(root));
        on_stack[root] = true;
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const auto& out = files_[static_cast<size_t>(frame.v)].includes;
            if (frame.child < out.size()) {
                const FileId w = out[frame.child++];
                const size_t wi = static_cast<size_t>(w);
                if (index[wi] == -1) {
                    index[wi] = lowlink[wi] = next_index++;
                    stack.push_back(w);
                    on_stack[wi] = true;
                    frames.push_back({w, 0});
                } else if (on_stack[wi]) {
                    lowlink[static_cast<size_t>(frame.v)] =
                        std::min(lowlink[static_cast<size_t>(frame.v)], index[wi]);
                }
                continue;
            }
            const FileId v = frame.v;
            const size_t vi = static_cast<size_t>(v);
            frames.pop_back();
            if (lowlink[vi] == index[vi]) {
                std::vector<FileId> scc;
                for (;;) {
                    const FileId w = stack.back();
                    stack.pop_back();
                    on_stack[static_cast<size_t>(w)] = false;
                    scc.push_back(w);
                    if (w == v) break;
                }
                const auto& self = files_[vi].includes;
                const bool self_loop =
                    scc.size() == 1 &&
                    std::binary_search(self.begin(), self.end(), v);
                if (scc.size() > 1 || self_loop) {
                    std::sort(scc.begin(), scc.end(), name_less);
                    a.cycles.push_back(std::move(scc));
                }
            }
            if (!frames.empty())
                lowlink[static_cast<size_t>(frames.back().v)] = std::min(
                    lowlink[static_cast<size_t>(frames.back().v)], lowlink[vi]);
        }
    }
    std::sort(a.cycles.begin(), a.cycles.end(),
              [&](const std::vector<FileId>& lhs, const std::vector<FileId>& rhs) {
                  return file_name(lhs.front()) < file_name(rhs.front());
              });

    // Vendor directories: known shared-library names, plus any top-level
    // directory included from three or more other top-level directories.
    std::map<std::string_view, std::set<std::string_view>> include_sources;
    std::set<std::string_view> top_dirs;
    for (size_t i = 0; i < n; ++i) {
        const std::string_view from_dir = top_dir_of(files_[i].name);
        if (!from_dir.empty()) top_dirs.insert(from_dir);
        for (const FileId to : files_[i].includes) {
            const std::string_view to_dir =
                top_dir_of(files_[static_cast<size_t>(to)].name);
            if (!to_dir.empty() && to_dir != from_dir)
                include_sources[to_dir].insert(
                    from_dir.empty() ? std::string_view("<top>") : from_dir);
        }
    }
    std::set<std::string_view> vendors;
    for (const std::string_view dir : top_dirs) {
        for (const std::string_view known : kVendorDirNames)
            if (iequals(dir, known)) vendors.insert(dir);
        const auto sources = include_sources.find(dir);
        if (sources != include_sources.end() && sources->second.size() >= 3)
            vendors.insert(dir);
    }
    for (const std::string_view dir : vendors) a.vendor_dirs.emplace_back(dir);
    return a;
}

std::string ProjectGraph::to_json() const {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.key("files").begin_array();
    for (const FileNode& node : files_) {
        w.begin_object();
        w.kv("name", node.name);
        w.kv("hash", hex64(node.hash));
        w.kv("failed", node.parse_failed);
        w.end_object();
    }
    w.end_array();
    w.key("functions").begin_array();
    for (const FuncNode& fn : functions_) {
        w.begin_object();
        w.kv("name", fn.name);
        w.kv("file", fn.file);
        w.end_object();
    }
    w.end_array();
    const auto edge_array = [&](const char* key, const auto& member) {
        w.key(key).begin_array();
        for (size_t from = 0; from < files_.size(); ++from) {
            for (const FileId to : files_[from].*member) {
                w.begin_array();
                w.value(static_cast<int>(from));
                w.value(static_cast<int>(to));
                w.end_array();
            }
        }
        w.end_array();
    };
    edge_array("includes", &FileNode::includes);
    edge_array("uses", &FileNode::uses);
    w.end_object();
    return os.str();
}

ProjectGraph build_project_graph(const php::Project& project) {
    std::vector<FileFacts> facts;
    facts.reserve(project.files().size());
    for (const auto& parsed : project.files())
        if (parsed) facts.push_back(extract_file_facts(*parsed));
    return ProjectGraph::build(std::move(facts));
}

std::string render_graph_analytics(const ProjectGraph& g,
                                   const ProjectGraph::Analytics& a) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("files", g.file_count());
    w.kv("functions", g.function_count());
    w.kv("include_edges", g.include_edge_count());
    w.kv("use_edges", g.use_edge_count());
    w.key("hubs").begin_array();
    for (const ProjectGraph::Hub& hub : a.hubs) {
        w.begin_object();
        w.kv("file", g.file_name(hub.file));
        w.kv("fan_in", hub.fan_in);
        w.end_object();
    }
    w.end_array();
    const auto name_array = [&](const char* key,
                                const std::vector<ProjectGraph::FileId>& ids) {
        w.key(key).begin_array();
        for (const ProjectGraph::FileId id : ids) w.value(g.file_name(id));
        w.end_array();
    };
    name_array("orphans", a.orphans);
    w.key("cycles").begin_array();
    for (const std::vector<ProjectGraph::FileId>& cycle : a.cycles) {
        w.begin_array();
        for (const ProjectGraph::FileId id : cycle) w.value(g.file_name(id));
        w.end_array();
    }
    w.end_array();
    name_array("dead_files", a.dead_files);
    w.key("vendor_dirs").begin_array();
    for (const std::string& dir : a.vendor_dirs) w.value(dir);
    w.end_array();
    w.end_object();
    return os.str();
}

}  // namespace phpsafe::graph
