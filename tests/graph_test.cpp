// ProjectGraph tests: fact extraction, include/use linking, analytics
// (hubs, orphans, cycles, dead files, vendor dirs) on hand-built graphs,
// the dependency cone against a brute-force reverse closure, JSON
// round-tripping, and the monorepo generator's structural ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "corpus/generator.h"
#include "graph/project_graph.h"
#include "php/project.h"
#include "util/diagnostics.h"

namespace phpsafe::graph {
namespace {

FileFacts facts(std::string name) {
    FileFacts f;
    f.name = std::move(name);
    f.content_hash = 0x1234;
    return f;
}

std::string name_of(const ProjectGraph& g, ProjectGraph::FileId id) {
    return std::string(g.file_name(id));
}

std::vector<std::string> names_of(const ProjectGraph& g,
                                  const std::vector<ProjectGraph::FileId>& ids) {
    std::vector<std::string> names;
    for (const auto id : ids) names.push_back(name_of(g, id));
    return names;
}

TEST(FileFactsTest, ExtractsDeclarationsCallsAndIncludes) {
    php::Project project("facts");
    project.add_file("a.php",
                     "<?php\n"
                     "include 'lib/b.php';\n"
                     "require_once dirname(__FILE__) . '/inc/c.php';\n"
                     "function top_level($x) { return other_fn($x); }\n"
                     "class Widget extends Base {\n"
                     "  function render() { $this->helper(); }\n"
                     "}\n"
                     "$w = new Widget();\n"
                     "Widget::boot();\n");
    DiagnosticSink sink;
    project.parse_all(sink);
    ASSERT_EQ(project.files().size(), 1u);

    const FileFacts f = extract_file_facts(*project.files().front());
    EXPECT_EQ(f.name, "a.php");
    // Path order is walk order, not source order — edges get sorted anyway.
    std::vector<std::string> paths = f.include_paths;
    std::sort(paths.begin(), paths.end());
    // The concat idiom keeps its trailing literal for suffix resolution.
    EXPECT_EQ(paths, (std::vector<std::string>{"/inc/c.php", "lib/b.php"}));
    EXPECT_EQ(f.declared_functions,
              (std::vector<std::string>{"top_level"}));
    EXPECT_EQ(f.declared_classes, (std::vector<std::string>{"widget"}));
    EXPECT_EQ(f.declared_methods,
              (std::vector<std::string>{"widget::render"}));
    EXPECT_TRUE(std::count(f.called_functions.begin(),
                           f.called_functions.end(), "other_fn"));
    EXPECT_TRUE(std::count(f.called_methods.begin(), f.called_methods.end(),
                           "helper"));
    // new + extends + static call all count as class uses.
    EXPECT_TRUE(std::count(f.used_classes.begin(), f.used_classes.end(),
                           "widget"));
    EXPECT_TRUE(std::count(f.used_classes.begin(), f.used_classes.end(),
                           "base"));
}

TEST(ProjectGraphTest, LinksIncludeAndUseEdges) {
    FileFacts a = facts("main.php");
    a.include_paths = {"lib/util.php"};
    a.called_functions = {"helper"};
    FileFacts b = facts("lib/util.php");
    b.declared_functions = {"helper"};

    ProjectGraph g = ProjectGraph::build({a, b});
    ASSERT_EQ(g.file_count(), 2);
    const auto main_id = g.file_id("main.php");
    const auto util_id = g.file_id("lib/util.php");
    ASSERT_NE(main_id, ProjectGraph::kNoFile);
    ASSERT_NE(util_id, ProjectGraph::kNoFile);

    EXPECT_EQ(g.includes_of(main_id),
              (std::vector<ProjectGraph::FileId>{util_id}));
    EXPECT_EQ(g.included_by(util_id),
              (std::vector<ProjectGraph::FileId>{main_id}));
    EXPECT_EQ(g.uses_of(main_id),
              (std::vector<ProjectGraph::FileId>{util_id}));
    EXPECT_EQ(g.used_by(util_id),
              (std::vector<ProjectGraph::FileId>{main_id}));
    EXPECT_EQ(g.include_edge_count(), 1);
    EXPECT_EQ(g.use_edge_count(), 1);

    ASSERT_EQ(g.function_count(), 1);
    EXPECT_EQ(g.function_name(0), "helper");
    EXPECT_EQ(g.declaring_file(0), util_id);
    EXPECT_EQ(g.functions_of(util_id), (std::vector<ProjectGraph::FuncId>{0}));
}

TEST(ProjectGraphTest, IncludeResolutionExactThenSuffixThenBasename) {
    FileFacts a = facts("a.php");
    a.include_paths = {"sub/x.php", "/deep/y.php", "z.php"};
    ProjectGraph g = ProjectGraph::build(
        {a, facts("sub/x.php"), facts("nested/deep/y.php"),
         facts("elsewhere/z.php")});
    const auto edges = names_of(g, g.includes_of(g.file_id("a.php")));
    EXPECT_TRUE(std::count(edges.begin(), edges.end(), "sub/x.php"));
    EXPECT_TRUE(std::count(edges.begin(), edges.end(), "nested/deep/y.php"));
    EXPECT_TRUE(std::count(edges.begin(), edges.end(), "elsewhere/z.php"));
}

TEST(ProjectGraphTest, SuffixMatchRespectsSegmentBoundary) {
    FileFacts a = facts("a.php");
    a.include_paths = {"b.php"};
    // "ab.php" ends with "b.php" but is NOT a path-segment match; the
    // basename fallback must pick the real b.php.
    ProjectGraph g = ProjectGraph::build({a, facts("ab.php"),
                                          facts("lib/b.php")});
    const auto edges = names_of(g, g.includes_of(g.file_id("a.php")));
    EXPECT_EQ(edges, (std::vector<std::string>{"lib/b.php"}));
}

TEST(ProjectGraphTest, ProjectAndGraphAgreeOnSegmentBoundary) {
    // `include "b.php"` inside f() must load x/b.php, never ab.php (which
    // would echo f()'s tainted $x).
    php::Project project("boundary");
    project.add_file("main.php",
                     "<?php function f() { $x = $_GET[\"q\"]; include \"b.php\"; } f();");
    project.add_file("ab.php", "<?php echo $x;");
    project.add_file("x/b.php", "<?php echo \"hi\";");
    DiagnosticSink sink;
    project.parse_all(sink);

    const php::ParsedFile* resolved = project.resolve_include("b.php");
    ASSERT_NE(resolved, nullptr);
    EXPECT_EQ(resolved->source->name(), "x/b.php");
    const ProjectGraph g = build_project_graph(project);
    EXPECT_EQ(names_of(g, g.includes_of(g.file_id("main.php"))),
              (std::vector<std::string>{"x/b.php"}));
    for (const Finding& f : Analyzer().scan(project).result.findings)
        EXPECT_NE(f.location.file, "ab.php") << to_string(f);
}

TEST(ProjectGraphTest, AnalyticsHubsOrphansDeadVendor) {
    FileFacts hub = facts("vendor/core.php");
    hub.declared_functions = {"core_fn"};
    FileFacts m1 = facts("one/main.php");
    m1.include_paths = {"vendor/core.php"};
    FileFacts m2 = facts("two/main.php");
    m2.include_paths = {"vendor/core.php"};
    FileFacts orphan = facts("one/unused/extra.php");
    FileFacts entry = facts("three/main.php");  // entry basename: not orphan
    FileFacts dead = facts("one/main.php.bak");
    FileFacts top = facts("index.php");  // top-level: not an orphan

    ProjectGraph g = ProjectGraph::build(
        {hub, m1, m2, orphan, entry, dead, top});
    const ProjectGraph::Analytics a = g.analyze();

    ASSERT_FALSE(a.hubs.empty());
    EXPECT_EQ(name_of(g, a.hubs.front().file), "vendor/core.php");
    EXPECT_EQ(a.hubs.front().fan_in, 2);
    EXPECT_EQ(names_of(g, a.orphans),
              (std::vector<std::string>{"one/unused/extra.php"}));
    EXPECT_EQ(names_of(g, a.dead_files),
              (std::vector<std::string>{"one/main.php.bak"}));
    EXPECT_EQ(a.vendor_dirs, (std::vector<std::string>{"vendor"}));
    EXPECT_TRUE(a.cycles.empty());
}

TEST(ProjectGraphTest, TarjanFindsCyclesAndSelfLoops) {
    FileFacts a = facts("cyc/a.php");
    a.include_paths = {"cyc/b.php"};
    FileFacts b = facts("cyc/b.php");
    b.include_paths = {"cyc/c.php"};
    FileFacts c = facts("cyc/c.php");
    c.include_paths = {"cyc/a.php"};
    FileFacts self = facts("self.php");
    self.include_paths = {"self.php"};
    FileFacts line = facts("straight.php");
    line.include_paths = {"cyc/a.php"};

    ProjectGraph g = ProjectGraph::build({a, b, c, self, line});
    const ProjectGraph::Analytics out = g.analyze();
    ASSERT_EQ(out.cycles.size(), 2u);
    EXPECT_EQ(names_of(g, out.cycles[0]),
              (std::vector<std::string>{"cyc/a.php", "cyc/b.php",
                                        "cyc/c.php"}));
    EXPECT_EQ(names_of(g, out.cycles[1]),
              (std::vector<std::string>{"self.php"}));
}

TEST(ProjectGraphTest, DeepChainDoesNotOverflow) {
    // 20k-deep include chain: the iterative Tarjan must not recurse.
    std::vector<FileFacts> chain;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FileFacts f = facts("chain/f" + std::to_string(i) + ".php");
        if (i + 1 < n)
            f.include_paths = {"chain/f" + std::to_string(i + 1) + ".php"};
        chain.push_back(std::move(f));
    }
    ProjectGraph g = ProjectGraph::build(std::move(chain));
    EXPECT_TRUE(g.analyze().cycles.empty());
    EXPECT_EQ(static_cast<int>(g.dependency_cone({g.file_id(
                  "chain/f" + std::to_string(n - 1) + ".php")}).size()),
              n);
}

/// Brute-force reverse closure over include + use edges.
std::vector<ProjectGraph::FileId> brute_force_cone(
    const ProjectGraph& g, const std::vector<ProjectGraph::FileId>& changed) {
    std::set<ProjectGraph::FileId> cone(changed.begin(), changed.end());
    bool grew = true;
    while (grew) {
        grew = false;
        for (int i = 0; i < g.file_count(); ++i) {
            const auto id = static_cast<ProjectGraph::FileId>(i);
            if (cone.count(id)) continue;
            bool reaches = false;
            for (const auto to : g.includes_of(id))
                if (cone.count(to)) reaches = true;
            for (const auto to : g.uses_of(id))
                if (cone.count(to)) reaches = true;
            if (reaches) {
                cone.insert(id);
                grew = true;
            }
        }
    }
    return {cone.begin(), cone.end()};
}

TEST(ProjectGraphTest, ConeMatchesBruteForceClosure) {
    // A messy little graph: chains, a diamond, a cycle, an island.
    std::vector<FileFacts> all;
    auto mk = [&](const char* name, std::vector<std::string> inc,
                  std::vector<std::string> calls,
                  std::vector<std::string> decls) {
        FileFacts f = facts(name);
        f.include_paths = std::move(inc);
        f.called_functions = std::move(calls);
        f.declared_functions = std::move(decls);
        all.push_back(std::move(f));
    };
    mk("a.php", {"b.php", "c.php"}, {}, {});
    mk("b.php", {"d.php"}, {"util"}, {});
    mk("c.php", {"d.php"}, {}, {});
    mk("d.php", {}, {}, {"util"});
    mk("e.php", {"f.php"}, {}, {});
    mk("f.php", {"e.php"}, {}, {});
    mk("island.php", {}, {}, {});

    ProjectGraph g = ProjectGraph::build(all);
    for (int i = 0; i < g.file_count(); ++i) {
        const std::vector<ProjectGraph::FileId> changed = {
            static_cast<ProjectGraph::FileId>(i)};
        EXPECT_EQ(g.dependency_cone(changed), brute_force_cone(g, changed))
            << "cone of " << name_of(g, changed[0]);
    }
    // Multi-seed cones too.
    const std::vector<ProjectGraph::FileId> pair = {g.file_id("d.php"),
                                                    g.file_id("island.php")};
    EXPECT_EQ(g.dependency_cone(pair), brute_force_cone(g, pair));
}

TEST(ProjectGraphTest, JsonCarriesEachFileHashAndParseFailedFlag) {
    FileFacts a = facts("main.php");
    a.include_paths = {"lib/util.php"};
    a.called_functions = {"helper"};
    a.parse_failed = true;
    FileFacts b = facts("lib/util.php");
    b.content_hash = 0xdeadbeefcafef00dULL;
    b.declared_functions = {"helper", "other"};

    const std::string json = ProjectGraph::build({a, b}).to_json();
    EXPECT_NE(json.find(R"({"name":"main.php","hash":"0000000000001234",)"
                        R"("failed":true})"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find(R"({"name":"lib/util.php","hash":"deadbeefcafef00d",)"
                        R"("failed":false})"),
              std::string::npos)
        << json;
}

TEST(ProjectGraphTest, BuildFromParsedProject) {
    php::Project project("demo");
    project.add_file("main.php",
                     "<?php include 'lib.php'; echo fmt($_GET['q']);");
    project.add_file("lib.php",
                     "<?php function fmt($x) { return htmlentities($x); }");
    DiagnosticSink sink;
    project.parse_all(sink);

    const ProjectGraph g = build_project_graph(project);
    ASSERT_EQ(g.file_count(), 2);
    const auto main_id = g.file_id("main.php");
    const auto lib_id = g.file_id("lib.php");
    EXPECT_EQ(g.includes_of(main_id),
              (std::vector<ProjectGraph::FileId>{lib_id}));
    EXPECT_EQ(g.uses_of(main_id), (std::vector<ProjectGraph::FileId>{lib_id}));
}

TEST(MonorepoTest, DeterministicAndScaled) {
    corpus::MonorepoOptions options;
    options.scale = 0.125;  // 4 plugins
    const corpus::MonorepoSource one = corpus::generate_monorepo(options);
    const corpus::MonorepoSource two = corpus::generate_monorepo(options);
    ASSERT_EQ(one.files.size(), two.files.size());
    for (size_t i = 0; i < one.files.size(); ++i) {
        EXPECT_EQ(one.files[i].first, two.files[i].first);
        EXPECT_EQ(one.files[i].second, two.files[i].second);
    }
    EXPECT_TRUE(std::is_sorted(one.files.begin(), one.files.end()));

    // files = plugins * files_per_plugin + framework (libs + core + cycle
    // + orphans) + 2 backups.
    const int plugins = 4;
    const int framework = 6 + 1 + 3 + 2;
    EXPECT_EQ(static_cast<int>(one.files.size()),
              plugins * options.files_per_plugin + framework + 2);
    EXPECT_FALSE(one.seeded_vulns.empty());

    const corpus::MonorepoSource big =
        corpus::generate_monorepo({1.0, 40, 2015});
    EXPECT_GT(big.files.size(), one.files.size());
}

TEST(MonorepoTest, GraphAnalyticsRecoverGroundTruth) {
    corpus::MonorepoOptions options;
    options.scale = 0.125;
    const corpus::MonorepoSource repo = corpus::generate_monorepo(options);

    std::vector<FileFacts> all;
    php::Project project("monorepo");
    for (const auto& [name, text] : repo.files) project.add_file(name, text);
    DiagnosticSink sink;
    project.parse_all(sink);
    ProjectGraph g = build_project_graph(project);
    const ProjectGraph::Analytics a = g.analyze();

    EXPECT_EQ(names_of(g, a.orphans), repo.truth.orphan_files);
    EXPECT_EQ(names_of(g, a.dead_files), repo.truth.backup_files);
    EXPECT_EQ(a.vendor_dirs, repo.truth.vendor_dirs);
    ASSERT_EQ(a.cycles.size(), repo.truth.include_cycles.size());
    for (size_t i = 0; i < a.cycles.size(); ++i)
        EXPECT_EQ(names_of(g, a.cycles[i]), repo.truth.include_cycles[i]);
    ASSERT_FALSE(a.hubs.empty());
    EXPECT_EQ(name_of(g, a.hubs.front().file), repo.truth.hub_files.front());

    // The hub is included by every plugin main plus the shipped backup.
    EXPECT_EQ(a.hubs.front().fan_in, 4 + 1);

    // Seeded vulns point at real files.
    for (const corpus::SeededVuln& vuln : repo.seeded_vulns)
        EXPECT_NE(g.file_id(vuln.file), ProjectGraph::kNoFile) << vuln.file;
}

TEST(MonorepoTest, ConeOfLeafPartIsSmall) {
    corpus::MonorepoOptions options;
    options.scale = 0.125;
    const corpus::MonorepoSource repo = corpus::generate_monorepo(options);
    php::Project project("monorepo");
    for (const auto& [name, text] : repo.files) project.add_file(name, text);
    DiagnosticSink sink;
    project.parse_all(sink);
    ProjectGraph g = build_project_graph(project);

    // Editing one plugin part invalidates only that part and its main —
    // the cost bound the watch mode exploits.
    const auto part = g.file_id("plugin-001/inc/part-5.php");
    ASSERT_NE(part, ProjectGraph::kNoFile);
    const auto cone = g.dependency_cone({part});
    EXPECT_EQ(names_of(g, cone),
              (std::vector<std::string>{"plugin-001/inc/part-5.php",
                                        "plugin-001/main.php"}));

    // Editing a framework library invalidates a framework-wide cone.
    const auto lib = g.file_id("framework/lib-0.php");
    EXPECT_GT(g.dependency_cone({lib}).size(), cone.size());
}

}  // namespace
}  // namespace phpsafe::graph
