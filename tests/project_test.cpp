// Project-model tests (paper §III.B model construction): declaration
// indexing (including declarations nested in guards), called-function
// tracking, uncalled-function detection, include resolution, and the
// properties of the one include index and the single-file fork.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <random>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "obs/counters.h"
#include "php/project.h"
#include "util/strings.h"

namespace phpsafe::php {
namespace {

Project make_project(std::vector<std::pair<std::string, std::string>> files) {
    Project project("test");
    for (auto& [name, text] : files) project.add_file(name, std::move(text));
    DiagnosticSink sink;
    project.parse_all(sink);
    return project;
}

TEST(ProjectTest, IndexesTopLevelFunctions) {
    const Project p = make_project({{"a.php", "<?php function foo() {} "}});
    ASSERT_NE(p.find_function("foo"), nullptr);
    EXPECT_EQ(p.find_function("foo")->file, "a.php");
    EXPECT_EQ(p.find_function("bar"), nullptr);
}

TEST(ProjectTest, FunctionLookupCaseInsensitive) {
    const Project p = make_project({{"a.php", "<?php function MyFunc() {} "}});
    EXPECT_NE(p.find_function("myfunc"), nullptr);
    EXPECT_NE(p.find_function("MYFUNC"), nullptr);
}

TEST(ProjectTest, IndexesGuardedDeclarations) {
    // The common WordPress idiom: if (!function_exists(...)) { function ... }
    const Project p = make_project(
        {{"a.php",
          "<?php if (!function_exists('helper')) { function helper($x) "
          "{ return $x; } }"}});
    EXPECT_NE(p.find_function("helper"), nullptr);
}

TEST(ProjectTest, IndexesClassesAndMethods) {
    const Project p = make_project(
        {{"a.php",
          "<?php class Widget { public function render() {} "
          "public static function boot() {} }"}});
    ASSERT_NE(p.find_class("Widget"), nullptr);
    ASSERT_NE(p.find_method("widget", "render"), nullptr);
    EXPECT_EQ(p.find_method("widget", "render")->owner->name, "Widget");
    EXPECT_NE(p.find_method("Widget", "BOOT"), nullptr);
}

TEST(ProjectTest, MethodLookupWalksInheritance) {
    const Project p = make_project(
        {{"a.php",
          "<?php class Base { public function hello() {} }\n"
          "class Child extends Base {}"}});
    const FunctionRef* ref = p.find_method("child", "hello");
    ASSERT_NE(ref, nullptr);
    EXPECT_EQ(ref->owner->name, "Base");
}

TEST(ProjectTest, FindMethodAnyRequiresUniqueness) {
    const Project p = make_project(
        {{"a.php",
          "<?php class A { public function unique_m() {} public function dup() {} }\n"
          "class B { public function dup() {} }"}});
    EXPECT_NE(p.find_method_any("unique_m"), nullptr);
    EXPECT_EQ(p.find_method_any("dup"), nullptr);  // ambiguous
}

TEST(ProjectTest, UncalledFunctionsDetected) {
    const Project p = make_project(
        {{"a.php",
          "<?php function used() {} function unused() {} used();"}});
    const auto uncalled = p.uncalled_functions();
    ASSERT_EQ(uncalled.size(), 1u);
    EXPECT_EQ(uncalled[0].decl->name, "unused");
}

TEST(ProjectTest, HookCallbacksCountAsCalled) {
    // add_action('init', 'my_handler') keeps my_handler reachable.
    const Project p = make_project(
        {{"a.php",
          "<?php function my_handler() {} add_action('init', 'my_handler');"}});
    EXPECT_TRUE(p.uncalled_functions().empty());
}

TEST(ProjectTest, MethodsCalledAnywhereAreCalled) {
    const Project p = make_project(
        {{"a.php",
          "<?php class W { public function go() {} public function idle() {} }\n"
          "$w = new W(); $w->go();"}});
    const auto uncalled = p.uncalled_functions();
    ASSERT_EQ(uncalled.size(), 1u);
    EXPECT_EQ(uncalled[0].qualified_name(), "W::idle");
}

TEST(ProjectTest, ConstructorNotUncalled) {
    const Project p = make_project(
        {{"a.php",
          "<?php class W { public function __construct() {} }\n$w = new W();"}});
    EXPECT_TRUE(p.uncalled_functions().empty());
}

TEST(ProjectTest, IncludeResolutionByExactSuffixBasename) {
    const Project p = make_project({
        {"main.php", "<?php"},
        {"includes/helpers.php", "<?php"},
        {"admin/panel.php", "<?php"},
    });
    ASSERT_NE(p.resolve_include("includes/helpers.php"), nullptr);
    ASSERT_NE(p.resolve_include("helpers.php"), nullptr);
    EXPECT_EQ(p.resolve_include("helpers.php")->source->name(),
              "includes/helpers.php");
    ASSERT_NE(p.resolve_include("./admin/panel.php"), nullptr);
    EXPECT_EQ(p.resolve_include("missing.php"), nullptr);
    EXPECT_EQ(p.resolve_include(""), nullptr);
}

TEST(ProjectTest, TotalLines) {
    const Project p = make_project({
        {"a.php", "<?php\n$a = 1;\n"},
        {"b.php", "<?php\n$b = 2;\n$c = 3;\n"},
    });
    EXPECT_EQ(p.total_lines(), 5);
}

TEST(ProjectTest, QualifiedNames) {
    const Project p = make_project(
        {{"a.php",
          "<?php function free_fn() {} class C { public function m() {} }"}});
    EXPECT_EQ(p.find_function("free_fn")->qualified_name(), "free_fn");
    EXPECT_EQ(p.find_method("c", "m")->qualified_name(), "C::m");
}

TEST(ProjectTest, AllFunctionsListsEverything) {
    const Project p = make_project(
        {{"a.php",
          "<?php function f1() {} class C { public function m1() {} "
          "public function m2() {} }"}});
    EXPECT_EQ(p.all_functions().size(), 3u);
}

TEST(ProjectTest, OneSummarySlotPerFoldedQualifiedName) {
    const Project p = make_project(
        {{"a.php",
          "<?php if (!function_exists('h')) { function h() {} }\n"
          "class K { function Run() {} }\nfunction other() {}"},
         {"b.php",
          "<?php if (!function_exists('H')) { function H() {} }\n"
          "class k { function run() {} function more() {} }"}});
    // h/H and K::Run/k::run share a slot; other and k::more have one each.
    EXPECT_EQ(p.summary_slots(), 4u);
    std::map<std::string, uint32_t> slot_of;
    std::set<uint32_t> slots;
    for (const FunctionRef& ref : p.all_functions()) {
        const auto [it, added] =
            slot_of.emplace(ascii_lower(ref.qualified_name()), ref.summary_slot);
        EXPECT_EQ(it->second, ref.summary_slot) << ref.qualified_name();
        if (added) {
            EXPECT_TRUE(slots.insert(ref.summary_slot).second);
        }
        EXPECT_LT(ref.summary_slot, p.summary_slots());
    }
    EXPECT_EQ(slot_of.size(), 4u);
}

TEST(ProjectTest, ParseFailureFlagged) {
    Project project("bad");
    // 250+ parse errors trigger the robustness abort.
    std::string garbage = "<?php ";
    for (int i = 0; i < 300; ++i) garbage += "^^ ";
    project.add_file("bad.php", garbage);
    DiagnosticSink sink;
    project.parse_all(sink);
    ASSERT_EQ(project.files().size(), 1u);
    EXPECT_TRUE(project.files()[0]->parse_failed);
}

/// The include rule spelled out as three linear scans: exact name, then
/// suffix at a segment boundary, then basename, each in file order.
size_t brute_force_resolve(const std::vector<std::string>& names,
                           std::string_view path) {
    while (starts_with(path, "./")) path.remove_prefix(2);
    if (path.empty()) return IncludeIndex::npos;
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == path) return i;
    for (size_t i = 0; i < names.size(); ++i)
        if (ends_with_path(names[i], path)) return i;
    const auto base = [](std::string_view p) {
        const size_t slash = p.rfind('/');
        return slash == std::string_view::npos ? p : p.substr(slash + 1);
    };
    for (size_t i = 0; i < names.size(); ++i)
        if (base(names[i]) == base(path)) return i;
    return IncludeIndex::npos;
}

/// A random path over a small alphabet of segments, so duplicate names,
/// duplicate basenames and near-miss suffixes ("b.php" vs "ab.php") are
/// common; with optional "./" prefixes, a leading or trailing '/', and the
/// occasional empty path.
std::string random_path(std::mt19937& rng) {
    static const char* const kSegments[] = {"a", "b", "ab", "inc", "x",
                                            "b.php", "ab.php", "a.php", ""};
    std::uniform_int_distribution<int> pick(0, 8), depth(0, 3), coin(0, 5);
    std::string path;
    const int n = depth(rng);
    for (int i = 0; i < n; ++i) {
        if (i) path += '/';
        path += kSegments[pick(rng)];
    }
    if (coin(rng) == 0) path = "/" + path;
    if (coin(rng) == 0) path += "/";
    while (coin(rng) == 0) path = "./" + path;
    return path;
}

TEST(IncludeIndexProperty, AgreesWithBruteForceResolver) {
    std::mt19937 rng(2015);
    for (int round = 0; round < 300; ++round) {
        std::vector<std::string> names(std::uniform_int_distribution<int>(0, 12)(rng));
        for (std::string& name : names) name = random_path(rng);
        const std::vector<std::string_view> views(names.begin(), names.end());
        const IncludeIndex index(views);
        for (int probe = 0; probe < 40; ++probe) {
            const std::string path = probe < static_cast<int>(names.size())
                                         ? names[static_cast<size_t>(probe)]
                                         : random_path(rng);
            EXPECT_EQ(index.resolve(path), brute_force_resolve(names, path))
                << "path '" << path << "' round " << round;
            const auto exact = std::find(names.begin(), names.end(), path);
            EXPECT_EQ(index.find(path),
                      exact == names.end()
                          ? IncludeIndex::npos
                          : static_cast<size_t>(exact - names.begin()))
                << "name '" << path << "' round " << round;
        }
    }
}

TEST(IncludeIndexProperty, ProjectResolvesThroughTheIndex) {
    std::mt19937 rng(7);
    for (int round = 0; round < 40; ++round) {
        std::vector<std::string> names(std::uniform_int_distribution<int>(1, 8)(rng));
        for (std::string& name : names) name = random_path(rng);
        Project project("paths");
        for (const std::string& name : names) project.add_file(name, "<?php");
        DiagnosticSink sink;
        project.parse_all(sink);
        for (int probe = 0; probe < 20; ++probe) {
            const std::string path = random_path(rng);
            const size_t want = brute_force_resolve(names, path);
            EXPECT_EQ(project.resolve_include(path),
                      want == IncludeIndex::npos ? nullptr
                                                 : project.files()[want].get())
                << "path '" << path << "'";
        }
    }
}

/// Whether `ref` points into the AST the project holds for `ref.file`. A
/// fork answering with the replaced file's old nodes would still render the
/// same names and lines, so the pointers are checked instead.
bool is_current(const Project& p, const FunctionRef& ref) {
    const ParsedFile* file = p.file_named(ref.file);
    if (!file) return false;
    for (const ClassDecl* cls : file->facts.classes)
        for (const FunctionDecl* method : cls->methods)
            if (method == ref.decl) return ref.owner == cls;
    return std::ranges::find(file->facts.functions, ref.decl) !=
           file->facts.functions.end();
}

bool is_current(const Project& p, const ClassDecl* cls, std::string_view file) {
    const ParsedFile* parsed = p.file_named(file);
    return parsed && std::ranges::find(parsed->facts.classes, cls) !=
                         parsed->facts.classes.end();
}

/// Everything a consumer can observe of a project's tables, rendered with
/// declaration lines and files (node pointers differ between two parses),
/// and marked where a lookup answers with a node of a replaced AST.
std::vector<std::string> observe(const Project& p) {
    std::vector<std::string> out;
    const auto where = [&p](const FunctionRef* ref) {
        return ref ? ref->qualified_name() + "@" + std::string(ref->file) + ":" +
                         std::to_string(ref->decl->line) + " #" +
                         std::to_string(ref->summary_slot) +
                         (is_current(p, *ref) ? "" : " (stale)")
                   : std::string("-");
    };
    for (const FunctionRef& ref : p.all_functions()) {
        out.push_back("fn " + where(&ref));
        if (ref.owner) {
            out.push_back("  find_method " +
                          where(p.find_method(ref.owner->name, ref.decl->name)));
            out.push_back("  find_method_any " +
                          where(p.find_method_any(ref.decl->name)));
            const ClassDecl* cls = p.find_class(ref.owner->name);
            const std::string& in = p.file_of_class(ref.owner->name);
            out.push_back("  find_class " +
                          (cls ? std::string(cls->name) + ":" +
                                     std::to_string(cls->line) +
                                     (is_current(p, cls, in) ? "" : " (stale)")
                               : std::string("-")) +
                          " in " + in);
        } else {
            out.push_back("  find_function " +
                          where(p.find_function(ref.decl->name)));
        }
    }
    out.push_back("summary slots " + std::to_string(p.summary_slots()));
    for (const FunctionRef& ref : p.uncalled_functions())
        out.push_back("uncalled " + where(&ref));
    for (const std::string_view name : p.called_function_names())
        out.push_back("called " + std::string(name));
    for (const std::string_view name : p.called_method_names())
        out.push_back("called method " + std::string(name));
    for (const auto& file : p.files()) {
        const std::string& name = file->unit.file_name;
        out.push_back("file " + name);
        // Each declaration the file contributes, with the file its lookup
        // resolves to.
        for (const ClassDecl* cls : file->facts.classes)
            out.push_back("  class " + std::string(cls->name) + " in " +
                          p.file_of_class(cls->name));
        for (const FunctionRef& ref : p.all_functions()) {
            if (ref.file != name) continue;
            const FunctionRef* found =
                ref.owner ? p.find_method(ref.owner->name, ref.decl->name)
                          : p.find_function(ref.decl->name);
            out.push_back("  declares " + ref.qualified_name() + " in " +
                          (found ? std::string(found->file) : std::string("-")));
        }
        for (const std::string_view path : file->facts.include_paths) {
            const ParsedFile* to = p.resolve_include(path);
            out.push_back("  include " + std::string(path) + " -> " +
                          (to ? to->unit.file_name : std::string("-")));
        }
    }
    return out;
}

TEST(ForkProperty, ForkEqualsFreshBuildOfThePatchedSet) {
    corpus::CorpusOptions options;
    options.scale = 0.3;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    // A prepended block that adds a function and a class (extending a
    // corpus-style base name) and calls into both.
    const std::string added =
        "<?php function phpsafe_added($v) { return trim($v); }\n"
        "class Phpsafe_Added extends WP_Widget { function render() "
        "{ echo phpsafe_added('x'); } }\n"
        "$w = new Phpsafe_Added(); $w->render(); ?>";
    int forks = 0;
    for (size_t i = 0; i < corpus.plugins.size(); i += 6) {
        const corpus::GeneratedPlugin& plugin = corpus.plugins[i];
        for (const corpus::PluginVersionSource* version :
             {&plugin.v2012, &plugin.v2014}) {
            Project base(plugin.name);
            for (const auto& [name, text] : version->files)
                base.add_file(name, text);
            DiagnosticSink sink;
            base.parse_all(sink);
            for (size_t f = 0; f < version->files.size(); ++f) {
                const auto& [name, text] = version->files[f];
                for (const std::string& patched : {text, added + text}) {
                    DiagnosticSink fork_sink;
                    const std::optional<Project> fork =
                        base.fork_with_replacements({{name, patched, nullptr}}, fork_sink);
                    ASSERT_TRUE(fork.has_value()) << name;
                    Project fresh(plugin.name);
                    for (size_t g = 0; g < version->files.size(); ++g)
                        fresh.add_file(version->files[g].first,
                                       g == f ? patched
                                              : version->files[g].second);
                    DiagnosticSink fresh_sink;
                    fresh.parse_all(fresh_sink);
                    EXPECT_EQ(observe(*fork), observe(fresh))
                        << plugin.name << " " << version->version << " "
                        << name << (patched == text ? " (same text)" : " (added)");
                    ++forks;
                }
            }
        }
    }
    EXPECT_GT(forks, 20);
}

using Files = std::vector<std::pair<std::string, std::string>>;

Project fresh_build(const std::string& name, const Files& files) {
    Project fresh(name);
    for (const auto& [file, text] : files) fresh.add_file(file, text);
    DiagnosticSink sink;
    fresh.parse_all(sink);
    return fresh;
}

/// `text` with `call` inserted right after its opening tag: a one-line
/// edit that keeps every line number and every declaration.
std::optional<std::string> with_call(const std::string& text,
                                     const std::string& call) {
    const size_t open = text.find("<?php");
    if (open == std::string::npos) return std::nullopt;
    std::string out = text;
    out.insert(open + 5, " " + call + ";");
    return out;
}

/// The corpus versions the exactness cases below fork.
std::vector<std::pair<std::string, Files>> fork_cases() {
    corpus::CorpusOptions options;
    options.scale = 0.3;
    const corpus::Corpus corpus = corpus::generate_corpus(options);
    std::vector<std::pair<std::string, Files>> out;
    for (size_t i = 0; i < corpus.plugins.size(); i += 4)
        for (const corpus::PluginVersionSource* version :
             {&corpus.plugins[i].v2012, &corpus.plugins[i].v2014})
            out.emplace_back(corpus.plugins[i].name, version->files);
    return out;
}

TEST(ForkProperty, EditCallingAnUncalledPluginFunctionOverlaysExactly) {
    // Like a sanitize-wrap fix, the edit adds a call on one line; here the
    // callee is a plugin function nothing called, so uncalled_functions()
    // and the called-name set change while the declarations do not.
    int forks = 0;
    for (const auto& [plugin, files] : fork_cases()) {
        const Project base = fresh_build(plugin, files);
        const auto uncalled = base.uncalled_functions();
        const auto target = std::ranges::find_if(
            uncalled, [](const FunctionRef& ref) { return !ref.owner; });
        if (target == uncalled.end()) continue;
        const std::string callee(target->decl->name);
        for (size_t f = 0; f < files.size(); ++f) {
            const std::optional<std::string> patched =
                with_call(files[f].second, callee + "('x')");
            if (!patched) continue;
            Files patched_files = files;
            patched_files[f].second = *patched;
            DiagnosticSink sink;
            const obs::CounterDelta delta;
            const std::optional<Project> fork =
                base.fork_with_replacements({{files[f].first, *patched, nullptr}}, sink);
            ASSERT_TRUE(fork.has_value());
            EXPECT_EQ(delta.take().forks_overlaid, 1u) << files[f].first;
            EXPECT_LT(fork->uncalled_functions().size(), uncalled.size());
            EXPECT_EQ(observe(*fork), observe(fresh_build(plugin, patched_files)))
                << plugin << " " << files[f].first << " calls " << callee;
            ++forks;
        }
    }
    EXPECT_GT(forks, 20);
}

TEST(ForkProperty, EditRenamingADeclarationRebuildsTheTables) {
    int forks = 0;
    for (const auto& [plugin, files] : fork_cases()) {
        const Project base = fresh_build(plugin, files);
        for (size_t f = 0; f < files.size(); ++f) {
            const ParsedFile* parsed = base.file_named(files[f].first);
            ASSERT_NE(parsed, nullptr);
            std::string needle;
            if (!parsed->facts.functions.empty())
                needle = "function " + std::string(parsed->facts.functions[0]->name);
            else if (!parsed->facts.classes.empty())
                needle = "class " + std::string(parsed->facts.classes[0]->name);
            const size_t at = needle.empty() ? std::string::npos
                                             : files[f].second.find(needle);
            if (at == std::string::npos) continue;
            std::string patched = files[f].second;
            patched.insert(at + needle.size(), "_renamed");
            Files patched_files = files;
            patched_files[f].second = patched;
            DiagnosticSink sink;
            const obs::CounterDelta delta;
            const std::optional<Project> fork =
                base.fork_with_replacements({{files[f].first, patched, nullptr}}, sink);
            ASSERT_TRUE(fork.has_value());
            EXPECT_EQ(delta.take().forks_merged, 1u) << needle;
            EXPECT_EQ(observe(*fork), observe(fresh_build(plugin, patched_files)))
                << plugin << " " << files[f].first << " renames " << needle;
            ++forks;
        }
    }
    EXPECT_GT(forks, 10);
}

TEST(ForkProperty, ForkOfAForkOutlivesItsParents) {
    // Each fork of a fork overlays the first build's tables; both parents
    // are gone before the grandchild is read.
    int forks = 0;
    for (const auto& [plugin, files] : fork_cases()) {
        if (files.size() < 2) continue;
        for (const size_t second : {size_t{0}, files.size() - 1}) {
            const std::optional<std::string> first_text =
                with_call(files[0].second, "esc_html('a')");
            const std::optional<std::string> second_text =
                with_call(second == 0 ? *first_text : files[second].second,
                          "trim('b')");
            ASSERT_TRUE(first_text && second_text);
            Files patched_files = files;
            patched_files[0].second = *first_text;
            patched_files[second].second = *second_text;

            DiagnosticSink sink;
            std::optional<Project> grandchild;
            const obs::CounterDelta delta;
            {
                const Project base = fresh_build(plugin, files);
                const std::optional<Project> child =
                    base.fork_with_replacements({{files[0].first, *first_text, nullptr}}, sink);
                ASSERT_TRUE(child.has_value());
                grandchild = child->fork_with_replacements(
                    {{files[second].first, *second_text, nullptr}}, sink);
            }
            ASSERT_TRUE(grandchild.has_value());
            EXPECT_EQ(delta.take().forks_overlaid, 2u);
            EXPECT_EQ(observe(*grandchild),
                      observe(fresh_build(plugin, patched_files)))
                << plugin << " second edit in " << files[second].first;
            ++forks;
        }
    }
    EXPECT_GT(forks, 10);
}

/// `n` interlocking files: file i declares chain_i, every third file a
/// class extending an earlier one (with a method of its own and a shared
/// `render`), every fifth a guarded duplicate of one helper; even files
/// call the next file's function and every file includes the next.
Files chain_files(size_t n) {
    Files files;
    for (size_t i = 0; i < n; ++i) {
        const std::string id = std::to_string(i);
        const std::string next = std::to_string((i + 1) % n);
        std::string text = "<?php\ninclude 'lib/f" + next + ".php';\n";
        if (i % 5 == 0)
            text += "if (!function_exists('shared_helper')) { function "
                    "Shared_Helper($v) { return $v; } }\n";
        text += "function chain_" + id + "($v) { echo $v; return $v; }\n";
        if (i % 3 == 0) {
            text += "class Chain_" + id;
            if (i >= 3) text += " extends Chain_" + std::to_string(i - 3);
            text += " { function step_" + id +
                    "() { echo $_GET['x']; } function render() { return 1; } }\n";
        }
        if (i % 2 == 0) text += "chain_" + next + "($_GET['q']);\n";
        files.emplace_back("lib/f" + id + ".php", std::move(text));
    }
    return files;
}

TEST(ForkProperty, ChainOfForksOverDistinctFilesEqualsFreshBuilds) {
    // Each fork edits a file no earlier fork touched, the way a watch
    // session's edits accumulate: a comment, a new call (a function or
    // method name may enter the called sets), a removed call (a name may
    // leave them), and now and then a renamed declaration, which merges
    // the tables the later forks overlay. Some replacements arrive already
    // parsed, as the service's file pool hands them over.
    constexpr size_t kFiles = 120;
    Files files = chain_files(kFiles);
    std::vector<size_t> order(kFiles);
    for (size_t i = 0; i < kFiles; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(2015));

    std::optional<Project> current = fresh_build("chain", files);
    uint64_t overlaid = 0, merged = 0, renames = 0;
    for (size_t k = 0; k < 110; ++k) {
        const size_t f = order[k];
        const std::string& name = files[f].first;
        std::string text = files[f].second;
        const std::string other = std::to_string((f * 7 + 3) % kFiles);
        const std::string own_call =
            "chain_" + std::to_string((f + 1) % kFiles) + "($_GET['q']);\n";
        if (k % 25 == 24) {
            const std::string decl = "function chain_" + std::to_string(f) + "(";
            text.insert(text.find(decl) + decl.size() - 1, "_renamed");
            ++renames;
        } else if (k % 4 == 1) {
            text += "chain_" + other + "('x');\n";
        } else if (k % 4 == 2) {
            text += "$o->step_" + other + "();\n";
        } else if (k % 4 == 3 && text.find(own_call) != std::string::npos) {
            text.erase(text.find(own_call), own_call.size());
        } else {
            text += "// rev " + std::to_string(k) + "\n";
        }
        files[f].second = text;

        std::vector<Project::Replacement> replacements(1);
        replacements[0].name = name;
        const bool preparsed = k % 10 == 5;
        if (preparsed)
            replacements[0].parsed = fresh_build("one", {{name, text}}).files()[0];
        else
            replacements[0].text = text;
        DiagnosticSink sink;
        const obs::CounterDelta delta;
        std::optional<Project> fork =
            current->fork_with_replacements(std::move(replacements), sink);
        ASSERT_TRUE(fork.has_value()) << name;
        const obs::Counters counts = delta.take();
        overlaid += counts.forks_overlaid;
        merged += counts.forks_merged;
        EXPECT_EQ(fork->build_stats().files_reused,
                  static_cast<int>(kFiles) - (preparsed ? 0 : 1));
        current.reset();  // the fork must not depend on its parent
        EXPECT_EQ(observe(*fork), observe(fresh_build("chain", files)))
            << "fork " << k << " edits " << name;
        current = std::move(fork);
    }
    EXPECT_EQ(merged, renames);
    EXPECT_EQ(overlaid, 110 - renames);
}

TEST(ForkProperty, ReplacingAnUnknownFileRefuses) {
    const Project base = make_project({{"a.php", "<?php function a() {}"}});
    std::vector<Project::Replacement> replacements(2);
    replacements[0].name = "a.php";
    replacements[0].text = "<?php function a() { echo 1; }";
    replacements[1].name = "b.php";
    DiagnosticSink sink;
    EXPECT_FALSE(base.fork_with_replacements(std::move(replacements), sink));
}

}  // namespace
}  // namespace phpsafe::php
