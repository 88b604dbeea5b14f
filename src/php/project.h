// Project model: a plugin is a set of PHP files analyzed together. The
// model-construction stage (paper §III.B) parses every file, collects all
// user-defined functions/classes — wherever they are declared, including
// inside conditional blocks (`if (!function_exists(...))` guards are common
// in WordPress plugins) — and records which functions are called from
// plugin code so the engine can analyze the never-called ones too.
//
// Each file is indexed once, when it is parsed: one walk over the fresh AST
// records the file's FactsBlock (declarations, called names, used classes,
// include literals, OOP use). The project's tables are a merge of those
// blocks in file order, and file names and includes resolve through one
// IncludeIndex — so building a project from already-parsed files walks no
// AST at all. The merge also numbers every distinct folded qualified name
// (FunctionRef::summary_slot), which is how the engine keys its summaries.
// The merged tables are one immutable object shared by shared_ptr: a fork
// with some files replaced reuses them and adds a small overlay built from
// the replaced files' old and new facts blocks.
//
// Incremental-analysis hooks (service/): every file carries a stable
// content hash (fnv1a64 of its text), parsed files are held by shared
// pointer so an immutable AST can be shared between the project that parsed
// it, the service's content-addressed cache, and any later project built
// for a new version of the plugin, and `add_parsed()` lets a builder inject
// an already-parsed file instead of re-lexing identical content.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "php/ast.h"
#include "util/arena.h"
#include "util/diagnostics.h"
#include "util/source.h"
#include "util/strings.h"

namespace phpsafe::php {

/// What one file declares, calls and includes, recorded by the single walk
/// Project::parse_file makes over the fresh AST. Every later consumer — the
/// project's declaration tables and called-name sets, graph::FileFacts and
/// the engine's OOP check — reads this block instead of walking the AST
/// again. The lists live in the file's arena; names are views into the
/// source text or the arena (an arena copy only where case folding changed
/// a name). Statements inside closure bodies declare nothing here (PHP
/// defines them only when the closure runs), but their expressions count.
struct FactsBlock {
    /// Declarations, each list in pre-order (declaration) order. A class's
    /// methods are its ClassDecl::methods.
    std::span<const ClassDecl* const> classes;
    std::span<const FunctionDecl* const> functions;  ///< free functions
    // Name lists below are sorted and unique; call names are ASCII-folded.
    std::span<const std::string_view> called_functions;  ///< f(...)
    /// Functions named by a callback API: add_action('init', 'f') etc.
    std::span<const std::string_view> callback_functions;
    std::span<const std::string_view> called_methods;  ///< $o->m(), C::m()
    /// Methods named by an array($obj, 'm') callback.
    std::span<const std::string_view> callback_methods;
    /// Folded classes named by `new C`, `C::m()` or `extends C` (not
    /// self/static/parent).
    std::span<const std::string_view> used_classes;
    /// include/require path literals, case kept. A concatenated path keeps
    /// its trailing string literal, so `dirname(__FILE__) . '/x.php'`
    /// resolves through the suffix rule.
    std::span<const std::string_view> include_paths;
    /// A class declaration, method call, property access, static access or
    /// `new` anywhere in the file.
    bool uses_oop = false;
};

/// One immutable parsed file. The AST's nodes and every string_view hanging
/// off them point into `arena` or `source`; member order matters — `facts`
/// and `unit` are destroyed first, then the arena, then the source text, so
/// nothing dangles during teardown. Holders of node pointers (engine scopes, summaries,
/// findings) must either keep the owning shared_ptr alive or copy/intern the
/// strings they retain (see docs/performance.md).
struct ParsedFile {
    std::unique_ptr<SourceFile> source;
    Arena arena;  ///< backs all AST nodes, the facts block and copied strings
    FileUnit unit;
    FactsBlock facts;
    bool parse_failed = false;  ///< a kFatal diagnostic was recorded
    uint64_t content_hash = 0;  ///< fnv1a64 of the source text
    uint64_t text_bytes = 0;    ///< source text size
    uint64_t ast_nodes = 0;     ///< AST nodes built for this file
};

/// Stable content hash of one file's text; the key of every file-level
/// entry in the incremental service's cache.
uint64_t content_hash(std::string_view text) noexcept;

/// Include suffix match at a path-segment boundary: "x/b.php" ends with
/// "b.php", "ab.php" does not.
bool ends_with_path(std::string_view name, std::string_view path) noexcept;

/// The one file-name and include resolver: an exact-name index plus
/// basename buckets over an ordered file set. Project resolves file names
/// and include literals through it, and graph::ProjectGraph links its
/// include edges through it, so the engine, the interpreter, the cache's
/// dependency checks and the graph always pick the same file.
class IncludeIndex {
public:
    static constexpr size_t npos = static_cast<size_t>(-1);

    IncludeIndex() = default;
    /// `names[i]` names file i; the viewed strings must outlive the index.
    explicit IncludeIndex(const std::vector<std::string_view>& names);

    /// Position of the first file named exactly `name`, or npos.
    size_t find(std::string_view name) const;

    /// Resolves an include path literal. After stripping leading "./", an
    /// empty path resolves to nothing; otherwise the exact name wins, then
    /// the first file whose name ends with the path at a segment boundary
    /// (ends_with_path), then the first file with the path's basename —
    /// "first" in file order. Every suffix match shares the path's
    /// basename, so both fallbacks scan one basename bucket. Returns npos
    /// for external (CMS / PHP library) includes.
    size_t resolve(std::string_view path) const;

private:
    struct Entry {
        std::string_view key;   ///< full name or basename
        std::string_view name;  ///< full name
        size_t pos = 0;
    };
    std::vector<Entry> by_name_;      ///< sorted by (name, pos)
    std::vector<Entry> by_basename_;  ///< sorted by (basename, pos)
};

/// Where a function/method declaration lives. `file` is a view of the
/// declaring ParsedFile's unit.file_name — valid as long as the Project
/// (which pins every ParsedFile by shared_ptr) is alive, and copying a
/// FunctionRef never touches the heap.
struct FunctionRef {
    const FunctionDecl* decl = nullptr;
    const ClassDecl* owner = nullptr;  ///< null for free functions
    std::string_view file;
    /// Dense number of the folded qualified name, below
    /// Project::summary_slots(): every declaration of one name (a guarded
    /// duplicate, a class declared twice) shares it, so the engine keeps one
    /// summary per name without building a key string.
    uint32_t summary_slot = 0;

    /// "name" for free functions, "Class::name" for methods.
    std::string qualified_name() const;
};

class Project {
public:
    /// CPU cost of model construction, split by stage. parse_all() adds to
    /// these; lex covers tokenization, parse covers tree building plus the
    /// facts walk and the table merge. Files injected via add_parsed() cost
    /// neither.
    struct BuildStats {
        double lex_cpu_seconds = 0;
        double parse_cpu_seconds = 0;
        int files_reused = 0;  ///< files injected pre-parsed (cache hits)
    };

    explicit Project(std::string name);

    Project(Project&&) = default;
    Project& operator=(Project&&) = default;

    const std::string& name() const noexcept { return name_; }

    /// Registers a file; call parse_all() afterwards.
    void add_file(std::string file_name, std::string text);

    /// Injects an already-parsed, immutable file (shared with whoever parsed
    /// it — typically the service's AST cache). Keeps registration order
    /// relative to add_file() calls; call parse_all() afterwards to index it.
    void add_parsed(std::shared_ptr<const ParsedFile> file);

    /// Parses every registered file and merges all facts blocks into the
    /// declaration tables, the called-name sets and the include index.
    void parse_all(DiagnosticSink& sink);

    /// New content for one existing file of a fork: `parsed` when the
    /// caller already holds a parse of it (the service's file pool), else
    /// `text`, which the fork parses.
    struct Replacement {
        std::string name;
        std::string text;
        std::shared_ptr<const ParsedFile> parsed;
    };

    /// Returns a project equal to the one add_file()+parse_all() would build
    /// over this project's files with `replacements` applied. Every other
    /// ParsedFile is shared with this project, and so are the declaration
    /// tables and the include index (a fork never changes a file name). The
    /// shared tables pin every file they view, so neither project's
    /// lifetime depends on the other's. When each new file declares the same
    /// classes (same parents), methods and free functions in the same order
    /// as the old — true of every quickfix, which edits one expression, and
    /// of a comment or body edit in a watch session — the fork adds an
    /// overlay built from the replaced files' facts blocks and their ranges
    /// of all_functions() alone: their declarations map to the new ASTs
    /// (keeping their summary slots), and called-name membership follows
    /// per-name caller counts. Any other change rebuilds every table, as
    /// parse_all() does. Either way the fork lexes, parses and walks only
    /// the replacements given as text. A fork of an overlaid fork overlays
    /// the same shared tables, so a chain of forks never merges. This is the
    /// model-construction fast path of quickfix verification (validate/)
    /// and of watch-session edits (service/watch.h). Returns nullopt when a
    /// replacement names no file of this (fully built) project.
    std::optional<Project> fork_with_replacements(
        std::vector<Replacement> replacements, DiagnosticSink& sink) const;

    const BuildStats& build_stats() const noexcept { return build_stats_; }

    const std::vector<std::shared_ptr<const ParsedFile>>& files() const noexcept {
        return files_;
    }

    /// Total lines across all files (the paper reports corpus KLOC).
    int total_lines() const noexcept;

    /// Exact-name file lookup through the include index; the first file of
    /// a duplicated name wins.
    const ParsedFile* file_named(std::string_view name) const;

    /// Free function lookup (case-insensitive, as in PHP).
    const FunctionRef* find_function(std::string_view name) const;

    /// Class lookup (case-insensitive).
    const ClassDecl* find_class(std::string_view name) const;

    /// File declaring `class_name` (case-insensitive); empty when unknown.
    const std::string& file_of_class(std::string_view class_name) const;

    /// Method lookup honoring single inheritance.
    const FunctionRef* find_method(std::string_view class_name,
                                   std::string_view method_name) const;

    /// Resolves a method by name alone when exactly one class declares it
    /// (used when the receiver's class cannot be inferred; mirrors the
    /// paper's backward name search over the token stream).
    const FunctionRef* find_method_any(std::string_view method_name) const;

    /// All declared functions and methods in declaration order: file by
    /// file, each file's methods (class by class) before its free functions.
    const std::vector<FunctionRef>& all_functions() const noexcept;

    /// Number of distinct folded qualified names: every
    /// FunctionRef::summary_slot of this project is below it.
    uint32_t summary_slots() const noexcept;

    /// Names of free functions called anywhere in plugin code, directly or
    /// through a callback API (lowercased, sorted, unique).
    const std::vector<std::string_view>& called_function_names() const noexcept;

    /// Method names called anywhere in plugin code — through any receiver,
    /// statically, or as an array callback (lowercased, sorted, unique).
    const std::vector<std::string_view>& called_method_names() const noexcept;

    /// Functions and methods never called from plugin code (paper §III.C:
    /// these must still be analyzed — the CMS may call them directly).
    /// Constructors count as called (`new` runs them).
    std::vector<FunctionRef> uncalled_functions() const;

    /// Resolves an include path literal to a parsed file of this project
    /// (IncludeIndex::resolve). Returns null for external (CMS / PHP
    /// library) includes.
    const ParsedFile* resolve_include(std::string_view path) const;

private:
    /// Lexes + parses one file into an immutable ParsedFile and records its
    /// facts block (the body of the parse_all() pending loop, shared with
    /// fork_with_replacements()).
    static std::shared_ptr<const ParsedFile> parse_file(std::string name,
                                                        std::string text,
                                                        DiagnosticSink& sink,
                                                        double& lex_seconds);
    /// Rebuilds every table from the files' facts blocks, in file order,
    /// numbering summary slots, and drops any overlay.
    void merge_facts();

    struct Tables;
    struct Overlay;
    /// `ref` as this project sees it: the overlay's entry for a declaration
    /// of a replaced file, else `ref` itself.
    const FunctionRef* current(const FunctionRef& ref) const;

    std::string name_;
    /// Files in registration order. Slots for add_file() entries stay null
    /// until parse_all() fills them; add_parsed() entries are set eagerly.
    std::vector<std::shared_ptr<const ParsedFile>> files_;
    struct PendingFile {
        size_t slot = 0;  ///< index into files_
        std::string name;
        std::string text;
    };
    std::vector<PendingFile> pending_;
    /// Declaration tables, called-name sets and include index as last
    /// merged; immutable and shared with every fork. Never null.
    std::shared_ptr<const Tables> tables_;
    /// Set only on a fork that took the overlay path: what differs from
    /// tables_ because of the replaced files.
    std::shared_ptr<const Overlay> overlay_;
    BuildStats build_stats_;
};

}  // namespace phpsafe::php
