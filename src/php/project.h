// Project model: a plugin is a set of PHP files analyzed together. The
// model-construction stage (paper §III.B) parses every file, collects all
// user-defined functions/classes — wherever they are declared, including
// inside conditional blocks (`if (!function_exists(...))` guards are common
// in WordPress plugins) — and records which functions are called from
// plugin code so the engine can analyze the never-called ones too.
//
// Incremental-analysis hooks (service/): every file carries a stable
// content hash (fnv1a64 of its text), parsed files are held by shared
// pointer so an immutable AST can be shared between the project that parsed
// it, the service's content-addressed cache, and any later project built
// for a new version of the plugin, and `add_parsed()` lets a builder inject
// an already-parsed file instead of re-lexing identical content.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "php/ast.h"
#include "util/arena.h"
#include "util/diagnostics.h"
#include "util/source.h"
#include "util/strings.h"

namespace phpsafe::php {

/// One immutable parsed file. The AST's nodes and every string_view hanging
/// off them point into `arena` or `source`; member order matters — `unit` is
/// destroyed first, then the arena, then the source text, so nothing dangles
/// during teardown. Holders of node pointers (engine scopes, summaries,
/// findings) must either keep the owning shared_ptr alive or copy/intern the
/// strings they retain (see docs/performance.md).
struct ParsedFile {
    std::unique_ptr<SourceFile> source;
    Arena arena;  ///< backs all AST nodes + decoded/synthesized strings
    FileUnit unit;
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

/// Where a function/method declaration lives. `file` is a view of the
/// declaring ParsedFile's unit.file_name — valid as long as the Project
/// (which pins every ParsedFile by shared_ptr) is alive, and copying a
/// FunctionRef never touches the heap.
struct FunctionRef {
    const FunctionDecl* decl = nullptr;
    const ClassDecl* owner = nullptr;  ///< null for free functions
    std::string_view file;

    /// "name" for free functions, "Class::name" for methods.
    std::string qualified_name() const;
};

class Project {
public:
    /// CPU cost of model construction, split by stage. parse_all() adds to
    /// these; lex covers tokenization, parse covers tree building plus
    /// declaration indexing. Files injected via add_parsed() cost neither.
    struct BuildStats {
        double lex_cpu_seconds = 0;
        double parse_cpu_seconds = 0;
        int files_reused = 0;  ///< files injected pre-parsed (cache hits)
    };

    explicit Project(std::string name) : name_(std::move(name)) {}

    Project(Project&&) = default;
    Project& operator=(Project&&) = default;

    const std::string& name() const noexcept { return name_; }

    /// Registers a file; call parse_all() afterwards.
    void add_file(std::string file_name, std::string text);

    /// Injects an already-parsed, immutable file (shared with whoever parsed
    /// it — typically the service's AST cache). Keeps registration order
    /// relative to add_file() calls; call parse_all() afterwards to index it.
    void add_parsed(std::shared_ptr<const ParsedFile> file);

    /// Parses every registered file and builds the declaration tables.
    void parse_all(DiagnosticSink& sink);

    /// Parses `text` as a replacement for the existing file `file_name` and
    /// returns a project equal to the one add_file()+parse_all() would build
    /// over the patched file set — same files, same declaration tables in
    /// the same declaration order, same called-name sets — without re-lexing
    /// or re-walking any unchanged file. Every other ParsedFile is shared
    /// with this project (both pin them by shared_ptr, so neither project's
    /// lifetime depends on the other's). This is the model-construction fast
    /// path of batch quickfix verification (validate/): a single-file patch
    /// re-parses one file instead of re-indexing the whole plugin. Returns
    /// nullopt when `file_name` names no file of this project.
    std::optional<Project> fork_with_replacement(std::string_view file_name,
                                                 std::string text,
                                                 DiagnosticSink& sink) const;

    const BuildStats& build_stats() const noexcept { return build_stats_; }

    const std::vector<std::shared_ptr<const ParsedFile>>& files() const noexcept {
        return files_;
    }

    /// Total lines across all files (the paper reports corpus KLOC).
    int total_lines() const noexcept;

    /// Exact-name file lookup (used by the service's dependency validation).
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

    /// All declared functions and methods, in declaration order.
    const std::vector<FunctionRef>& all_functions() const noexcept {
        return function_list_;
    }

    /// Rendering of every declaration the named file contributes (classes,
    /// then functions/methods), in declaration order. Two projects agreeing
    /// on a file's declaration fingerprint resolve every name outside that
    /// file identically — the soundness gate for reusing function summaries
    /// across a single-file patch (validate/).
    std::string declaration_fingerprint(std::string_view file) const;

    /// Names of free functions called anywhere in plugin code (lowercased).
    const std::set<std::string>& called_function_names() const noexcept {
        return called_functions_;
    }

    /// "class::method" pairs called anywhere in plugin code (lowercased).
    const std::set<std::string>& called_method_names() const noexcept {
        return called_methods_;
    }

    /// Functions and methods never called from plugin code (paper §III.C:
    /// these must still be analyzed — the CMS may call them directly).
    std::vector<FunctionRef> uncalled_functions() const;

    /// Resolves an include path literal to a parsed file of this project,
    /// matching by exact name, then path suffix (ends_with_path), then
    /// basename. Returns null for
    /// external (CMS / PHP library) includes.
    const ParsedFile* resolve_include(std::string_view path) const;

private:
    void index_statements(const ArenaVector<StmtPtr>& stmts, const std::string& file);
    void record_calls_expr(const Expr& e);
    void record_calls_stmt(const Stmt& s);
    /// Lexes + parses one file into an immutable ParsedFile (the body of the
    /// parse_all() pending loop, shared with fork_with_replacement()).
    static std::shared_ptr<const ParsedFile> parse_file(std::string name,
                                                        std::string text,
                                                        DiagnosticSink& sink,
                                                        double& lex_seconds);
    /// Rebuilds the merged called-name sets from the per-file sets.
    void merge_calls();
    /// Folds `name` into the reused scratch key and records it; allocates
    /// only the first time a given name is seen (call sites vastly outnumber
    /// unique callees, so the hot path stays allocation-free).
    void note_called_function(std::string_view name);
    /// Records "class::method" (or "::method" when the class is unknown).
    void note_called_method(std::string_view class_name, std::string_view method);

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
    /// Declaration tables. Keys are views of the declaration names, which
    /// live in the owning file's arena (pinned by files_), under the
    /// transparent FoldedLess comparator — so indexing a declaration costs
    /// one tree-node allocation and lookups pass mixed-case string_views
    /// straight from AST nodes without allocating a folded temporary.
    std::map<std::string_view, FunctionRef, FoldedLess> functions_;
    std::map<std::string_view, const ClassDecl*, FoldedLess> classes_;
    /// Values point at the declaring file's unit.file_name (stable).
    std::map<std::string_view, const std::string*, FoldedLess> class_files_;
    /// Methods are keyed (class, method) — both views — folded per part.
    struct MethodKey {
        std::string_view class_name;
        std::string_view method;
    };
    struct MethodKeyLess {
        using is_transparent = void;
        constexpr bool operator()(const MethodKey& a,
                                  const MethodKey& b) const noexcept {
            const int c = folded_compare(a.class_name, b.class_name);
            if (c != 0) return c < 0;
            return folded_compare(a.method, b.method) < 0;
        }
    };
    std::map<MethodKey, FunctionRef, MethodKeyLess> methods_;
    std::vector<FunctionRef> function_list_;
    /// Every class declaration in declaration order with its declaring
    /// file's stable unit.file_name. Like function_list_, this keeps full
    /// provenance (the maps above drop duplicate declarations), so
    /// fork_with_replacement() can rebuild the class tables exactly.
    std::vector<std::pair<const ClassDecl*, const std::string*>> class_list_;
    std::set<std::string> called_functions_;
    std::set<std::string> called_methods_;  ///< "class::method" or "::method"
    /// Per-file contribution to the called-name sets, parallel to files_.
    /// parse_all() fills it and merges into the global sets; recording
    /// provenance is what lets fork_with_replacement() subtract exactly the
    /// replaced file's calls without re-walking every other file's AST.
    struct FileCalls {
        std::set<std::string> functions;
        std::set<std::string> methods;
    };
    std::vector<FileCalls> file_calls_;
    FileCalls* current_calls_ = nullptr;  ///< target of note_called_* during indexing
    std::string call_key_;  ///< scratch buffer for note_called_* key folding
    BuildStats build_stats_;
};

}  // namespace phpsafe::php
