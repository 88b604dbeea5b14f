#include "php/project.h"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <memory_resource>

#include "obs/counters.h"
#include "php/parser.h"
#include "php/walk.h"
#include "util/strings.h"
#include "util/timing.h"

namespace phpsafe::php {

namespace {

std::string_view basename_of(std::string_view path) {
    const size_t slash = path.rfind('/');
    return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

bool is_self_reference(std::string_view class_name) {
    return iequals(class_name, "self") || iequals(class_name, "static") ||
           iequals(class_name, "parent");
}

/// Callback registration APIs make the named function "called":
/// add_action('init', 'my_handler') etc. keep handlers reachable.
bool is_callback_api(std::string_view name) {
    static constexpr std::string_view kCallbackApis[] = {
        "add_action", "add_filter", "register_activation_hook",
        "register_deactivation_hook", "add_shortcode", "call_user_func",
        "call_user_func_array", "array_map", "array_filter", "usort",
    };
    for (const std::string_view api : kCallbackApis)
        if (iequals(name, api)) return true;
    return false;
}

/// The trailing string literal of an include path expression, if any:
/// handles plain literals and the `dirname(__FILE__) . '/x.php'` /
/// `PLUGIN_DIR . 'inc/x.php'` concat idioms by descending the right spine.
std::string_view include_literal(const Expr* path) {
    while (path && path->kind == NodeKind::kBinary) {
        const auto& binary = static_cast<const Binary&>(*path);
        if (binary.op != BinaryOp::kConcat) return {};
        path = binary.rhs;
    }
    if (!path || path->kind != NodeKind::kLiteral) return {};
    const auto& literal = static_cast<const Literal&>(*path);
    if (literal.type != Literal::Type::kString) return {};
    return literal.value;
}

/// First-block sizing for a file's arena: AST nodes, child lists and the
/// facts block take 4.5-5.6 arena bytes per byte of source on the
/// generated corpus and monorepo.
constexpr size_t kArenaBytesPerSourceByte = 5;

template <typename Names>
void sort_unique(Names& names) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
}

/// The facts walk's working lists, before they are frozen into the arena.
/// They draw on a caller-provided memory resource — a stack buffer that a
/// typical file never outgrows — so recording facts leaves nothing
/// long-lived on the heap.
struct FactsScratch {
    template <typename T>
    using List = std::pmr::vector<T>;

    explicit FactsScratch(std::pmr::memory_resource* memory)
        : classes(memory), functions(memory), called_functions(memory),
          callback_functions(memory), called_methods(memory),
          callback_methods(memory), used_classes(memory),
          include_paths(memory), fold_buffer(memory) {}

    bool uses_oop = false;
    List<const ClassDecl*> classes;
    List<const FunctionDecl*> functions;
    List<std::string_view> called_functions;
    List<std::string_view> callback_functions;
    List<std::string_view> called_methods;
    List<std::string_view> callback_methods;
    List<std::string_view> used_classes;
    List<std::string_view> include_paths;
    std::pmr::string fold_buffer;

    void record_stmt(const Stmt& s) {
        if (s.kind == NodeKind::kClassDecl) {
            const auto& cls = static_cast<const ClassDecl&>(s);
            classes.push_back(&cls);
            uses_oop = true;
            if (!cls.name.empty() && !cls.parent.empty() &&
                !is_self_reference(cls.parent))
                used_classes.push_back(cls.parent);
        } else if (s.kind == NodeKind::kFunctionDecl) {
            const auto& fn = static_cast<const FunctionDecl&>(s);
            if (!fn.is_method) functions.push_back(&fn);
        }
    }

    void record_expr(const Expr& e) {
        switch (e.kind) {
            case NodeKind::kFunctionCall: {
                const auto& call = static_cast<const FunctionCall&>(e);
                if (call.name.empty()) break;
                called_functions.push_back(call.name);
                if (!is_callback_api(call.name)) break;
                for (const Argument& arg : call.args) {
                    if (!arg.value) continue;
                    if (arg.value->kind == NodeKind::kLiteral) {
                        const auto& lit = static_cast<const Literal&>(*arg.value);
                        if (lit.type == Literal::Type::kString && !lit.value.empty())
                            callback_functions.push_back(lit.value);
                    }
                    // array($obj, 'method') / array('Class', 'method')
                    if (arg.value->kind == NodeKind::kArrayLiteral) {
                        const auto& arr = static_cast<const ArrayLiteral&>(*arg.value);
                        if (arr.items.size() == 2 && arr.items[1].value &&
                            arr.items[1].value->kind == NodeKind::kLiteral) {
                            const auto& lit =
                                static_cast<const Literal&>(*arr.items[1].value);
                            if (lit.type == Literal::Type::kString)
                                callback_methods.push_back(lit.value);
                        }
                    }
                }
                break;
            }
            case NodeKind::kMethodCall: {
                const auto& call = static_cast<const MethodCall&>(e);
                uses_oop = true;
                if (!call.method.empty()) called_methods.push_back(call.method);
                break;
            }
            case NodeKind::kStaticCall: {
                const auto& call = static_cast<const StaticCall&>(e);
                uses_oop = true;
                called_methods.push_back(call.method);
                if (!call.class_name.empty() && !is_self_reference(call.class_name))
                    used_classes.push_back(call.class_name);
                break;
            }
            case NodeKind::kNew: {
                const auto& n = static_cast<const New&>(e);
                uses_oop = true;
                if (!n.class_name.empty() && !is_self_reference(n.class_name))
                    used_classes.push_back(n.class_name);
                break;
            }
            case NodeKind::kPropertyAccess:
            case NodeKind::kStaticPropertyAccess:
                uses_oop = true;
                break;
            case NodeKind::kIncludeExpr: {
                const auto& inc = static_cast<const IncludeExpr&>(e);
                const std::string_view path = include_literal(inc.path);
                if (!path.empty()) include_paths.push_back(path);
                break;
            }
            default:
                break;
        }
    }

    /// Folds, sorts and dedupes `names`; only names case folding changes
    /// are copied into the arena.
    std::span<const std::string_view> freeze_folded(
        Arena& arena, List<std::string_view>& names) {
        std::sort(names.begin(), names.end(), FoldedLess{});
        names.erase(std::unique(names.begin(), names.end(),
                                [](std::string_view a, std::string_view b) {
                                    return folded_compare(a, b) == 0;
                                }),
                    names.end());
        for (std::string_view& name : names) {
            if (std::none_of(name.begin(), name.end(),
                             [](char c) { return c >= 'A' && c <= 'Z'; }))
                continue;
            fold_buffer.clear();
            append_folded(fold_buffer, name);
            name = arena.store(fold_buffer);
        }
        return freeze(arena, names);
    }

    /// Copies a finished list into the arena.
    template <typename T>
    static std::span<const T> freeze(Arena& arena, const List<T>& items) {
        if (items.empty()) return {};
        T* out = static_cast<T*>(
            arena.allocate(items.size() * sizeof(T), alignof(T)));
        std::uninitialized_copy(items.begin(), items.end(), out);
        return {out, items.size()};
    }
};

/// Records `file`'s facts block: one walk over its fresh AST.
void record_facts(ParsedFile& file) {
    std::array<std::byte, 16 * 1024> buffer;
    std::pmr::monotonic_buffer_resource memory(buffer.data(), buffer.size());
    FactsScratch scratch(&memory);
    // One walk (php/walk.h: explicit stack) visits every statement outside
    // closure bodies and every expression.
    const ExprVisitor on_expr = [&](const Expr& e) { scratch.record_expr(e); };
    const StmtVisitor on_stmt = [&](const Stmt& s) { scratch.record_stmt(s); };
    for (const StmtPtr& stmt : file.unit.statements)
        if (stmt) walk_stmt(*stmt, on_expr, on_stmt);
    Arena& arena = file.arena;
    FactsBlock& facts = file.facts;
    facts.classes = FactsScratch::freeze(arena, scratch.classes);
    facts.functions = FactsScratch::freeze(arena, scratch.functions);
    facts.called_functions = scratch.freeze_folded(arena, scratch.called_functions);
    facts.callback_functions =
        scratch.freeze_folded(arena, scratch.callback_functions);
    facts.called_methods = scratch.freeze_folded(arena, scratch.called_methods);
    facts.callback_methods = scratch.freeze_folded(arena, scratch.callback_methods);
    facts.used_classes = scratch.freeze_folded(arena, scratch.used_classes);
    sort_unique(scratch.include_paths);
    facts.include_paths = FactsScratch::freeze(arena, scratch.include_paths);
    facts.uses_oop = scratch.uses_oop;
}

bool contains_folded(const std::vector<std::string_view>& sorted_folded,
                     std::string_view name) {
    return std::binary_search(sorted_folded.begin(), sorted_folded.end(), name,
                              FoldedLess{});
}

using NameLists = std::array<std::span<const std::string_view>, 2>;

/// The facts lists that make a free function "called", and a method.
NameLists called_function_lists(const FactsBlock& facts) {
    return {facts.called_functions, facts.callback_functions};
}
NameLists called_method_lists(const FactsBlock& facts) {
    return {facts.called_methods, facts.callback_methods};
}

struct ClassEntry {
    const ClassDecl* decl = nullptr;
    const std::string* file = nullptr;  ///< declaring unit.file_name
};

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

using Files = std::vector<std::shared_ptr<const ParsedFile>>;

/// One called-name set: the union of every file's folded name lists,
/// sorted and unique, with the number of lists naming each entry.
struct CalledNames {
    std::vector<std::string_view> names;
    std::vector<uint32_t> callers;  ///< aligned with names

    /// Sorts the appended names and folds repeats into caller counts.
    void count_callers() {
        std::sort(names.begin(), names.end());
        callers.clear();
        size_t out = 0;
        for (size_t i = 0; i < names.size(); ++i) {
            if (out > 0 && names[out - 1] == names[i]) {
                ++callers.back();
            } else {
                names[out++] = names[i];
                callers.push_back(1);
            }
        }
        names.resize(out);
    }

    uint32_t callers_of(std::string_view name) const {
        const auto it = std::lower_bound(names.begin(), names.end(), name);
        return it != names.end() && *it == name ? callers[it - names.begin()]
                                                : 0;
    }

    /// The set after the files at `slots` change from `before` to `after`,
    /// or nullopt when no name enters or leaves it. Only the replaced
    /// files' lists are read.
    std::optional<std::vector<std::string_view>> patched(
        const Files& before, const Files& after, const std::vector<size_t>& slots,
        NameLists (*lists_of)(const FactsBlock&)) const {
        std::vector<std::pair<std::string_view, int>> delta;
        for (const size_t slot : slots) {
            for (const auto list : lists_of(before[slot]->facts))
                for (const std::string_view name : list) delta.emplace_back(name, -1);
            for (const auto list : lists_of(after[slot]->facts))
                for (const std::string_view name : list) delta.emplace_back(name, 1);
        }
        std::sort(delta.begin(), delta.end());
        std::vector<std::string_view> added, removed;
        for (size_t i = 0; i < delta.size();) {
            const std::string_view name = delta[i].first;
            int change = 0;
            for (; i < delta.size() && delta[i].first == name; ++i)
                change += delta[i].second;
            if (change == 0) continue;
            const int64_t count = callers_of(name);
            if (count == 0) added.push_back(name);
            else if (count + change == 0) removed.push_back(name);
        }
        if (added.empty() && removed.empty()) return std::nullopt;
        std::vector<std::string_view> kept, out;
        std::set_difference(names.begin(), names.end(), removed.begin(),
                            removed.end(), std::back_inserter(kept));
        out.reserve(kept.size() + added.size());
        std::merge(kept.begin(), kept.end(), added.begin(), added.end(),
                   std::back_inserter(out));
        return out;
    }
};

/// True when `after` declares exactly what `before` does, in the same
/// order: the same classes with the same parents and method names, and the
/// same free functions. Names compare byte for byte.
bool same_declarations(const FactsBlock& before, const FactsBlock& after) {
    if (before.classes.size() != after.classes.size() ||
        before.functions.size() != after.functions.size())
        return false;
    for (size_t c = 0; c < before.classes.size(); ++c) {
        const ClassDecl& was = *before.classes[c];
        const ClassDecl& is = *after.classes[c];
        if (was.name != is.name || was.parent != is.parent ||
            was.methods.size() != is.methods.size())
            return false;
        for (size_t m = 0; m < was.methods.size(); ++m)
            if (was.methods[m]->name != is.methods[m]->name) return false;
    }
    for (size_t f = 0; f < before.functions.size(); ++f)
        if (before.functions[f]->name != after.functions[f]->name) return false;
    return true;
}

/// The entry `entries` (sorted by key) holds for `key`, which must be there.
template <typename Key, typename Entry>
const Entry& remapped(const std::vector<std::pair<Key, Entry>>& entries,
                      Key key) {
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const auto& entry, Key k) { return std::less<Key>{}(entry.first, k); });
    return it->second;
}

}  // namespace

/// Everything merge_facts derives from a file set. Immutable once built and
/// shared by a project and all its overlay forks; `files` pins every file
/// whose names and declarations the tables view.
struct Project::Tables {
    Files files;
    /// Declaration tables. Keys are views of the declaration names, which
    /// live in the owning file's arena, under the transparent FoldedLess
    /// comparator — so indexing a declaration costs one tree-node
    /// allocation and lookups pass mixed-case string_views straight from
    /// AST nodes without allocating a folded temporary. The merge emplaces
    /// in declaration order, so the first declaration of a duplicated name
    /// wins, and its summary slot is the one every later declaration of the
    /// name shares.
    std::map<std::string_view, FunctionRef, FoldedLess> functions;
    std::map<std::string_view, ClassEntry, FoldedLess> classes;
    std::map<MethodKey, FunctionRef, MethodKeyLess> methods;
    std::vector<FunctionRef> function_list;
    /// File i's declarations are function_list[file_functions[i],
    /// file_functions[i + 1]).
    std::vector<uint32_t> file_functions;
    uint32_t summary_slots = 0;
    /// Files held at more than one position, sorted (an overlay cannot
    /// replace one position of such a file).
    std::vector<const ParsedFile*> shared_files;
    CalledNames called_functions;
    CalledNames called_methods;
    IncludeIndex include_index;

    bool shared(const ParsedFile* file) const {
        return std::binary_search(shared_files.begin(), shared_files.end(), file,
                                  std::less<const ParsedFile*>{});
    }
};

/// What a fork sees differently from the shared tables when its replaced
/// files declare what the originals did (same_declarations): the same
/// winners of every lookup, now in the new ASTs.
struct Project::Overlay {
    std::vector<size_t> slots;  ///< replaced file positions
    /// unit.file_name data of each replaced file as the tables know it,
    /// sorted: an entry viewing one of these strings was declared by a
    /// replaced file.
    std::vector<const char*> old_names;
    /// Each replaced file's functions and methods, old decl -> position in
    /// function_list, and its classes, old decl -> new entry; both sorted by
    /// the old pointer.
    std::vector<std::pair<const FunctionDecl*, uint32_t>> functions;
    std::vector<std::pair<const ClassDecl*, ClassEntry>> classes;
    /// The tables' list with the replaced files' ranges pointing at the new
    /// ASTs.
    std::vector<FunctionRef> function_list;
    /// Set only when a name entered or left the tables' set.
    std::optional<std::vector<std::string_view>> called_functions;
    std::optional<std::vector<std::string_view>> called_methods;

    /// Whether `file`, a view of some unit.file_name, is a replaced file's.
    bool replaced(std::string_view file) const {
        return std::binary_search(old_names.begin(), old_names.end(), file.data(),
                                  std::less<const char*>{});
    }

    const FunctionRef* current(const FunctionRef& ref) const {
        return replaced(ref.file) ? &function_list[remapped(functions, ref.decl)]
                                  : &ref;
    }

    const ClassEntry& current(const ClassEntry& entry) const {
        return replaced(*entry.file) ? remapped(classes, entry.decl) : entry;
    }

    /// The overlay of `files` — `base.files` with the files at `slots`
    /// replaced — or null when a replaced file declares something else
    /// (or is shared by two slots of the base), which needs a full merge.
    /// Costs the replaced files' declarations and names plus one copy of
    /// the function list.
    static std::shared_ptr<const Overlay> build(const Tables& base,
                                                const Files& files,
                                                std::vector<size_t> slots) {
        if (files.size() != base.files.size()) return nullptr;
        auto overlay = std::make_shared<Overlay>();
        overlay->function_list = base.function_list;
        for (const size_t slot : slots) {
            const ParsedFile& before = *base.files[slot];
            const ParsedFile& after = *files[slot];
            if (!same_declarations(before.facts, after.facts) ||
                base.shared(&before))
                return nullptr;
            overlay->old_names.push_back(before.unit.file_name.data());
            const std::string& file = after.unit.file_name;
            // The file's range of function_list holds its declarations in
            // the order the facts block lists them (merge_facts).
            uint32_t at = base.file_functions[slot];
            const auto replace = [&](const FunctionDecl* decl,
                                     const ClassDecl* owner) {
                FunctionRef& ref = overlay->function_list[at];
                overlay->functions.emplace_back(ref.decl, at++);
                ref = FunctionRef{decl, owner, file, ref.summary_slot};
            };
            for (size_t c = 0; c < before.facts.classes.size(); ++c) {
                const ClassDecl* cls = after.facts.classes[c];
                overlay->classes.emplace_back(before.facts.classes[c],
                                              ClassEntry{cls, &file});
                for (const FunctionDecl* method : cls->methods) replace(method, cls);
            }
            for (const FunctionDecl* fn : after.facts.functions) replace(fn, nullptr);
        }
        const auto by_old = [](const auto& a, const auto& b) {
            return std::less<>{}(a.first, b.first);
        };
        std::sort(overlay->functions.begin(), overlay->functions.end(), by_old);
        std::sort(overlay->classes.begin(), overlay->classes.end(), by_old);
        std::sort(overlay->old_names.begin(), overlay->old_names.end(),
                  std::less<const char*>{});
        overlay->called_functions = base.called_functions.patched(
            base.files, files, slots, called_function_lists);
        overlay->called_methods = base.called_methods.patched(
            base.files, files, slots, called_method_lists);
        overlay->slots = std::move(slots);
        return overlay;
    }
};

uint64_t content_hash(std::string_view text) noexcept { return fnv1a64(text); }

bool ends_with_path(std::string_view name, std::string_view path) noexcept {
    if (path.empty() || !ends_with(name, path)) return false;
    return name.size() == path.size() || path.front() == '/' ||
           name[name.size() - path.size() - 1] == '/';
}

IncludeIndex::IncludeIndex(const std::vector<std::string_view>& names) {
    by_name_.reserve(names.size());
    by_basename_.reserve(names.size());
    for (size_t pos = 0; pos < names.size(); ++pos) {
        by_name_.push_back({names[pos], names[pos], pos});
        by_basename_.push_back({basename_of(names[pos]), names[pos], pos});
    }
    const auto by_key = [](const Entry& a, const Entry& b) {
        return a.key != b.key ? a.key < b.key : a.pos < b.pos;
    };
    std::sort(by_name_.begin(), by_name_.end(), by_key);
    std::sort(by_basename_.begin(), by_basename_.end(), by_key);
}

size_t IncludeIndex::find(std::string_view name) const {
    const auto it = std::ranges::lower_bound(by_name_, name, {}, &Entry::key);
    return it != by_name_.end() && it->key == name ? it->pos : npos;
}

size_t IncludeIndex::resolve(std::string_view path) const {
    while (starts_with(path, "./")) path.remove_prefix(2);
    if (path.empty()) return npos;
    if (const size_t exact = find(path); exact != npos) return exact;
    const auto bucket = std::ranges::equal_range(by_basename_, basename_of(path),
                                                 {}, &Entry::key);
    for (const Entry& entry : bucket)
        if (ends_with_path(entry.name, path)) return entry.pos;
    return bucket.empty() ? npos : bucket.front().pos;  // basename fallback
}

std::string FunctionRef::qualified_name() const {
    if (!decl) return "<null>";
    if (owner) {
        std::string out(owner->name);
        out += "::";
        out += decl->name;
        return out;
    }
    return std::string(decl->name);
}

Project::Project(std::string name) : name_(std::move(name)) {
    static const std::shared_ptr<const Tables> kEmpty = std::make_shared<Tables>();
    tables_ = kEmpty;
}

void Project::add_file(std::string file_name, std::string text) {
    PendingFile pending;
    pending.slot = files_.size();
    pending.name = std::move(file_name);
    pending.text = std::move(text);
    files_.push_back(nullptr);  // placeholder; parse_all() fills it
    pending_.push_back(std::move(pending));
}

void Project::add_parsed(std::shared_ptr<const ParsedFile> file) {
    ++build_stats_.files_reused;
    files_.push_back(std::move(file));
}

std::shared_ptr<const ParsedFile> Project::parse_file(std::string name,
                                                      std::string text,
                                                      DiagnosticSink& sink,
                                                      double& lex_seconds) {
    auto pf = std::make_shared<ParsedFile>();
    pf->content_hash = content_hash(text);
    pf->text_bytes = text.size();
    pf->arena = Arena::sized_for(kArenaBytesPerSourceByte * text.size());
    pf->source = std::make_unique<SourceFile>(name, std::move(text));
    const obs::CounterDelta delta;
    Parser parser(*pf->source, pf->arena, sink);
    pf->unit = parser.parse();
    pf->ast_nodes = delta.take().ast_nodes;
    lex_seconds += parser.lex_cpu_seconds();
    record_facts(*pf);
    ++obs::tls().files_parsed;
    obs::tls().alloc_arena_bytes += pf->arena.bytes_allocated();
    obs::tls().alloc_arena_blocks += pf->arena.block_count();
    obs::tls().alloc_string_bytes += pf->arena.string_bytes();
    for (const std::string& failed : sink.failed_files())
        if (failed == name) pf->parse_failed = true;
    return pf;
}

void Project::parse_all(DiagnosticSink& sink) {
    const double build_start = thread_cpu_seconds();
    double lex_seconds = 0;
    for (PendingFile& pending : pending_) {
        files_[pending.slot] = parse_file(std::move(pending.name),
                                          std::move(pending.text), sink,
                                          lex_seconds);
    }
    pending_.clear();
    merge_facts();

    // Stage attribution: lex time is measured inside the parser; everything
    // else in this call (parsing proper, the facts walk and the merge)
    // counts as the parse stage of model construction.
    build_stats_.lex_cpu_seconds += lex_seconds;
    build_stats_.parse_cpu_seconds +=
        thread_cpu_seconds() - build_start - lex_seconds;
}

std::optional<Project> Project::fork_with_replacements(
    std::vector<Replacement> replacements, DiagnosticSink& sink) const {
    // An unbuilt project (pending files) has an empty include index, so an
    // unknown file and a project that was never parsed both refuse here.
    // Every name is checked before anything is parsed, so a refused fork
    // costs nothing.
    if (!pending_.empty()) return std::nullopt;
    std::vector<size_t> positions;
    positions.reserve(replacements.size());
    for (const Replacement& replacement : replacements) {
        positions.push_back(tables_->include_index.find(replacement.name));
        if (positions.back() == IncludeIndex::npos) return std::nullopt;
    }
    Project fork(name_);
    const double build_start = thread_cpu_seconds();
    double lex_seconds = 0;
    fork.files_ = files_;
    std::vector<size_t> slots = overlay_ ? overlay_->slots : std::vector<size_t>{};
    int parsed = 0;
    for (size_t i = 0; i < replacements.size(); ++i) {
        Replacement& replacement = replacements[i];
        const size_t slot = positions[i];
        if (replacement.parsed) {
            fork.files_[slot] = std::move(replacement.parsed);
        } else {
            fork.files_[slot] = parse_file(std::move(replacement.name),
                                           std::move(replacement.text), sink,
                                           lex_seconds);
            ++parsed;
        }
        if (std::ranges::find(slots, slot) == slots.end()) slots.push_back(slot);
    }
    fork.build_stats_.files_reused = static_cast<int>(files_.size()) - parsed;
    fork.tables_ = tables_;
    fork.overlay_ = Overlay::build(*tables_, fork.files_, std::move(slots));
    if (fork.overlay_) {
        ++obs::tls().forks_overlaid;
    } else {
        fork.merge_facts();
        ++obs::tls().forks_merged;
    }
    fork.build_stats_.lex_cpu_seconds = lex_seconds;
    fork.build_stats_.parse_cpu_seconds =
        thread_cpu_seconds() - build_start - lex_seconds;
    return fork;
}

void Project::merge_facts() {
    auto tables = std::make_shared<Tables>();
    tables->files = files_;
    std::vector<std::string_view> names;
    names.reserve(files_.size());
    tables->file_functions.reserve(files_.size() + 1);
    uint32_t& slots = tables->summary_slots;
    for (const std::shared_ptr<const ParsedFile>& pf : files_) {
        // Keys are views of the declaration names in the file's arena; the
        // file is the stable unit.file_name of the declaring ParsedFile.
        const std::string& file = pf->unit.file_name;
        names.emplace_back(file);
        tables->file_functions.push_back(
            static_cast<uint32_t>(tables->function_list.size()));
        const FactsBlock& facts = pf->facts;
        for (const ClassDecl* cls : facts.classes) {
            tables->classes.emplace(cls->name, ClassEntry{cls, &file});
            for (const FunctionDecl* method : cls->methods) {
                const FunctionRef ref{method, cls, file, slots};
                const auto [winner, added] =
                    tables->methods.emplace(MethodKey{cls->name, method->name}, ref);
                slots += added;
                tables->function_list.push_back(
                    FunctionRef{method, cls, file, winner->second.summary_slot});
            }
        }
        for (const FunctionDecl* fn : facts.functions) {
            const FunctionRef ref{fn, nullptr, file, slots};
            const auto [winner, added] = tables->functions.emplace(fn->name, ref);
            slots += added;
            tables->function_list.push_back(
                FunctionRef{fn, nullptr, file, winner->second.summary_slot});
        }
        for (const auto list : called_function_lists(facts))
            tables->called_functions.names.insert(
                tables->called_functions.names.end(), list.begin(), list.end());
        for (const auto list : called_method_lists(facts))
            tables->called_methods.names.insert(
                tables->called_methods.names.end(), list.begin(), list.end());
    }
    tables->file_functions.push_back(
        static_cast<uint32_t>(tables->function_list.size()));
    std::vector<const ParsedFile*> sorted;
    sorted.reserve(files_.size());
    for (const auto& pf : files_) sorted.push_back(pf.get());
    std::sort(sorted.begin(), sorted.end(), std::less<const ParsedFile*>{});
    for (size_t i = 1; i < sorted.size(); ++i)
        if (sorted[i] == sorted[i - 1] &&
            (tables->shared_files.empty() || tables->shared_files.back() != sorted[i]))
            tables->shared_files.push_back(sorted[i]);
    tables->called_functions.count_callers();
    tables->called_methods.count_callers();
    tables->include_index = IncludeIndex(names);
    tables_ = std::move(tables);
    overlay_.reset();
}

int Project::total_lines() const noexcept {
    int total = 0;
    for (const auto& pf : files_) total += pf->source->line_count();
    return total;
}

const ParsedFile* Project::file_named(std::string_view name) const {
    const size_t pos = tables_->include_index.find(name);
    return pos == IncludeIndex::npos ? nullptr : files_[pos].get();
}

const ParsedFile* Project::resolve_include(std::string_view path) const {
    const size_t pos = tables_->include_index.resolve(path);
    return pos == IncludeIndex::npos ? nullptr : files_[pos].get();
}

const FunctionRef* Project::current(const FunctionRef& ref) const {
    return overlay_ ? overlay_->current(ref) : &ref;
}

const FunctionRef* Project::find_function(std::string_view name) const {
    const auto it = tables_->functions.find(name);  // transparent folded compare
    return it == tables_->functions.end() ? nullptr : current(it->second);
}

const ClassDecl* Project::find_class(std::string_view name) const {
    const auto it = tables_->classes.find(name);
    if (it == tables_->classes.end()) return nullptr;
    return overlay_ ? overlay_->current(it->second).decl : it->second.decl;
}

const std::string& Project::file_of_class(std::string_view class_name) const {
    static const std::string kEmpty;
    const auto it = tables_->classes.find(class_name);
    if (it == tables_->classes.end()) return kEmpty;
    return overlay_ ? *overlay_->current(it->second).file : *it->second.file;
}

const FunctionRef* Project::find_method(std::string_view class_name,
                                        std::string_view method_name) const {
    std::string_view cls = class_name;
    // Walk the inheritance chain (single inheritance, as in PHP). The
    // composite key probes case-preserving; MethodKeyLess folds per part.
    // The overlay path keeps every class's parent, so the base tables'
    // parents are the fork's.
    for (int depth = 0; depth < 16; ++depth) {
        const auto it = tables_->methods.find(MethodKey{cls, method_name});
        if (it != tables_->methods.end()) return current(it->second);
        const auto cit = tables_->classes.find(cls);
        if (cit == tables_->classes.end() || cit->second.decl->parent.empty())
            return nullptr;
        cls = cit->second.decl->parent;
    }
    return nullptr;
}

const FunctionRef* Project::find_method_any(std::string_view method_name) const {
    const FunctionRef* found = nullptr;
    for (const auto& [key, ref] : tables_->methods) {
        if (folded_compare(key.method, method_name) != 0) continue;
        if (found) return nullptr;  // ambiguous
        found = &ref;
    }
    return found ? current(*found) : nullptr;
}

const std::vector<FunctionRef>& Project::all_functions() const noexcept {
    return overlay_ ? overlay_->function_list : tables_->function_list;
}

uint32_t Project::summary_slots() const noexcept {
    return tables_->summary_slots;
}

const std::vector<std::string_view>& Project::called_function_names()
    const noexcept {
    return overlay_ && overlay_->called_functions ? *overlay_->called_functions
                                                  : tables_->called_functions.names;
}

const std::vector<std::string_view>& Project::called_method_names()
    const noexcept {
    return overlay_ && overlay_->called_methods ? *overlay_->called_methods
                                                : tables_->called_methods.names;
}

std::vector<FunctionRef> Project::uncalled_functions() const {
    const std::vector<std::string_view>& called_functions =
        called_function_names();
    const std::vector<std::string_view>& called_methods = called_method_names();
    std::vector<FunctionRef> out;
    for (const FunctionRef& ref : all_functions()) {
        if (!ref.decl) continue;
        if (ref.owner) {
            if (iequals(ref.decl->name, "__construct")) continue;  // run via `new`
            if (!contains_folded(called_methods, ref.decl->name))
                out.push_back(ref);
        } else if (!contains_folded(called_functions, ref.decl->name)) {
            out.push_back(ref);
        }
    }
    return out;
}

}  // namespace phpsafe::php
