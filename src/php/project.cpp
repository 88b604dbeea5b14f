#include "php/project.h"

#include <algorithm>

#include "obs/counters.h"
#include "php/parser.h"
#include "php/walk.h"
#include "util/strings.h"
#include "util/timing.h"

namespace phpsafe::php {

uint64_t content_hash(std::string_view text) noexcept { return fnv1a64(text); }

bool ends_with_path(std::string_view name, std::string_view path) noexcept {
    if (path.empty() || !ends_with(name, path)) return false;
    return name.size() == path.size() || path.front() == '/' ||
           name[name.size() - path.size() - 1] == '/';
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
    pf->source = std::make_unique<SourceFile>(name, std::move(text));
    const obs::CounterDelta delta;
    Parser parser(*pf->source, pf->arena, sink);
    pf->unit = parser.parse();
    pf->ast_nodes = delta.take().ast_nodes;
    lex_seconds += parser.lex_cpu_seconds();
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

    file_calls_.assign(files_.size(), FileCalls{});
    for (size_t i = 0; i < files_.size(); ++i) {
        const std::shared_ptr<const ParsedFile>& pf = files_[i];
        index_statements(pf->unit.statements, pf->unit.file_name);
        current_calls_ = &file_calls_[i];
        for (const StmtPtr& s : pf->unit.statements)
            if (s) record_calls_stmt(*s);
    }
    current_calls_ = nullptr;
    merge_calls();

    // Stage attribution: lex time is measured inside the parser; everything
    // else in this call (parsing proper plus declaration indexing) counts as
    // the parse stage of model construction.
    build_stats_.lex_cpu_seconds += lex_seconds;
    build_stats_.parse_cpu_seconds +=
        thread_cpu_seconds() - build_start - lex_seconds;
}

std::optional<Project> Project::fork_with_replacement(
    std::string_view file_name, std::string text, DiagnosticSink& sink) const {
    size_t slot = files_.size();
    for (size_t i = 0; i < files_.size(); ++i)
        if (files_[i] && files_[i]->unit.file_name == file_name) {
            slot = i;
            break;
        }
    // Refuse when the file is unknown or this project was never fully built
    // (unparsed pending files, or no per-file call provenance to subtract).
    if (slot == files_.size() || !pending_.empty() ||
        file_calls_.size() != files_.size())
        return std::nullopt;

    Project fork(name_);
    const double build_start = thread_cpu_seconds();
    double lex_seconds = 0;
    fork.files_ = files_;
    const std::shared_ptr<const ParsedFile> replacement =
        parse_file(std::string(file_name), std::move(text), sink, lex_seconds);
    fork.files_[slot] = replacement;
    fork.build_stats_.files_reused = static_cast<int>(files_.size()) - 1;

    // Index the replacement alone, then capture its entries for splicing.
    fork.index_statements(replacement->unit.statements,
                          replacement->unit.file_name);
    const std::vector<FunctionRef> repl_functions =
        std::move(fork.function_list_);
    const std::vector<std::pair<const ClassDecl*, const std::string*>>
        repl_classes = std::move(fork.class_list_);
    fork.functions_.clear();
    fork.methods_.clear();
    fork.classes_.clear();
    fork.class_files_.clear();
    fork.function_list_.clear();
    fork.class_list_.clear();

    // Splice declaration order: parse_all() indexes file by file, so each
    // list is a sequence of per-file blocks in registration order. Keep the
    // unchanged files' blocks (their views stay valid — the fork shares
    // those ParsedFiles), drop the replaced file's, and put the
    // replacement's block where the old one was.
    std::map<std::string_view, size_t> file_order;
    for (size_t i = 0; i < files_.size(); ++i)
        file_order.emplace(files_[i]->unit.file_name, i);
    const auto order_of = [&](std::string_view file) {
        const auto it = file_order.find(file);
        return it == file_order.end() ? files_.size() : it->second;
    };
    bool fn_spliced = false;
    for (const FunctionRef& ref : function_list_) {
        const size_t ord = order_of(ref.file);
        if (ord == slot) continue;
        if (!fn_spliced && ord > slot) {
            fork.function_list_.insert(fork.function_list_.end(),
                                       repl_functions.begin(),
                                       repl_functions.end());
            fn_spliced = true;
        }
        fork.function_list_.push_back(ref);
    }
    if (!fn_spliced)
        fork.function_list_.insert(fork.function_list_.end(),
                                   repl_functions.begin(),
                                   repl_functions.end());
    bool cls_spliced = false;
    for (const auto& entry : class_list_) {
        const size_t ord = order_of(*entry.second);
        if (ord == slot) continue;
        if (!cls_spliced && ord > slot) {
            fork.class_list_.insert(fork.class_list_.end(),
                                    repl_classes.begin(), repl_classes.end());
            cls_spliced = true;
        }
        fork.class_list_.push_back(entry);
    }
    if (!cls_spliced)
        fork.class_list_.insert(fork.class_list_.end(), repl_classes.begin(),
                                repl_classes.end());

    // Rebuild the lookup maps from the spliced lists. Iterating in
    // declaration order reproduces parse_all()'s emplace order exactly, so
    // duplicate declarations resolve to the same winners a full rebuild of
    // the patched file set would pick.
    for (const FunctionRef& ref : fork.function_list_) {
        if (ref.owner)
            fork.methods_.emplace(MethodKey{ref.owner->name, ref.decl->name},
                                  ref);
        else
            fork.functions_.emplace(ref.decl->name, ref);
    }
    for (const auto& [decl, file] : fork.class_list_) {
        fork.classes_.emplace(decl->name, decl);
        fork.class_files_.emplace(decl->name, file);
    }

    // Called-name sets: keep the unchanged files' per-file contributions,
    // re-record only the replacement's, and re-merge.
    fork.file_calls_ = file_calls_;
    fork.file_calls_[slot] = FileCalls{};
    fork.current_calls_ = &fork.file_calls_[slot];
    for (const StmtPtr& s : replacement->unit.statements)
        if (s) fork.record_calls_stmt(*s);
    fork.current_calls_ = nullptr;
    fork.merge_calls();

    fork.build_stats_.lex_cpu_seconds = lex_seconds;
    fork.build_stats_.parse_cpu_seconds =
        thread_cpu_seconds() - build_start - lex_seconds;
    return fork;
}

std::string Project::declaration_fingerprint(std::string_view file) const {
    std::string fp;
    for (const auto& [decl, from] : class_list_) {
        if (*from != file) continue;
        fp += "class ";
        fp += decl->name;
        fp += ';';
    }
    for (const FunctionRef& ref : function_list_) {
        if (ref.file != file) continue;
        fp += ref.qualified_name();
        fp += ';';
    }
    return fp;
}

int Project::total_lines() const noexcept {
    int total = 0;
    for (const auto& pf : files_) total += pf->source->line_count();
    return total;
}

const ParsedFile* Project::file_named(std::string_view name) const {
    for (const auto& pf : files_)
        if (pf && pf->source->name() == name) return pf.get();
    return nullptr;
}

void Project::index_statements(const ArenaVector<StmtPtr>& stmts,
                               const std::string& file) {
    // Pass 1: register classes and their methods. Keys are views of the
    // declaration names in the file's arena; `file` is the stable
    // unit.file_name of the declaring ParsedFile — indexing a declaration
    // costs one tree-node allocation and nothing else.
    auto visit = [&](const Stmt& s) {
        if (s.kind != NodeKind::kClassDecl) return;
        const auto& cls = static_cast<const ClassDecl&>(s);
        classes_.emplace(cls.name, &cls);
        class_files_.emplace(cls.name, &file);
        class_list_.emplace_back(&cls, &file);
        for (const FunctionDecl* method : cls.methods) {
            FunctionRef ref{method, &cls, file};
            methods_.emplace(MethodKey{cls.name, method->name}, ref);
            function_list_.push_back(ref);
        }
    };
    for (const StmtPtr& stmt : stmts)
        if (stmt) walk_stmt(*stmt, [](const Expr&) {}, visit);

    // Pass 2: free functions, wherever declared (top level, inside
    // conditional guards, nested in other functions). walk_stmt also visits
    // method FunctionDecls; the parser marks those with is_method.
    auto visit_fn = [&](const Stmt& s) {
        if (s.kind != NodeKind::kFunctionDecl) return;
        const auto& fn = static_cast<const FunctionDecl&>(s);
        if (fn.is_method) return;
        FunctionRef ref{&fn, nullptr, file};
        functions_.emplace(fn.name, ref);
        function_list_.push_back(ref);
    };
    for (const StmtPtr& stmt : stmts)
        if (stmt) walk_stmt(*stmt, [](const Expr&) {}, visit_fn);
}

void Project::record_calls_stmt(const Stmt& s) {
    walk_stmt(
        s, [this](const Expr& e) { record_calls_expr(e); }, [](const Stmt&) {});
}

void Project::note_called_function(std::string_view name) {
    call_key_.clear();
    append_folded(call_key_, name);
    std::set<std::string>& into =
        current_calls_ ? current_calls_->functions : called_functions_;
    if (!into.count(call_key_)) into.insert(call_key_);
}

void Project::note_called_method(std::string_view class_name,
                                 std::string_view method) {
    call_key_.clear();
    append_folded(call_key_, class_name);
    call_key_ += "::";
    append_folded(call_key_, method);
    std::set<std::string>& into =
        current_calls_ ? current_calls_->methods : called_methods_;
    if (!into.count(call_key_)) into.insert(call_key_);
}

void Project::merge_calls() {
    called_functions_.clear();
    called_methods_.clear();
    for (const FileCalls& calls : file_calls_) {
        called_functions_.insert(calls.functions.begin(), calls.functions.end());
        called_methods_.insert(calls.methods.begin(), calls.methods.end());
    }
}

void Project::record_calls_expr(const Expr& e) {
    switch (e.kind) {
        case NodeKind::kFunctionCall: {
            const auto& call = static_cast<const FunctionCall&>(e);
            if (!call.name.empty()) note_called_function(call.name);
            // Callback registration APIs make the named function "called":
            // add_action('init', 'my_handler') etc. keep handlers reachable.
            static const char* kCallbackApis[] = {
                "add_action", "add_filter", "register_activation_hook",
                "register_deactivation_hook", "add_shortcode", "call_user_func",
                "call_user_func_array", "array_map", "array_filter", "usort",
            };
            for (const char* api : kCallbackApis) {
                if (!iequals(call.name, api)) continue;
                for (const Argument& arg : call.args) {
                    if (!arg.value) continue;
                    if (arg.value->kind == NodeKind::kLiteral) {
                        const auto& lit = static_cast<const Literal&>(*arg.value);
                        if (lit.type == Literal::Type::kString && !lit.value.empty())
                            note_called_function(lit.value);
                    }
                    // array($obj, 'method') / array('Class', 'method')
                    if (arg.value->kind == NodeKind::kArrayLiteral) {
                        const auto& arr = static_cast<const ArrayLiteral&>(*arg.value);
                        if (arr.items.size() == 2 && arr.items[1].value &&
                            arr.items[1].value->kind == NodeKind::kLiteral) {
                            const auto& lit =
                                static_cast<const Literal&>(*arr.items[1].value);
                            if (lit.type == Literal::Type::kString)
                                note_called_method("", lit.value);
                        }
                    }
                }
            }
            break;
        }
        case NodeKind::kMethodCall: {
            const auto& call = static_cast<const MethodCall&>(e);
            if (!call.method.empty())
                note_called_method("", call.method);
            break;
        }
        case NodeKind::kStaticCall: {
            const auto& call = static_cast<const StaticCall&>(e);
            note_called_method(call.class_name, call.method);
            note_called_method("", call.method);
            break;
        }
        case NodeKind::kNew: {
            const auto& n = static_cast<const New&>(e);
            if (!n.class_name.empty())
                note_called_method(n.class_name, "__construct");
            break;
        }
        default:
            break;
    }
}

const FunctionRef* Project::find_function(std::string_view name) const {
    const auto it = functions_.find(name);  // transparent folded compare
    return it == functions_.end() ? nullptr : &it->second;
}

const ClassDecl* Project::find_class(std::string_view name) const {
    const auto it = classes_.find(name);
    return it == classes_.end() ? nullptr : it->second;
}

const std::string& Project::file_of_class(std::string_view class_name) const {
    static const std::string kEmpty;
    const auto it = class_files_.find(class_name);
    return it == class_files_.end() ? kEmpty : *it->second;
}

const FunctionRef* Project::find_method(std::string_view class_name,
                                        std::string_view method_name) const {
    std::string_view cls = class_name;
    // Walk the inheritance chain (single inheritance, as in PHP). The
    // composite key probes case-preserving; MethodKeyLess folds per part.
    for (int depth = 0; depth < 16; ++depth) {
        const auto it = methods_.find(MethodKey{cls, method_name});
        if (it != methods_.end()) return &it->second;
        const auto cit = classes_.find(cls);
        if (cit == classes_.end() || cit->second->parent.empty()) return nullptr;
        cls = cit->second->parent;
    }
    return nullptr;
}

const FunctionRef* Project::find_method_any(std::string_view method_name) const {
    const FunctionRef* found = nullptr;
    for (const auto& [key, ref] : methods_) {
        if (folded_compare(key.method, method_name) != 0) continue;
        if (found) return nullptr;  // ambiguous
        found = &ref;
    }
    return found;
}

std::vector<FunctionRef> Project::uncalled_functions() const {
    std::vector<FunctionRef> out;
    for (const FunctionRef& ref : function_list_) {
        if (!ref.decl) continue;
        if (ref.owner) {
            const std::string method = ascii_lower(ref.decl->name);
            if (method == "__construct") continue;  // run via `new`
            const bool called =
                called_methods_.count(ascii_lower(ref.owner->name) + "::" + method) ||
                called_methods_.count("::" + method);
            if (!called) out.push_back(ref);
        } else {
            if (!called_functions_.count(ascii_lower(ref.decl->name)))
                out.push_back(ref);
        }
    }
    return out;
}

const ParsedFile* Project::resolve_include(std::string_view path) const {
    if (path.empty()) return nullptr;
    // Normalize leading "./".
    while (starts_with(path, "./")) path.remove_prefix(2);

    for (const auto& pf : files_)
        if (pf->source->name() == path) return pf.get();
    for (const auto& pf : files_)
        if (ends_with_path(pf->source->name(), path)) return pf.get();
    // Basename match as last resort.
    const size_t slash = path.rfind('/');
    const std::string_view base =
        slash == std::string_view::npos ? path : path.substr(slash + 1);
    for (const auto& pf : files_) {
        const std::string& name = pf->source->name();
        const size_t s = name.rfind('/');
        const std::string_view file_base =
            s == std::string::npos ? std::string_view(name)
                                   : std::string_view(name).substr(s + 1);
        if (file_base == base) return pf.get();
    }
    return nullptr;
}

}  // namespace phpsafe::php
