#include "corpus/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/strings.h"

namespace phpsafe::corpus {

namespace {

/// Per-family instance budgets at scale 1.0, calibrated so the population
/// statistics match the paper's evaluation (Table I/II shape; see
/// EXPERIMENTS.md for the calibration notes).
struct BudgetRow {
    Family family;
    int v2012;
    int v2014;
    /// Share of 2012 instances that survive unfixed into 2014 (§V.D).
    double carry;
    /// Percentage of instances placed in OOP-free files that the Pixy
    /// baseline can parse (only meaningful for OOP-free families).
    int pixy_visible_pct_2012;
    int pixy_visible_pct_2014;
};

constexpr BudgetRow kBudgets[] = {
    // Calibration (see EXPERIMENTS.md): the 2012/2014 counts solve the
    // paper's Table I identities —
    //   phpSAFE = parseable-generic + OOP + WP-function classes,
    //   RIPS    = parseable-generic + deep-include + wrong-context classes,
    //   Pixy    = register_globals + Pixy-visible share of generic,
    //   union   = 394 (2012) / 586 (2014).
    // family                              2012 2014 carry  vis12 vis14
    {Family::kXssGetEcho,                     8,  12, 0.70,   31,   4},
    {Family::kXssPostEcho,                    7,  10, 0.70,   31,   4},
    {Family::kXssPrintfGet,                   4,   6, 0.70,   31,   4},
    {Family::kXssExitMessage,                 3,   4, 0.70,   31,   4},
    {Family::kXssCookieEcho,                  8,  16, 0.70,   31,   4},
    {Family::kXssRequestPrint,                8,  16, 0.70,   31,   4},
    {Family::kXssGetViaFunction,              8,  10, 0.70,   31,   4},
    {Family::kXssDbProcedural,               17,  30, 0.70,   31,   4},
    {Family::kXssFileSource,                 12,   6, 0.50,   31,   4},
    {Family::kXssUncalledFn,                  3,   3, 0.70,    0,   0},
    {Family::kXssPregMatchFlow,               2,   2, 0.70,    0,   0},
    {Family::kXssDeepInclude,                40, 150, 0.00,    0,   0},
    {Family::kXssWpdbRows,                   60,  70, 0.70,    0,   0},
    {Family::kXssWpdbVar,                    40,  50, 0.70,    0,   0},
    {Family::kXssWpdbRevert,                 26,  30, 0.70,    0,   0},
    {Family::kXssOopProperty,                17,  20, 0.70,    0,   0},
    {Family::kXssWpOption,                   54,  60, 0.70,    0,   0},
    {Family::kXssWpPostmeta,                 30,  33, 0.70,    0,   0},
    {Family::kSqliWpdbQuery,                  4,   5, 0.80,    0,   0},
    {Family::kSqliMysqliOop,                  1,   1, 1.00,    0,   0},
    {Family::kSqliWpdbGetResults,             3,   3, 0.67,    0,   0},
    {Family::kXssRegisterGlobals,            25,  10, 0.40,  100, 100},
    {Family::kXssWrongContextSanitizer,      14,  39, 0.70,   30,  15},
    // Safe / FP-bait families (no ground-truth entries).
    {Family::kSafeSanitizedEcho,             20,  30, 0.62,   60,  60},
    {Family::kSafeEscHtml,                   16,  22, 0.62,   60,  60},
    {Family::kSafeGuardExit,                 25,  24, 0.62,   60,  60},
    {Family::kSafeWhitelistTernary,          20,  18, 0.62,   60,  60},
    {Family::kSafeIssetEcho,                120, 156, 0.62,  100, 100},
    {Family::kSafeJsonEncode,                10,   4, 0.40,  100, 100},
    {Family::kSafeIntval,                    15,  20, 0.62,   60,  60},
    {Family::kSafePrepare,                   10,  12, 0.62,    0,   0},
    {Family::kSafeSprintfD,                  16,  15, 0.62,   60,  60},
    {Family::kSafeCast,                      12,  15, 0.62,   60,  60},
    {Family::kSafeSqliGuard,                  2,   5, 0.62,    0,   0},
};

int scaled(int base, double scale) {
    if (base <= 0) return 0;
    return std::max(1, static_cast<int>(std::lround(base * scale)));
}

/// Which plugins carry deep-include chains in each version.
bool has_chain(int plugin_index, const std::string& version) {
    if (version == "2012") return plugin_index == 0;
    return plugin_index <= 2;
}

enum class SlotKind { kOop, kProc, kClean, kChainEntry, kChainLink, kChainTail };

struct SnippetPlacement {
    Family family;
    int ordinal = 0;       ///< global ordinal within the family
    std::string id;        ///< stable vulnerability id
    std::string tag;       ///< identifier suffix baked into the code
    bool carried = false;
};

struct FileSlot {
    std::string name;
    SlotKind kind = SlotKind::kProc;
    int plugin = 0;
    int chain_index = 0;  ///< for chain files
    std::vector<SnippetPlacement> placements;
};

struct VersionPlan {
    std::vector<FileSlot> slots;
};

/// File layout per plugin; the 2014 versions grow (paper: 266 files/89.5
/// KLOC in 2012 → 356 files/180.8 KLOC in 2014).
std::vector<std::pair<const char*, SlotKind>> file_layout(bool oop,
                                                          const std::string& version) {
    std::vector<std::pair<const char*, SlotKind>> files;
    if (oop) {
        files = {{"main.php", SlotKind::kOop},
                 {"admin/admin.php", SlotKind::kOop},
                 {"includes/model.php", SlotKind::kOop},
                 {"includes/helpers.php", SlotKind::kProc},
                 {"templates/render.php", SlotKind::kProc},
                 {"includes/utils.php", SlotKind::kClean}};
        if (version == "2014") {
            files.push_back({"admin/ajax.php", SlotKind::kOop});
            files.push_back({"includes/shortcodes.php", SlotKind::kProc});
            files.push_back({"includes/legacy.php", SlotKind::kClean});
            files.push_back({"includes/widgets.php", SlotKind::kOop});
        }
    } else {
        files = {{"main.php", SlotKind::kProc},
                 {"includes/helpers.php", SlotKind::kProc},
                 {"includes/utils.php", SlotKind::kClean},
                 {"includes/forms.php", SlotKind::kClean}};
        if (version == "2014") {
            files.push_back({"admin/ajax.php", SlotKind::kProc});
            files.push_back({"includes/widgets.php", SlotKind::kProc});
            files.push_back({"includes/legacy.php", SlotKind::kClean});
        }
    }
    return files;
}

constexpr int kChainLength = 9;  ///< chain-0 .. chain-8

class Planner {
public:
    Planner(const CorpusOptions& options, const std::string& version)
        : options_(options), version_(version) {
        // Build slots for every plugin.
        for (int p = 0; p < options.num_plugins; ++p) {
            const bool oop = p < options.num_oop_plugins;
            for (const auto& [name, kind] : file_layout(oop, version)) {
                FileSlot slot;
                slot.name = name;
                slot.kind = kind;
                slot.plugin = p;
                slots_.push_back(std::move(slot));
            }
            if (has_chain(p, version)) {
                for (int c = 0; c < kChainLength; ++c) {
                    FileSlot slot;
                    slot.name = "deep/chain-" + std::to_string(c) + ".php";
                    slot.kind = c == 0 ? SlotKind::kChainEntry
                              : c + 1 == kChainLength ? SlotKind::kChainTail
                                                      : SlotKind::kChainLink;
                    slot.plugin = p;
                    slot.chain_index = c;
                    slots_.push_back(std::move(slot));
                }
            }
        }
    }

    void place(const SnippetPlacement& placement, bool wants_clean, bool wants_oop,
               bool wants_chain) {
        FileSlot* slot = nullptr;
        if (wants_chain) {
            slot = next_slot(SlotKind::kChainEntry, chain_cursor_);
        } else if (wants_oop) {
            slot = next_slot(SlotKind::kOop, oop_cursor_);
        } else if (wants_clean) {
            slot = next_slot(SlotKind::kClean, clean_cursor_);
        } else {
            slot = next_slot(SlotKind::kProc, proc_cursor_);
        }
        if (!slot) slot = &slots_.front();
        slot->placements.push_back(placement);
    }

    std::vector<FileSlot>& slots() { return slots_; }

private:
    FileSlot* next_slot(SlotKind kind, size_t& cursor) {
        for (size_t step = 0; step < slots_.size(); ++step) {
            FileSlot& candidate = slots_[(cursor + step) % slots_.size()];
            if (candidate.kind == kind) {
                cursor = (cursor + step + 1) % slots_.size();
                return &candidate;
            }
        }
        return nullptr;
    }

    const CorpusOptions& options_;
    std::string version_;
    std::vector<FileSlot> slots_;
    size_t oop_cursor_ = 0;
    size_t proc_cursor_ = 0;
    size_t clean_cursor_ = 0;
    size_t chain_cursor_ = 0;
};

/// Composes the final text of one file slot, appending ground truth with
/// resolved 1-based line numbers.
std::string compose_file(const FileSlot& slot, const std::string& plugin_name,
                         const std::string& version, int filler_per_snippet,
                         int& filler_counter, std::vector<SeededVuln>* truth,
                         int* line_count) {
    std::vector<std::string> lines;
    lines.push_back("<?php");
    lines.push_back("/* " + plugin_name + " (" + version + ") — " + slot.name + " */");

    // OOP compatibility probe: marks the file as containing OOP constructs
    // (clean slots stay parseable by pre-OOP tools).
    if (slot.kind != SlotKind::kClean) {
        lines.push_back("$compat_probe_" + std::to_string(filler_counter) +
                        " = new stdClass();");
    }

    // Chain files include the next link before anything else.
    if (slot.kind == SlotKind::kChainEntry || slot.kind == SlotKind::kChainLink) {
        lines.push_back("require_once dirname(__FILE__) . '/chain-" +
                        std::to_string(slot.chain_index + 1) + ".php';");
    }

    auto add_filler = [&](int weight) {
        if (weight <= 0) return;
        Snippet filler = emit_filler(
            "c" + std::to_string(filler_counter), filler_counter, weight);
        ++filler_counter;
        lines.push_back("");
        for (std::string& l : filler.lines) lines.push_back(std::move(l));
    };

    for (const SnippetPlacement& placement : slot.placements) {
        add_filler(filler_per_snippet);
        lines.push_back("");
        Snippet snippet = emit(placement.family, placement.tag,
                               placement.ordinal + slot.plugin * 7);
        const int base = static_cast<int>(lines.size());  // 0-based index of next line
        for (std::string& l : snippet.lines) lines.push_back(std::move(l));
        const FamilyTraits t = traits(placement.family);
        if (t.vulnerable && truth) {
            for (int offset : snippet.sink_line_offsets) {
                SeededVuln vuln;
                vuln.id = placement.id;
                vuln.family = placement.family;
                vuln.kind = t.kind;
                vuln.file = slot.name;
                vuln.line = base + offset + 1;  // 1-based
                vuln.vector = t.vector;
                vuln.via_oop = t.via_oop;
                vuln.easy_exploit = t.easy_exploit;
                vuln.carried_over = placement.carried;
                truth->push_back(std::move(vuln));
            }
        }
    }
    add_filler(filler_per_snippet);

    if (line_count) *line_count = static_cast<int>(lines.size());
    std::string text;
    for (const std::string& l : lines) {
        text += l;
        text += '\n';
    }
    return text;
}

}  // namespace

std::map<Family, int> family_budget(const std::string& version, double scale) {
    std::map<Family, int> budget;
    for (const BudgetRow& row : kBudgets)
        budget[row.family] = scaled(version == "2012" ? row.v2012 : row.v2014, scale);
    return budget;
}

std::vector<SeededVuln> Corpus::all_truth(const std::string& version) const {
    std::vector<SeededVuln> all;
    for (const GeneratedPlugin& plugin : plugins) {
        const PluginVersionSource& src = version == "2012" ? plugin.v2012 : plugin.v2014;
        all.insert(all.end(), src.truth.begin(), src.truth.end());
    }
    return all;
}

int Corpus::total_lines(const std::string& version) const {
    int total = 0;
    for (const GeneratedPlugin& plugin : plugins)
        total += (version == "2012" ? plugin.v2012 : plugin.v2014).total_lines;
    return total;
}

int Corpus::total_files(const std::string& version) const {
    int total = 0;
    for (const GeneratedPlugin& plugin : plugins)
        total += static_cast<int>(
            (version == "2012" ? plugin.v2012 : plugin.v2014).files.size());
    return total;
}

Corpus generate_corpus(const CorpusOptions& options) {
    Corpus corpus;
    corpus.options = options;
    corpus.plugins.resize(options.num_plugins);
    for (int p = 0; p < options.num_plugins; ++p) {
        corpus.plugins[p].name =
            "plugin-" + std::string(p < 10 ? "0" : "") + std::to_string(p);
        corpus.plugins[p].oop = p < options.num_oop_plugins;
    }

    for (const auto& version : {std::string("2012"), std::string("2014")}) {
        Planner planner(options, version);
        const auto budget = family_budget(version, options.scale);
        const auto budget_2012 = family_budget("2012", options.scale);

        for (const BudgetRow& row : kBudgets) {
            const int count = budget.at(row.family);
            const int carried_count =
                version == "2014"
                    ? std::min(count, static_cast<int>(std::lround(
                                          budget_2012.at(row.family) * row.carry)))
                    : 0;
            const int visible_pct = version == "2012" ? row.pixy_visible_pct_2012
                                                      : row.pixy_visible_pct_2014;
            const FamilyTraits t = traits(row.family);
            for (int ordinal = 0; ordinal < count; ++ordinal) {
                SnippetPlacement placement;
                placement.family = row.family;
                placement.ordinal = ordinal;
                // Carried instances keep their 2012 id (same vulnerability,
                // unfixed); instances introduced in 2014 get fresh ids.
                const bool is_new_in_2014 =
                    version == "2014" && ordinal >= carried_count;
                placement.id = to_string(row.family) + "/" +
                               (is_new_in_2014 ? "n" : "") + std::to_string(ordinal);
                placement.tag =
                    "s" + std::to_string(static_cast<int>(row.family)) + "_" +
                    std::to_string(ordinal);
                placement.carried = version == "2014" && ordinal < carried_count;
                const bool wants_clean = !t.requires_oop_file && count > 0 &&
                                         (ordinal * 100 / count) < visible_pct;
                const bool wants_chain = row.family == Family::kXssDeepInclude;
                planner.place(placement, wants_clean, t.requires_oop_file, wants_chain);
            }
        }

        // Compose files. Filler budget is split evenly over snippets.
        int total_snippets = 0;
        for (const FileSlot& slot : planner.slots())
            total_snippets += static_cast<int>(slot.placements.size()) + 1;
        const int filler_budget = scaled(
            version == "2012" ? options.filler_lines_2012 : options.filler_lines_2014,
            options.scale);
        const int filler_per_snippet =
            total_snippets > 0 ? std::max(4, filler_budget / total_snippets) : 8;

        int filler_counter = static_cast<int>(options.seed % 1000);
        for (FileSlot& slot : planner.slots()) {
            GeneratedPlugin& plugin = corpus.plugins[slot.plugin];
            PluginVersionSource& out = version == "2012" ? plugin.v2012 : plugin.v2014;
            out.version = version;
            int line_count = 0;
            std::string text =
                compose_file(slot, plugin.name, version, filler_per_snippet,
                             filler_counter, &out.truth, &line_count);
            out.files.emplace_back(slot.name, std::move(text));
            out.total_lines += line_count;
        }
    }
    return corpus;
}

namespace {

constexpr int kMonorepoLibs = 6;

std::string monorepo_plugin_name(int index) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "plugin-%03d", index);
    return buf;
}

}  // namespace

MonorepoSource generate_monorepo(const MonorepoOptions& options) {
    MonorepoSource repo;
    const int plugins =
        std::max(1, static_cast<int>(std::lround(32 * options.scale)));
    const int parts = std::max(1, options.files_per_plugin - 1);
    const int orphans =
        std::max(2, static_cast<int>(std::lround(4 * options.scale)));

    auto add_file = [&](std::string name, std::vector<std::string> lines) {
        std::string text;
        for (const std::string& l : lines) {
            text += l;
            text += '\n';
        }
        repo.total_lines += static_cast<int>(lines.size());
        repo.files.emplace_back(std::move(name), std::move(text));
    };

    // Shared framework: libraries + the include hub that loads them all.
    for (int k = 0; k < kMonorepoLibs; ++k) {
        const std::string ks = std::to_string(k);
        add_file("framework/lib-" + ks + ".php",
                 {"<?php",
                  "/* framework library " + ks + " — shared by every plugin */",
                  "function fw_helper_" + ks + "($value) {",
                  "    return htmlspecialchars($value);",
                  "}",
                  "function fw_tag_" + ks + "() { return 'fw-" + ks + "'; }"});
    }
    {
        std::vector<std::string> lines = {
            "<?php", "/* framework loader — the include hub */"};
        for (int k = 0; k < kMonorepoLibs; ++k)
            lines.push_back("require_once 'framework/lib-" +
                            std::to_string(k) + ".php';");
        lines.push_back("function fw_boot() { return fw_tag_0(); }");
        add_file("framework/core.php", std::move(lines));
    }
    repo.truth.hub_files = {"framework/core.php"};
    repo.truth.vendor_dirs = {"framework"};

    // A deliberate include cycle (a → b → c → a).
    {
        const char* names[] = {"a", "b", "c"};
        for (int i = 0; i < 3; ++i) {
            const std::string next = names[(i + 1) % 3];
            add_file(std::string("framework/cycle/") + names[i] + ".php",
                     {"<?php",
                      "require_once 'framework/cycle/" + next + ".php';",
                      "function cycle_" + std::string(names[i]) +
                          "() { return 1; }"});
        }
        repo.truth.include_cycles = {{"framework/cycle/a.php",
                                      "framework/cycle/b.php",
                                      "framework/cycle/c.php"}};
    }

    // Planted orphans: subdirectory files nothing includes and nothing
    // uses (unique function names nothing calls).
    for (int n = 0; n < orphans; ++n) {
        const std::string ns = std::to_string(n);
        const std::string name = "framework/unused/orphan-" + ns + ".php";
        add_file(name, {"<?php",
                        "/* experimental helper, never wired up */",
                        "function orphan_probe_" + ns + "() { return " + ns +
                            "; }"});
        repo.truth.orphan_files.push_back(name);
    }

    // Plugins: main.php requires the framework core and every part by its
    // exact repo path; parts call framework helpers (use edges into the
    // vendor dir). Every fourth plugin hides one seeded vulnerability.
    static constexpr Family kSeededFamilies[] = {
        Family::kXssGetEcho, Family::kXssPostEcho, Family::kXssCookieEcho,
        Family::kSqliWpdbQuery};
    std::string plugin0_main;  // backup-file source, captured below
    std::string plugin0_part;
    int vuln_ordinal = 0;
    for (int p = 0; p < plugins; ++p) {
        const std::string pname = monorepo_plugin_name(p);
        std::vector<std::string> main_lines = {
            "<?php", "/* " + pname + " — entry point */",
            "require_once 'framework/core.php';"};
        for (int k = 0; k < parts; ++k) {
            const std::string ks = std::to_string(k);
            const std::string part_name = pname + "/inc/part-" + ks + ".php";
            main_lines.push_back("require_once '" + part_name + "';");

            const std::string fn =
                "p" + std::to_string(p) + "_part" + ks + "_render";
            std::vector<std::string> part_lines = {
                "<?php",
                "function " + fn + "($value) {",
                "    return fw_helper_" + std::to_string(k % kMonorepoLibs) +
                    "($value);",
                "}"};
            if (p % 4 == 2 && k == 1) {
                const Family family =
                    kSeededFamilies[(p / 4) %
                                    (sizeof kSeededFamilies /
                                     sizeof kSeededFamilies[0])];
                const std::string tag = "m" + std::to_string(p);
                Snippet snippet = emit(
                    family, tag,
                    static_cast<int>(options.seed % 97) + p);
                const int base = static_cast<int>(part_lines.size());
                part_lines.push_back("");
                for (std::string& l : snippet.lines)
                    part_lines.push_back(std::move(l));
                const FamilyTraits t = traits(family);
                for (int offset : snippet.sink_line_offsets) {
                    SeededVuln vuln;
                    vuln.id = pname + "/" + to_string(family) + "/" +
                              std::to_string(vuln_ordinal);
                    vuln.family = family;
                    vuln.kind = t.kind;
                    vuln.file = part_name;
                    vuln.line = base + 1 + offset + 1;  // after the blank
                    vuln.vector = t.vector;
                    vuln.via_oop = t.via_oop;
                    vuln.easy_exploit = t.easy_exploit;
                    repo.seeded_vulns.push_back(std::move(vuln));
                }
                ++vuln_ordinal;
            }
            std::string part_text;
            for (const std::string& l : part_lines) {
                part_text += l;
                part_text += '\n';
            }
            if (p == 0 && k == 0) plugin0_part = part_text;
            repo.total_lines += static_cast<int>(part_lines.size());
            repo.files.emplace_back(part_name, std::move(part_text));
        }
        main_lines.push_back("fw_boot();");
        main_lines.push_back(
            "p" + std::to_string(p) + "_part0_render('ready');");
        std::string main_text;
        for (const std::string& l : main_lines) {
            main_text += l;
            main_text += '\n';
        }
        if (p == 0) plugin0_main = main_text;
        repo.total_lines += static_cast<int>(main_lines.size());
        repo.files.emplace_back(pname + "/main.php", std::move(main_text));
    }

    // Shipped backups: byte copies under leftover names — a real
    // plugin-audit finding (servers execute them).
    auto add_text = [&](std::string name, const std::string& text) {
        repo.total_lines +=
            static_cast<int>(std::count(text.begin(), text.end(), '\n'));
        repo.files.emplace_back(std::move(name), text);
    };
    add_text("plugin-000/main.php.bak", plugin0_main);
    add_text("plugin-000/inc/part-0.php~", plugin0_part);
    repo.truth.backup_files = {"plugin-000/inc/part-0.php~",
                               "plugin-000/main.php.bak"};

    std::sort(repo.files.begin(), repo.files.end());
    std::sort(repo.truth.orphan_files.begin(), repo.truth.orphan_files.end());
    return repo;
}

php::Project build_project(const GeneratedPlugin& plugin,
                           const PluginVersionSource& version,
                           DiagnosticSink& sink) {
    php::Project project(plugin.name + "@" + version.version);
    for (const auto& [name, text] : version.files) project.add_file(name, text);
    project.parse_all(sink);
    return project;
}

}  // namespace phpsafe::corpus
