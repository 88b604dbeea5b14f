// Synthetic WordPress-plugin corpus generator — the substitute for the
// paper's evaluation dataset (35 real plugins in 2012 and 2014 snapshots,
// which are neither redistributable nor available offline; see DESIGN.md §2).
//
// The generator is fully deterministic: the same options always produce the
// same corpus, byte for byte. Each plugin exists in two versions modeling
// the paper's two-year evolution: the 2014 version is larger, carries over
// a calibrated share of the 2012 vulnerabilities (§V.D "inertia in fixing
// vulnerabilities"), fixes the rest, and introduces new ones. Every seeded
// defect carries ground-truth metadata (kind, sink file/line, input vector,
// whether the flow passes through OOP constructs, whether it is trivially
// exploitable via GET/POST/COOKIE).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "config/knowledge.h"
#include "corpus/patterns.h"
#include "php/project.h"
#include "util/diagnostics.h"

namespace phpsafe::corpus {

struct SeededVuln {
    std::string id;        ///< stable across versions: "plugin-03/xss_wpdb_rows/7"
    Family family;
    VulnKind kind = VulnKind::kXss;
    std::string file;      ///< project-relative path of the sink
    int line = 0;          ///< 1-based sink line
    InputVector vector = InputVector::kUnknown;
    bool via_oop = false;
    bool easy_exploit = false;  ///< GET/POST/COOKIE manipulation (paper §V.D)
    bool carried_over = false;  ///< (2014 only) already present & disclosed in 2012
};

/// One version (2012 or 2014) of one plugin: file contents + ground truth.
struct PluginVersionSource {
    std::string version;  ///< "2012" or "2014"
    std::vector<std::pair<std::string, std::string>> files;  ///< (name, content)
    std::vector<SeededVuln> truth;
    int total_lines = 0;
};

struct GeneratedPlugin {
    std::string name;      ///< "plugin-07"
    bool oop = false;      ///< plugin uses OOP (19 of 35 in the paper)
    PluginVersionSource v2012;
    PluginVersionSource v2014;
};

struct CorpusOptions {
    int num_plugins = 35;
    int num_oop_plugins = 19;
    /// Scales both vulnerability budgets and filler volume; tests use a
    /// small scale, benches the full corpus.
    double scale = 1.0;
    /// Approximate total benign-filler lines per version at scale 1.0
    /// (paper: 89,560 LOC in 2012, 180,801 in 2014).
    int filler_lines_2012 = 70000;
    int filler_lines_2014 = 150000;
    /// Deterministic seed for cosmetic variation.
    unsigned seed = 2015;
};

struct Corpus {
    CorpusOptions options;
    std::vector<GeneratedPlugin> plugins;

    /// All ground-truth vulnerabilities of one version across plugins.
    std::vector<SeededVuln> all_truth(const std::string& version) const;
    int total_lines(const std::string& version) const;
    int total_files(const std::string& version) const;
};

/// Generates the corpus. Deterministic for fixed options.
Corpus generate_corpus(const CorpusOptions& options = {});

/// Parses one plugin version into an analyzable project.
php::Project build_project(const GeneratedPlugin& plugin,
                           const PluginVersionSource& version,
                           DiagnosticSink& sink);

/// Per-family instance budgets for one version; exposed for tests and for
/// the calibration notes in EXPERIMENTS.md.
std::map<Family, int> family_budget(const std::string& version, double scale);

// ---------------------------------------------------------------------------
// Vendored-monorepo corpus — the shape the graph subsystem and watch mode
// are benchmarked against (docs/graph.md): many small plugins sharing one
// framework directory, plus the structural defects a plugin review should
// surface (orphans, an include cycle, shipped backup files).
// ---------------------------------------------------------------------------

struct MonorepoOptions {
    /// Scales the plugin count: plugins = round(32 * scale), so scale 8
    /// crosses 10k files at the default files_per_plugin.
    double scale = 1.0;
    /// Files per plugin: one main.php plus (files_per_plugin - 1) include
    /// parts, every part included from main by its exact repo path.
    int files_per_plugin = 40;
    /// Deterministic seed for cosmetic variation.
    unsigned seed = 2015;
};

/// Structural ground truth of the generated tree, in the vocabulary of
/// graph::ProjectGraph::Analytics. All lists are name-sorted.
struct MonorepoTruth {
    std::vector<std::string> orphan_files;   ///< nothing includes or uses
    std::vector<std::string> backup_files;   ///< *.bak / *~ leftovers
    std::vector<std::vector<std::string>> include_cycles;
    std::vector<std::string> vendor_dirs;    ///< shared framework dirs
    std::vector<std::string> hub_files;      ///< top include fan-in
};

struct MonorepoSource {
    std::vector<std::pair<std::string, std::string>> files;  ///< name-sorted
    MonorepoTruth truth;
    std::vector<SeededVuln> seeded_vulns;  ///< planted findings (file/line)
    int total_lines = 0;
};

/// Generates the monorepo. Deterministic for fixed options: same options,
/// byte-identical tree. Layout:
///   framework/core.php           include hub, required by every plugin
///   framework/lib-K.php          shared helpers, required by core
///   framework/cycle/{a,b,c}.php  a deliberate include cycle
///   framework/unused/orphan-N.php  planted orphans
///   plugin-NNN/main.php          requires core + every part (exact paths)
///   plugin-NNN/inc/part-K.php    helpers calling framework functions;
///                                every fourth plugin hides one seeded vuln
///   plugin-000/main.php.bak, plugin-000/inc/part-0.php~  shipped backups
MonorepoSource generate_monorepo(const MonorepoOptions& options = {});

}  // namespace phpsafe::corpus
