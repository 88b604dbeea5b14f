// Whole-corpus evaluation driver — the programmatic form of the paper's
// experimental procedure (§IV.B): run a set of tools over both versions of
// every plugin, match reports against ground truth, and aggregate the
// statistics every table/figure is computed from. The bench binaries are
// thin printers over this API; downstream users can run the same
// evaluation against their own tool configurations.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/analyzers.h"
#include "corpus/generator.h"
#include "obs/counters.h"

namespace phpsafe {

/// Per-stage CPU time of a run (paper Table III scope, split by pipeline
/// stage). The model stages (lex, parse) are measured once per
/// (plugin, version) — the project is built once and shared by every tool —
/// and credited to each tool's stats, preserving the Table III convention
/// that a tool's time includes parsing.
struct StageBreakdown {
    double lex = 0.0;      ///< tokenization (inside model construction)
    double parse = 0.0;    ///< tree building + declaration indexing
    double include = 0.0;  ///< executing included files during analysis
    double analyze = 0.0;  ///< taint analysis outside includes

    /// Model-construction share (what the old parse_seconds reported).
    double model() const noexcept { return lex + parse; }
    /// Taint-analysis share.
    double analysis() const noexcept { return include + analyze; }
    /// Whole-run CPU (what the old cpu_seconds reported).
    double total() const noexcept { return model() + analysis(); }

    StageBreakdown& operator+=(const StageBreakdown& other) noexcept {
        lex += other.lex;
        parse += other.parse;
        include += other.include;
        analyze += other.analyze;
        return *this;
    }
};

/// Aggregated per-tool, per-version statistics.
struct EvaluationStats {
    int tp = 0;
    int fp = 0;
    int tp_xss = 0, fp_xss = 0;
    int tp_sqli = 0, fp_sqli = 0;
    int tp_oop = 0;  ///< true positives whose flow passes through OOP
    int files_failed = 0;
    int error_messages = 0;
    /// Per-stage CPU time, measured with a per-thread CPU clock so the
    /// numbers are correct at any parallelism.
    StageBreakdown stages;
    /// Observability counters aggregated over the tool's runs (model
    /// counters are credited to every tool, like model CPU time). Identical
    /// for any worker count — tests/determinism_test.cpp proves it.
    obs::Counters counters;
    std::set<std::string> detected_ids;
    std::set<std::string> detected_ids_xss;
    std::set<std::string> detected_ids_sqli;

    // Compatibility accessors for the pre-StageBreakdown fields.
    double cpu_seconds() const noexcept { return stages.total(); }
    double parse_seconds() const noexcept { return stages.model(); }
};

struct Evaluation {
    corpus::Corpus corpus;
    std::vector<std::string> tool_names;
    /// stats[version][tool name]
    std::map<std::string, std::map<std::string, EvaluationStats>> stats;
    std::map<std::string, std::vector<corpus::SeededVuln>> truth;

    /// Ids detected by at least one tool in `version` (the paper's
    /// "confirmed" set).
    std::set<std::string> union_detected(const std::string& version) const;

    /// Paper-style FN for each tool: union minus the tool's detections.
    std::map<std::string, int> paper_false_negatives(const std::string& version,
                                                     VulnKind kind) const;
    std::map<std::string, int> paper_false_negatives(
        const std::string& version) const;
};

struct EvaluationOptions {
    double corpus_scale = 1.0;
    /// Repeat the analysis step this many times and average the CPU time
    /// (the paper averages five runs for Table III).
    int timing_repetitions = 1;
    /// Worker threads for the per-plugin-version pipeline. The unit of
    /// parallel work is a (plugin, version): the project is parsed once
    /// inside the worker and every tool runs against it. Results are merged
    /// in a fixed (version, tool, plugin) order, so any value yields
    /// identical statistics; per-plugin times use a per-thread CPU clock
    /// and stay meaningful at any parallelism. 0 (or negative) means auto:
    /// the PHPSAFE_JOBS environment variable when set, otherwise
    /// std::thread::hardware_concurrency().
    int parallelism = 1;
};

/// Runs `tools` over the generated corpus. Deterministic for fixed options.
Evaluation run_corpus_evaluation(const std::vector<Tool>& tools,
                                 const EvaluationOptions& options = {});

/// The paper's tool set: phpSAFE, RIPS-like, Pixy-like.
std::vector<Tool> paper_tool_set();

}  // namespace phpsafe
