// The single public entry point for running an analysis (the API the
// ISSUE-7 redesign introduces): configure once — knowledge base + options —
// then scan(project) as many times as needed. Everything the old helpers
// exposed piecemeal (Engine construction, observer wiring, CPU clocking,
// counter deltas) happens behind one call, and a ScanResult carries the
// complete outcome.
//
// An Analyzer is immutable after construction and therefore shareable:
// scan() is const and creates a fresh single-use Engine per call, so one
// Analyzer may serve many threads concurrently (each scan's counters and
// timings are per-thread). The engine remains available for embedders that
// need observer-level surgery, but tools/, bench/ and tests construct
// Analyzers.
#pragma once

#include <memory>

#include "config/knowledge.h"
#include "core/engine.h"
#include "core/finding.h"
#include "core/summaries.h"
#include "php/project.h"

namespace phpsafe {

/// Outcome of one Analyzer::scan: the AnalysisResult with findings, stats,
/// diagnostics, counters and cpu_seconds all filled.
struct ScanResult {
    AnalysisResult result;
};

class Analyzer {
public:
    /// The out-of-the-box phpSAFE configuration: generic PHP knowledge base
    /// with the WordPress profile, AnalysisOptions::phpsafe().
    Analyzer();

    /// Takes ownership of `kb`. `options` defaults to the phpSAFE preset.
    explicit Analyzer(KnowledgeBase kb,
                      AnalysisOptions options = AnalysisOptions::phpsafe());

    /// Non-owning variant: `kb` must outlive the Analyzer. Use when many
    /// analyzers share one heavyweight knowledge base.
    static Analyzer borrowing(const KnowledgeBase& kb,
                              AnalysisOptions options = AnalysisOptions::phpsafe());

    const KnowledgeBase& kb() const noexcept { return *kb_; }
    const AnalysisOptions& options() const noexcept { return options_; }

    /// Analyzes a project with this Analyzer's options.
    ScanResult scan(const php::Project& project) const;

    /// Analyzes with per-scan options (e.g. a loop-iteration override
    /// built with options().to_builder()) and an optional observer for the
    /// run.
    ScanResult scan(const php::Project& project, const AnalysisOptions& options,
                    Engine::Observer* observer = nullptr) const;

private:
    Analyzer(std::shared_ptr<const KnowledgeBase> kb, AnalysisOptions options);

    std::shared_ptr<const KnowledgeBase> kb_;
    AnalysisOptions options_;
};

}  // namespace phpsafe
