#include "report/evaluation.h"

#include <algorithm>
#include <vector>

#include "report/matching.h"
#include "report/metrics.h"
#include "util/timing.h"
#include "util/worker_pool.h"

namespace phpsafe {

std::set<std::string> Evaluation::union_detected(const std::string& version) const {
    std::set<std::string> all;
    const auto it = stats.find(version);
    if (it == stats.end()) return all;
    for (const auto& [tool, s] : it->second)
        all.insert(s.detected_ids.begin(), s.detected_ids.end());
    return all;
}

std::map<std::string, int> Evaluation::paper_false_negatives(
    const std::string& version, VulnKind kind) const {
    std::map<std::string, std::set<std::string>> detected;
    const auto it = stats.find(version);
    if (it == stats.end()) return {};
    for (const auto& [tool, s] : it->second)
        detected[tool] =
            kind == VulnKind::kXss ? s.detected_ids_xss : s.detected_ids_sqli;
    return paper_style_false_negatives(detected);
}

std::map<std::string, int> Evaluation::paper_false_negatives(
    const std::string& version) const {
    std::map<std::string, std::set<std::string>> detected;
    const auto it = stats.find(version);
    if (it == stats.end()) return {};
    for (const auto& [tool, s] : it->second) detected[tool] = s.detected_ids;
    return paper_style_false_negatives(detected);
}

std::vector<Tool> paper_tool_set() {
    return {make_phpsafe_tool(), make_rips_like_tool(), make_pixy_like_tool()};
}

Evaluation run_corpus_evaluation(const std::vector<Tool>& tools,
                                 const EvaluationOptions& options) {
    Evaluation evaluation;
    corpus::CorpusOptions corpus_options;
    corpus_options.scale = options.corpus_scale;
    if (options.corpus_scale < 1.0) {
        corpus_options.filler_lines_2012 = static_cast<int>(
            corpus_options.filler_lines_2012 * options.corpus_scale);
        corpus_options.filler_lines_2014 = static_cast<int>(
            corpus_options.filler_lines_2014 * options.corpus_scale);
    }
    evaluation.corpus = corpus::generate_corpus(corpus_options);
    for (const Tool& tool : tools) evaluation.tool_names.push_back(tool.name);

    const int reps = std::max(1, options.timing_repetitions);

    // Parse-once, analyze-many: the unit of parallel work is a
    // (plugin, version). The worker builds the php::Project exactly once and
    // runs every tool (and every timing repetition) against it const& —
    // Engine::analyze resets all per-run state, so sharing is safe. The seed
    // pipeline re-parsed each plugin once per tool per repetition (6×
    // redundant model construction for the paper's 3-tool × 2-version
    // matrix).
    struct ToolOutcome {
        int tp = 0, fp = 0, tp_xss = 0, fp_xss = 0, tp_sqli = 0, fp_sqli = 0;
        int tp_oop = 0, files_failed = 0, error_messages = 0;
        StageBreakdown stages;
        obs::Counters counters;
        std::vector<std::string> ids, ids_xss, ids_sqli;
    };
    struct PluginVersionUnit {
        const corpus::GeneratedPlugin* plugin = nullptr;
        const corpus::PluginVersionSource* src = nullptr;
        size_t version_index = 0;
    };

    const std::vector<std::string> versions = {"2012", "2014"};
    const auto& plugins = evaluation.corpus.plugins;
    std::vector<PluginVersionUnit> units;
    units.reserve(versions.size() * plugins.size());
    for (size_t vi = 0; vi < versions.size(); ++vi)
        for (const corpus::GeneratedPlugin& plugin : plugins)
            units.push_back({&plugin,
                             vi == 0 ? &plugin.v2012 : &plugin.v2014, vi});

    // outcomes[unit][tool]; each worker writes only its own unit's row, and
    // the merge below walks a fixed (version, tool, plugin) order, so any
    // parallelism yields identical statistics.
    std::vector<std::vector<ToolOutcome>> outcomes(
        units.size(), std::vector<ToolOutcome>(tools.size()));

    // The calling thread takes part, so parallelism 1 starts no thread.
    TaskTeam team(resolve_parallelism(options.parallelism) - 1);
    team.run(units.size(), [&](size_t u) {
        const PluginVersionUnit& unit = units[u];
        // Table III scope: parse (model construction) + analysis, measured
        // on this thread's CPU clock only. The counter delta is per-thread
        // too, so it captures exactly this unit's model construction.
        const obs::CounterDelta model_delta;
        const double parse_start = thread_cpu_seconds();
        DiagnosticSink sink;
        const php::Project project =
            corpus::build_project(*unit.plugin, *unit.src, sink);
        const double build_seconds = thread_cpu_seconds() - parse_start;
        const obs::Counters model_counters = model_delta.take();

        // Stage split of model construction: lexing is measured inside the
        // parser; the remainder (parse proper, indexing, source assembly)
        // counts as parse.
        StageBreakdown model_stages;
        model_stages.lex = project.build_stats().lex_cpu_seconds;
        model_stages.parse = build_seconds - model_stages.lex;

        for (size_t t = 0; t < tools.size(); ++t) {
            AnalysisResult result = run_tool(tools[t], project);
            for (int rep = 1; rep < reps; ++rep) {
                const AnalysisResult repeat = run_tool(tools[t], project);
                result.cpu_seconds += repeat.cpu_seconds;
                result.include_cpu_seconds += repeat.include_cpu_seconds;
            }

            ToolOutcome& outcome = outcomes[u][t];
            outcome.stages = model_stages;
            outcome.stages.include = result.include_cpu_seconds / reps;
            outcome.stages.analyze =
                result.cpu_seconds / reps - outcome.stages.include;
            // Counters from the first repetition only (repetitions re-run
            // identical work; summing them would make the totals depend on
            // the timing configuration), plus the shared model counters —
            // credited to every tool, like model CPU time.
            outcome.counters = model_counters;
            outcome.counters += result.counters;

            const MatchResult match = match_findings(result.findings, unit.src->truth);
            const MatchResult xss =
                match_findings(result.findings, unit.src->truth, VulnKind::kXss);
            const MatchResult sqli =
                match_findings(result.findings, unit.src->truth, VulnKind::kSqli);
            outcome.tp = match.tp();
            outcome.fp = match.fp();
            outcome.tp_xss = xss.tp();
            outcome.fp_xss = xss.fp();
            outcome.tp_sqli = sqli.tp();
            outcome.fp_sqli = sqli.fp();
            for (const Finding* f : match.true_positives)
                if (f->via_oop) ++outcome.tp_oop;
            outcome.files_failed = result.files_failed;
            outcome.error_messages = result.error_messages;
            for (const std::string& id : match.detected_ids) {
                outcome.ids.push_back(id);
                if (xss.detected_ids.count(id)) outcome.ids_xss.push_back(id);
                if (sqli.detected_ids.count(id)) outcome.ids_sqli.push_back(id);
            }
        }
    });

    for (size_t vi = 0; vi < versions.size(); ++vi) {
        const std::string& version = versions[vi];
        evaluation.truth[version] = evaluation.corpus.all_truth(version);
        for (size_t t = 0; t < tools.size(); ++t) {
            EvaluationStats& stats = evaluation.stats[version][tools[t].name];
            for (size_t u = 0; u < units.size(); ++u) {
                if (units[u].version_index != vi) continue;
                const ToolOutcome& outcome = outcomes[u][t];
                stats.tp += outcome.tp;
                stats.fp += outcome.fp;
                stats.tp_xss += outcome.tp_xss;
                stats.fp_xss += outcome.fp_xss;
                stats.tp_sqli += outcome.tp_sqli;
                stats.fp_sqli += outcome.fp_sqli;
                stats.tp_oop += outcome.tp_oop;
                stats.files_failed += outcome.files_failed;
                stats.error_messages += outcome.error_messages;
                stats.stages += outcome.stages;
                stats.counters += outcome.counters;
                stats.detected_ids.insert(outcome.ids.begin(), outcome.ids.end());
                stats.detected_ids_xss.insert(outcome.ids_xss.begin(),
                                              outcome.ids_xss.end());
                stats.detected_ids_sqli.insert(outcome.ids_sqli.begin(),
                                               outcome.ids_sqli.end());
            }
        }
    }
    return evaluation;
}

}  // namespace phpsafe
