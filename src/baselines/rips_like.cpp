#include "baselines/analyzers.h"

#include "core/analyzer.h"

namespace phpsafe {

Tool make_phpsafe_tool() {
    Tool tool;
    tool.name = "phpSAFE";
    tool.kb = make_generic_php_kb();
    add_wordpress_profile(tool.kb);
    tool.options = AnalysisOptions::phpsafe();
    return tool;
}

Tool make_rips_like_tool() {
    Tool tool;
    tool.name = "RIPS";
    tool.kb = make_generic_php_kb();  // no WordPress profile
    tool.options = AnalysisOptions::rips_like();
    return tool;
}

AnalysisResult run_tool(const Tool& tool, const php::Project& project,
                        Engine::Observer* observer) {
    // Thin shim over the Analyzer facade (core/analyzer.h), kept for source
    // compatibility; new code should construct an Analyzer directly. The
    // borrowing constructor keeps the old zero-copy semantics for tool.kb.
    const Analyzer analyzer = Analyzer::borrowing(tool.kb, tool.options);
    return analyzer.scan(project, tool.options, observer).result;
}

}  // namespace phpsafe
