// The paper corpus as a list of benchmark items (one per plugin-version),
// and the model-construction step corpus_audit and validate_batch share.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "corpus/generator.h"
#include "obs/counters.h"
#include "php/project.h"

namespace phpbench {

/// One plugin-version of the generated corpus.
struct CorpusItem {
    const phpsafe::corpus::PluginVersionSource* version = nullptr;
    std::string label;  ///< "plugin-07@2014"
    uint64_t bytes = 0;
    double kloc = 0;
};

/// Every plugin-version of `corpus` (2012 then 2014 for each plugin); the
/// items point into `corpus`, which must outlive them.
std::vector<CorpusItem> corpus_items(const phpsafe::corpus::Corpus& corpus);

/// Model construction of one item (Project::add_file + parse_all) under a
/// "php.build" span, with the counter delta and the stage CPU times.
struct Build {
    phpsafe::php::Project project;
    phpsafe::obs::Counters counters;
};
Build build_item(const CorpusItem& item, obs::Tracer& tracer, size_t op);

/// Lexer and parser rates over the builds of one window.
class PhpRates {
public:
    void add(const Build& build, const CorpusItem& item);
    void reset();
    /// php.lex_mb_per_s and php.parse_nodes_per_s.
    void fill(LayerValues& values) const;

private:
    mutable std::mutex mutex_;
    double lex_cpu_ = 0, parse_cpu_ = 0, bytes_ = 0, nodes_ = 0;
};

}  // namespace phpbench
