#include "corpus_items.h"

namespace phpbench {

using namespace phpsafe;

std::vector<CorpusItem> corpus_items(const corpus::Corpus& corpus) {
    std::vector<CorpusItem> items;
    for (const corpus::GeneratedPlugin& p : corpus.plugins)
        for (const corpus::PluginVersionSource* v : {&p.v2012, &p.v2014}) {
            CorpusItem item{v, p.name + "@" + v->version, 0,
                            v->total_lines / 1000.0};
            for (const auto& [name, text] : v->files) item.bytes += text.size();
            items.push_back(std::move(item));
        }
    return items;
}

Build build_item(const CorpusItem& item, obs::Tracer& tracer, size_t op) {
    auto s = span(tracer, "php.build", op);
    obs::CounterDelta delta;
    Build build{php::Project(item.label), {}};
    for (const auto& [name, text] : item.version->files)
        build.project.add_file(name, text);
    DiagnosticSink sink;
    build.project.parse_all(sink);
    build.counters = delta.take();
    return build;
}

void PhpRates::add(const Build& build, const CorpusItem& item) {
    std::lock_guard lock(mutex_);
    lex_cpu_ += build.project.build_stats().lex_cpu_seconds;
    parse_cpu_ += build.project.build_stats().parse_cpu_seconds;
    bytes_ += item.bytes;
    nodes_ += build.counters.ast_nodes;
}

void PhpRates::reset() {
    std::lock_guard lock(mutex_);
    lex_cpu_ = parse_cpu_ = bytes_ = nodes_ = 0;
}

void PhpRates::fill(LayerValues& values) const {
    std::lock_guard lock(mutex_);
    values["php.lex_mb_per_s"] = lex_cpu_ > 0 ? bytes_ / 1e6 / lex_cpu_ : 0;
    values["php.parse_nodes_per_s"] = parse_cpu_ > 0 ? nodes_ / parse_cpu_ : 0;
}

}  // namespace phpbench
