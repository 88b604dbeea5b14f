#include "core/analyzer.h"

#include <string>
#include <utility>

#include "obs/counters.h"
#include "util/timing.h"

namespace phpsafe {

Analyzer::Analyzer(std::shared_ptr<const KnowledgeBase> kb,
                   AnalysisOptions options)
    : kb_(std::move(kb)), options_(std::move(options)) {}

Analyzer::Analyzer()
    : Analyzer(
          [] {
              KnowledgeBase kb = make_generic_php_kb();
              add_wordpress_profile(kb);
              return kb;
          }(),
          AnalysisOptions::phpsafe()) {}

Analyzer::Analyzer(KnowledgeBase kb, AnalysisOptions options)
    : Analyzer(std::make_shared<const KnowledgeBase>(std::move(kb)),
               std::move(options)) {}

Analyzer Analyzer::borrowing(const KnowledgeBase& kb, AnalysisOptions options) {
    // Aliasing shared_ptr with an empty control block: no ownership, no
    // atomic traffic — the caller guarantees the lifetime.
    return Analyzer(
        std::shared_ptr<const KnowledgeBase>(std::shared_ptr<const void>(), &kb),
        std::move(options));
}

ScanResult Analyzer::scan(const php::Project& project) const {
    return scan(project, options_);
}

ScanResult Analyzer::scan(const php::Project& project,
                          const AnalysisOptions& options,
                          Engine::Observer* observer) const {
    Engine engine(*kb_, options);
    engine.set_observer(observer);
    // Per-thread CPU clock and counter delta: correct even when many scans
    // execute concurrently on a worker pool (a process-wide clock would
    // absorb the other workers' CPU time).
    const obs::CounterDelta delta;
    const double start = thread_cpu_seconds();
    ScanResult scan_result;
    scan_result.result = engine.analyze(project);
    scan_result.result.cpu_seconds = thread_cpu_seconds() - start;
    scan_result.result.counters = delta.take();
    return scan_result;
}

}  // namespace phpsafe
