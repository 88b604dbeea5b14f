// Evolution study (paper §IV question 2 and §V.D): analyze both versions of
// every plugin, track which vulnerabilities disclosed in the 2012 round are
// still present in 2014, and report the fixing inertia per plugin — the
// paper's most alarming observation (42% of 2014 vulnerabilities had been
// disclosed to developers more than a year earlier).
//
// The scans run through the AnalysisService, and the study is executed the
// way such audits run in practice: a first cold pass over every plugin
// version, then a re-audit pass over the same corpus (answered entirely
// from the service's result pool), then a spot re-scan of one patched file
// (answered with the unchanged files' cached ASTs). The cache summary at
// the end shows the hit rates each pass achieved.
//
//   $ ./build/examples/evolution_study
#include <iomanip>
#include <iostream>
#include <set>

#include "corpus/generator.h"
#include "report/inertia.h"
#include "report/matching.h"
#include "report/render.h"
#include "service/service.h"
#include "util/timing.h"

using namespace phpsafe;

namespace {

service::ScanRequest to_request(const corpus::GeneratedPlugin& plugin,
                                const corpus::PluginVersionSource& version) {
    service::ScanRequest request;
    request.plugin = plugin.name + "@" + version.version;
    for (const auto& [name, text] : version.files)
        request.files.push_back({name, text});
    return request;
}

}  // namespace

int main() {
    corpus::CorpusOptions options;
    options.scale = 0.4;
    options.filler_lines_2012 = 6000;
    options.filler_lines_2014 = 12000;
    const corpus::Corpus corpus = corpus::generate_corpus(options);

    service::AnalysisService svc;

    // Cold pass: populate the caches.
    const double cold_start = wall_seconds();
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        (void)svc.scan(to_request(plugin, plugin.v2012));
        (void)svc.scan(to_request(plugin, plugin.v2014));
    }
    const double cold_wall = wall_seconds() - cold_start;

    // Re-audit pass: the same corpus again. Every scan is answered from the
    // result pool; the findings below come from this pass — byte-identical
    // to the cold pass by the service's determinism guarantee.
    TextTable table;
    table.add_row({"Plugin", "2012 vulns", "2014 vulns", "carried", "fixed",
                   "new"});
    int total_2012 = 0, total_2014 = 0, total_carried = 0;
    int result_hits = 0;
    std::set<std::string> detected_2014_all;
    std::vector<corpus::SeededVuln> truth_2014_all;

    const double warm_start = wall_seconds();
    for (const corpus::GeneratedPlugin& plugin : corpus.plugins) {
        const service::ScanResponse r2012 =
            svc.scan(to_request(plugin, plugin.v2012));
        const service::ScanResponse r2014 =
            svc.scan(to_request(plugin, plugin.v2014));
        result_hits += r2012.from_result_cache + r2014.from_result_cache;
        const MatchResult m2012 =
            match_findings(r2012.result.findings, plugin.v2012.truth);
        const MatchResult m2014 =
            match_findings(r2014.result.findings, plugin.v2014.truth);

        int carried = 0;
        for (const std::string& id : m2014.detected_ids)
            if (m2012.detected_ids.count(id)) ++carried;
        const int fixed = static_cast<int>(m2012.detected_ids.size()) - carried;
        const int fresh = static_cast<int>(m2014.detected_ids.size()) - carried;

        if (!m2012.detected_ids.empty() || !m2014.detected_ids.empty()) {
            table.add_row({plugin.name,
                           std::to_string(m2012.detected_ids.size()),
                           std::to_string(m2014.detected_ids.size()),
                           std::to_string(carried), std::to_string(fixed),
                           std::to_string(fresh)});
        }
        total_2012 += static_cast<int>(m2012.detected_ids.size());
        total_2014 += static_cast<int>(m2014.detected_ids.size());
        total_carried += carried;
        detected_2014_all.insert(m2014.detected_ids.begin(),
                                 m2014.detected_ids.end());
        truth_2014_all.insert(truth_2014_all.end(), plugin.v2014.truth.begin(),
                              plugin.v2014.truth.end());
    }
    const double warm_wall = wall_seconds() - warm_start;

    std::cout << "Per-plugin vulnerability evolution (phpSAFE detections)\n";
    std::cout << table.to_string();

    const InertiaReport inertia = analyze_inertia(truth_2014_all, detected_2014_all);
    std::cout << std::fixed << std::setprecision(0);
    std::cout << "\nTotals: 2012 " << total_2012 << " → 2014 " << total_2014
              << " (+" << (100.0 * (total_2014 - total_2012) / total_2012)
              << "%)\n";
    std::cout << "Carried over (disclosed >1 year before, still unfixed): "
              << inertia.carried_from_2012 << " = "
              << inertia.carried_fraction() * 100 << "% of the 2014 vulns "
              << "(paper: 42%)\n";
    std::cout << "Trivially exploitable among the carried ones: "
              << inertia.carried_easy_exploit << " ("
              << inertia.easy_fraction_of_carried() * 100 << "%)\n";

    // Spot re-scan: one plugin gets a one-line patch; every file the patch
    // does not touch comes pre-parsed from the cache.
    service::ScanRequest patched = to_request(corpus.plugins.front(),
                                              corpus.plugins.front().v2014);
    patched.files[0].text += "\n// hotfix\n";
    const service::ScanResponse patch_scan = svc.scan(patched);

    const service::CacheStats cache = svc.cache_stats();
    std::cout << std::setprecision(1);
    std::cout << "\nAnalysis-service cache effectiveness:\n";
    std::cout << "  cold study pass:  " << cold_wall * 1000 << " ms\n";
    std::cout << "  re-audit pass:    " << warm_wall * 1000 << " ms ("
              << result_hits << "/" << 2 * corpus.plugins.size()
              << " scans served from the result pool, x"
              << (warm_wall > 0 ? cold_wall / warm_wall : 0) << ")\n";
    std::cout << "  patched re-scan:  " << patch_scan.files_reused
              << " parsed files reused\n";
    const double file_rate =
        cache.file_hits + cache.file_misses
            ? 100.0 * cache.file_hits / (cache.file_hits + cache.file_misses)
            : 0.0;
    std::cout << "  file pool hit rate:    " << file_rate << "% ("
              << cache.file_hits << "/" << (cache.file_hits + cache.file_misses)
              << ")\n";
    std::cout << "  bytes resident: " << cache.bytes_resident << "\n";
    return 0;
}
