// Historic tracking of findings across plugin versions — the paper's
// future work ("we also intend to study the evolution of plugin security
// and plugin updates over time by enabling historic data in phpSAFE",
// §VI). Matches findings between two analysis runs WITHOUT ground truth:
// a finding persists if a finding of the same kind, same sink name and
// same normalized vulnerable expression exists in the other version (line
// numbers shift between releases, so they are not part of the key).
#pragma once

#include <string>
#include <vector>

#include "core/finding.h"

namespace phpsafe {

/// One finding's fate between two versions.
enum class FindingFate {
    kPersisted,  ///< present in both versions
    kFixed,      ///< in the old version only
    kIntroduced, ///< in the new version only
};

struct HistoryEntry {
    FindingFate fate = FindingFate::kPersisted;
    const Finding* old_finding = nullptr;  ///< null when kIntroduced
    const Finding* new_finding = nullptr;  ///< null when kFixed
};

struct HistoryReport {
    std::vector<HistoryEntry> entries;

    int persisted() const noexcept { return count(FindingFate::kPersisted); }
    int fixed() const noexcept { return count(FindingFate::kFixed); }
    int introduced() const noexcept { return count(FindingFate::kIntroduced); }

    /// Share of the new version's findings that were already reported for
    /// the old version (the §V.D inertia figure, computed from reports).
    double persisted_fraction_of_new() const noexcept;

private:
    int count(FindingFate fate) const noexcept;
};

/// Normalized identity of a finding for cross-version matching: kind, file,
/// sink and the vulnerable expression with generated numeric suffixes
/// stripped (so `$msg_3` and `$msg_7` compare equal).
std::string history_key(const Finding& finding);

/// Diffs two runs of (ideally) the same tool on two versions of a plugin.
HistoryReport diff_versions(const AnalysisResult& old_result,
                            const AnalysisResult& new_result);

}  // namespace phpsafe
