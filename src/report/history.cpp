#include "report/history.h"

#include <cctype>
#include <map>

namespace phpsafe {

int HistoryReport::count(FindingFate fate) const noexcept {
    int n = 0;
    for (const HistoryEntry& e : entries)
        if (e.fate == fate) ++n;
    return n;
}

double HistoryReport::persisted_fraction_of_new() const noexcept {
    const int new_total = persisted() + introduced();
    return new_total == 0 ? 0.0 : static_cast<double>(persisted()) / new_total;
}

std::string history_key(const Finding& finding) {
    // Strip digit runs from the expression so version-specific suffixes and
    // shifting literals do not break the match.
    std::string normalized;
    normalized.reserve(finding.variable.size());
    bool last_was_digit = false;
    for (char c : finding.variable) {
        if (std::isdigit(static_cast<unsigned char>(c))) {
            if (!last_was_digit) normalized += '#';
            last_was_digit = true;
        } else {
            normalized += c;
            last_was_digit = false;
        }
    }
    return to_string(finding.kind) + "|" + finding.location.file + "|" +
           finding.sink + "|" + normalized;
}

HistoryReport diff_versions(const AnalysisResult& old_result,
                            const AnalysisResult& new_result) {
    HistoryReport report;

    // Multimap-ish matching: each old finding can satisfy one new finding.
    std::map<std::string, std::vector<const Finding*>> old_by_key;
    for (const Finding& f : old_result.findings)
        old_by_key[history_key(f)].push_back(&f);

    for (const Finding& f : new_result.findings) {
        auto it = old_by_key.find(history_key(f));
        if (it != old_by_key.end() && !it->second.empty()) {
            HistoryEntry entry;
            entry.fate = FindingFate::kPersisted;
            entry.old_finding = it->second.back();
            entry.new_finding = &f;
            it->second.pop_back();
            report.entries.push_back(entry);
        } else {
            HistoryEntry entry;
            entry.fate = FindingFate::kIntroduced;
            entry.new_finding = &f;
            report.entries.push_back(entry);
        }
    }
    for (const auto& [key, remaining] : old_by_key) {
        for (const Finding* f : remaining) {
            HistoryEntry entry;
            entry.fate = FindingFate::kFixed;
            entry.old_finding = f;
            report.entries.push_back(entry);
        }
    }
    return report;
}

}  // namespace phpsafe
