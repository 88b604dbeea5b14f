#include "core/finding.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace phpsafe {

std::string Finding::dedup_key() const {
    return to_string(kind) + "|" + location.file + "|" +
           std::to_string(location.line) + "|" + variable;
}

std::string to_string(Confidence confidence) {
    switch (confidence) {
        case Confidence::kUnchecked: return "unchecked";
        case Confidence::kValidated: return "validated";
        case Confidence::kUnvalidated: return "unvalidated";
        case Confidence::kInconclusive: return "inconclusive";
    }
    return "?";
}

std::string to_string(const Finding& finding) {
    std::ostringstream os;
    os << to_string(finding.kind) << " at " << to_string(finding.location)
       << " sink=" << finding.sink << " var=" << finding.variable
       << " vector=" << to_string(finding.vector);
    if (finding.via_oop) os << " [oop]";
    return os.str();
}

int AnalysisResult::count(VulnKind kind) const noexcept {
    return static_cast<int>(std::count_if(
        findings.begin(), findings.end(),
        [kind](const Finding& f) { return f.kind == kind; }));
}

namespace {

/// Total order over findings: every field participates, so the sorted
/// sequence, and the representative deduplicate() keeps among findings with
/// one dedup key, is independent of the order the engine reported them in
/// (tests/determinism_test.cpp).
bool finding_less(const Finding& a, const Finding& b) {
    if (a.location.file != b.location.file) return a.location.file < b.location.file;
    if (a.location.line != b.location.line) return a.location.line < b.location.line;
    if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    if (a.variable != b.variable) return a.variable < b.variable;
    if (a.sink != b.sink) return a.sink < b.sink;
    if (a.vector != b.vector)
        return static_cast<int>(a.vector) < static_cast<int>(b.vector);
    if (a.via_oop != b.via_oop) return a.via_oop < b.via_oop;
    if (a.trace.size() != b.trace.size()) return a.trace.size() < b.trace.size();
    for (size_t i = 0; i < a.trace.size(); ++i) {
        const TaintStep& sa = a.trace[i];
        const TaintStep& sb = b.trace[i];
        if (sa.location.file != sb.location.file)
            return sa.location.file < sb.location.file;
        if (sa.location.line != sb.location.line)
            return sa.location.line < sb.location.line;
        if (sa.description != sb.description) return sa.description < sb.description;
    }
    return false;
}

}  // namespace

void deduplicate(std::vector<Finding>& findings) {
    std::stable_sort(findings.begin(), findings.end(), finding_less);
    std::set<std::string> seen;
    std::vector<Finding> unique;
    unique.reserve(findings.size());
    for (Finding& f : findings) {
        if (seen.insert(f.dedup_key()).second) unique.push_back(std::move(f));
    }
    findings = std::move(unique);
}

}  // namespace phpsafe
