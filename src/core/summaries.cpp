#include "core/summaries.h"

namespace phpsafe {

FunctionSummary& SummaryStore::slot(const std::string& qualified_lower) {
    return summaries_[qualified_lower];
}

const FunctionSummary* SummaryStore::find(const std::string& qualified_lower) const {
    const auto it = summaries_.find(qualified_lower);
    return it == summaries_.end() ? nullptr : &it->second;
}

void SummaryStore::clear() { summaries_.clear(); }

size_t SummaryStore::analyzed_count() const noexcept {
    size_t count = 0;
    for (const auto& [name, summary] : summaries_) count += summary.analyzed;
    return count;
}

}  // namespace phpsafe
