#include "core/summaries.h"

namespace phpsafe {

void SummaryStore::reset(size_t slots) {
    summaries_.clear();
    summaries_.resize(slots);
}

size_t SummaryStore::analyzed_count() const noexcept {
    size_t count = 0;
    for (const FunctionSummary& summary : summaries_) count += summary.analyzed;
    return count;
}

}  // namespace phpsafe
