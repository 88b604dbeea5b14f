// The benchmark's three workloads, each run through drive<W>() in
// common.h. NOTES.md explains why each was chosen and what it measures.
#pragma once

#include "common.h"

namespace phpbench {

RunResult run_corpus_audit(const Config& config);
RunResult run_watch_edits(const Config& config);
RunResult run_validate_batch(const Config& config);

}  // namespace phpbench
