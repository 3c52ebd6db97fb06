// Whole-file token-walk passes, new in crn_analyze (no legacy equivalent):
//
//   determinism-taint       simulation-visible state derived from pointer
//                           identity (std::map/set/unordered_* keyed on a
//                           raw pointer, std::hash over a pointer, sorting a
//                           vector of pointers with operator<) or from
//                           wall-clock/process-identity sources
//                           (time()/clock()/gettimeofday()/getpid()) that
//                           could flow into sim::TimeNs computations.
//   concurrency-discipline  mutable static / thread_local state reachable
//                           from ParallelRunner cell callbacks, and
//                           by-reference lambda captures submitted straight
//                           to a thread pool's Submit().
//
// Both passes scan src/ only: tests and benches may freely use pointers,
// wall clocks, and shared state for their own bookkeeping.
#ifndef CRN_ANALYZE_PASSES_H_
#define CRN_ANALYZE_PASSES_H_

#include <vector>

#include "crn_analyze/analysis.h"

namespace crn::analyze {

std::vector<Finding> RunDeterminismTaintPass(const SourceFile& file);
std::vector<Finding> RunConcurrencyDisciplinePass(const SourceFile& file);

}  // namespace crn::analyze

#endif  // CRN_ANALYZE_PASSES_H_
