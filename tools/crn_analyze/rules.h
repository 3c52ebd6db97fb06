// The per-line rules, matching against tokenizer-scrubbed text so
// multi-line raw strings, block comments, and spliced lines can never leak
// literal content into a match. The first ten began as a line-regex
// checker; their ids are what `crn-lint-ok` inline suppressions name:
//   banned-rng, wall-clock, raw-db-conversion, unordered-iteration,
//   float-in-physics, shared-mutable-rng, header-guard, throw-in-callback,
//   hot-path-math, library-io
// plus:
//   suppression-justification — a `crn-lint-ok` marker without a
//   `crn-lint-ok: <reason>` justification is itself a finding, and is
//   exempt from suppression (a bare marker cannot silence itself).
//   raw-schedule-in-mac — src/mac must not pass capturing lambdas to the
//   fire-and-forget ScheduleOnce*/ScheduleAt/ScheduleAfter entry points;
//   MAC state machines bind a sim::Timer once and re-arm it.
//   unnamed-timer-kind — every Timer/PeriodicTimer Bind site in src/mac
//   must carry a named event kind (a non-empty string literal within three
//   lines of the call), so flight-recorder dumps, sched.* metrics, and
//   crn_trace causal chains decode to meaningful names instead of
//   "unnamed".
//   hot-path-alloc — the src/harness dispatch files (work_stealing,
//   parallel_runner) must not construct std::function or heap-allocate
//   (new / make_unique / make_shared) per cell; work is pre-materialized
//   into flat arrays and callbacks travel by const std::function& (one
//   object per fan-out).
//   raw-artifact-write — src/ code must not open files for writing
//   directly (std::ofstream / fopen); artifacts render to a string and
//   land through harness::WriteFileAtomic (harness/atomic_file.h) so a
//   crash mid-write can never leave a truncated file for a resume or a
//   concurrent reader to trip over. The helper's own ofstream carries the
//   one justified crn-lint-ok suppression.
#ifndef CRN_ANALYZE_RULES_H_
#define CRN_ANALYZE_RULES_H_

#include <string>
#include <vector>

#include "crn_analyze/analysis.h"

namespace crn::analyze {

// Shared text helpers (identifier-boundary matching).
bool ContainsWord(const std::string& line, const std::string& word);
bool ContainsCallOf(const std::string& line, const std::string& name);
bool StartsWith(const std::string& text, const std::string& prefix);

// Runs the migrated per-file rules and suppression-justification. Inline
// `crn-lint-ok` suppression is already applied (except, by design, to
// suppression-justification findings).
std::vector<Finding> RunFileRules(const SourceFile& file);

}  // namespace crn::analyze

#endif  // CRN_ANALYZE_RULES_H_
