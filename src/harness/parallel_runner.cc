#include "harness/parallel_runner.h"

#include <algorithm>
#include <thread>

#include "harness/profiler.h"

namespace crn::harness {

std::int32_t ResolveJobs(std::int32_t requested) {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::max<std::int32_t>(1, static_cast<std::int32_t>(hardware));
}

ParallelRunner::ParallelRunner(std::int32_t jobs, std::int64_t grain)
    : jobs_(ResolveJobs(jobs)), grain_(grain) {}

WorkStealingStats ParallelRunner::ForEachIndex(
    std::int64_t count, const std::function<void(std::int64_t)>& fn,
    RunProfiler* profiler, const std::string& phase) const {
  if (count <= 0) return {};
  // A profiled cell is one span labelled "<phase>[i]" on whichever worker
  // ran it.
  const auto run_cell = [&fn, profiler, &phase](std::int64_t i) {
    if (profiler == nullptr) {
      fn(i);
      return;
    }
    RunProfiler::Scope scope(profiler, phase,
                             phase + "[" + std::to_string(i) + "]");
    fn(i);
  };

  return RunWorkStealing(count, std::min<std::int64_t>(jobs_, count), grain_,
                         run_cell);
}

}  // namespace crn::harness
