// Lint fixture (logical path src/sim/bad_clock.cc): wall-clock reads inside
// simulation code. crn_analyze --self-test requires [wall-clock] to fire here.
#include <chrono>
#include <cstdint>

namespace crn::sim {

std::int64_t BadNow() {
  const auto tick = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tick.time_since_epoch())
      .count();
}

}  // namespace crn::sim
