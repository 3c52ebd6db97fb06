// Lint fixture (logical path src/sim/bad_throw.cc): a raw throw inside an
// event callback. crn_analyze --self-test requires [throw-in-callback] to fire
// here.
#include <stdexcept>

namespace crn::sim {

void BadCallback(int remaining) {
  if (remaining < 0) {
    throw std::runtime_error("queue underflow");
  }
}

}  // namespace crn::sim
