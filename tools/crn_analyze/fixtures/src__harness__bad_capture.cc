// Analyzer fixture (logical path src/harness/bad_capture.cc): a lambda
// with a by-reference capture submitted straight to a thread pool shares
// mutable locals across jobs — [concurrency-discipline] must fire on the
// Submit call.
#include <vector>

namespace crn::harness {

struct FakePool {
  template <typename F>
  void Submit(F&& fn) {
    fn();
  }
};

inline int BadAccumulate(FakePool& pool, const std::vector<int>& values) {
  int total = 0;
  for (int value : values) {
    pool.Submit([&total, value] { total += value; });
  }
  return total;
}

}  // namespace crn::harness
