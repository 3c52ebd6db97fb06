// Lint fixture (logical path src/mac/bad_io.cc): terminal output from a
// library layer. crn_analyze --self-test requires [library-io] to fire here.
#include <iostream>

namespace crn::mac {

void BadProgressReport(int delivered, int expected) {
  std::cout << "delivered " << delivered << "/" << expected << "\n";
}

}  // namespace crn::mac
