// Lint fixture (logical path src/spectrum/bad_db.cc): raw dB-to-linear
// conversion bypassing common/units.h. crn_analyze --self-test requires
// [raw-db-conversion] to fire here.
#include <cmath>

namespace crn::spectrum {

double BadDbToLinear(double db) { return std::pow(10, db / 10.0); }

}  // namespace crn::spectrum
