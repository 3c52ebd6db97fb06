// Lint fixture (logical path src/geom/bad_guard.h): include guard that does
// not match the header's path. crn_analyze --self-test requires [header-guard]
// to fire here (expected guard: CRN_GEOM_BAD_GUARD_H_).
#ifndef CRN_WRONG_GUARD_H_
#define CRN_WRONG_GUARD_H_

namespace crn::geom {

inline int BadGuardValue() { return 1; }

}  // namespace crn::geom

#endif  // CRN_WRONG_GUARD_H_
