// Lint fixture (logical path src/core/bad_float.cc): float in physics code.
// crn_analyze --self-test requires [float-in-physics] to fire here.
namespace crn::core {

float BadPathLoss(float distance) { return 1.0f / (distance * distance); }

}  // namespace crn::core
