#include "core/pcr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/check.h"

namespace crn::core {
namespace {

PcrParams Fig4Defaults(double alpha = 4.0) {
  PcrParams params;
  params.pu_power = 10.0;
  params.su_power = 10.0;
  params.pu_radius = 12.0;
  params.su_radius = 10.0;
  params.eta_p = SirThreshold::FromDb(10.0);
  params.eta_s = SirThreshold::FromDb(10.0);
  params.alpha = alpha;
  return params;
}

TEST(C2Test, PaperValueAlphaFour) {
  // c2 = 6 + 6(√3/2)^{-4}(1/2 − 1) = 6 − 6·(16/9)·0.5 = 6 − 16/3.
  EXPECT_NEAR(C2(4.0, C2Variant::kPaper), 6.0 - 16.0 / 3.0, 1e-12);
}

TEST(C2Test, PaperValueAlphaThree) {
  // At α = 3 the (1/(α−2) − 1) term vanishes: c2 = 6 exactly.
  EXPECT_DOUBLE_EQ(C2(3.0, C2Variant::kPaper), 6.0);
}

TEST(C2Test, CorrectedValueAlphaFour) {
  // c2 = 6 + 6(√3/2)^{-4}/2 = 6 + 16/3.
  EXPECT_NEAR(C2(4.0, C2Variant::kCorrected), 6.0 + 16.0 / 3.0, 1e-12);
}

TEST(C2Test, CorrectedAlwaysExceedsPaper) {
  for (double alpha : {2.5, 3.0, 3.5, 4.0}) {
    EXPECT_GT(C2(alpha, C2Variant::kCorrected), C2(alpha, C2Variant::kPaper));
  }
}

// The erratum itself (DESIGN.md §4): the printed constant goes non-positive
// for α ≳ 4.3, where the formula stops denoting any interference bound.
TEST(C2Test, PaperConstantInvalidForLargeAlpha) {
  EXPECT_THROW(C2(4.5, C2Variant::kPaper), ContractViolation);
  EXPECT_THROW(C2(5.0, C2Variant::kPaper), ContractViolation);
  EXPECT_NO_THROW(C2(4.5, C2Variant::kCorrected));
  EXPECT_NO_THROW(C2(6.0, C2Variant::kCorrected));
}

TEST(C2Test, RejectsAlphaAtOrBelowTwo) {
  EXPECT_THROW(C2(2.0, C2Variant::kCorrected), ContractViolation);
  EXPECT_THROW(C2(1.0, C2Variant::kPaper), ContractViolation);
}

// Input validation mirrors the contracts above, as a message instead of a
// throw, so a CLI can name the bad value and exit cleanly.
TEST(PcrParamsErrorTest, NamesEachOutOfDomainParameter) {
  EXPECT_EQ(PcrParamsError(Fig4Defaults(), C2Variant::kPaper), "");
  EXPECT_EQ(PcrParamsError(Fig4Defaults(6.0), C2Variant::kCorrected), "");
  const auto error = [](PcrParams params, C2Variant variant) {
    return PcrParamsError(params, variant);
  };
  EXPECT_NE(error(Fig4Defaults(2.0), C2Variant::kCorrected).find("alpha=2"),
            std::string::npos);
  PcrParams params = Fig4Defaults();
  params.su_power = -1.0;
  EXPECT_NE(error(params, C2Variant::kCorrected).find("P_s=-1"), std::string::npos);
  params = Fig4Defaults();
  params.pu_power = 0.0;
  EXPECT_NE(error(params, C2Variant::kCorrected).find("P_p=0"), std::string::npos);
  params = Fig4Defaults();
  params.pu_radius = 0.0;
  EXPECT_NE(error(params, C2Variant::kCorrected).find("R=0"), std::string::npos);
  // Exactly where C2() throws, the message points at the corrected constant.
  EXPECT_NE(error(Fig4Defaults(5.0), C2Variant::kPaper).find("--c2=corrected"),
            std::string::npos);
  EXPECT_THROW(C2(5.0, C2Variant::kPaper), ContractViolation);
  EXPECT_EQ(error(Fig4Defaults(5.0), C2Variant::kCorrected), "");
}

TEST(KappaTest, HandComputedFig6Defaults) {
  // Fig. 6 defaults: η = 8 dB, P_p = P_s, R = r = 10, α = 4.
  PcrParams params = Fig4Defaults();
  params.pu_radius = 10.0;
  params.eta_p = SirThreshold::FromDb(8.0);
  params.eta_s = SirThreshold::FromDb(8.0);
  const double c2 = 6.0 - 16.0 / 3.0;
  const double expected = 1.0 + std::pow(c2 * DbToLinear(8.0), 0.25);
  EXPECT_NEAR(Kappa(params, C2Variant::kPaper), expected, 1e-9);
  EXPECT_NEAR(ProperCarrierSensingRange(params, C2Variant::kPaper), expected * 10.0,
              1e-9);
}

TEST(KappaTest, TakesMaxOfBothConstraints) {
  PcrParams params = Fig4Defaults();
  // R = 12 > r = 10 with equal thresholds: the primary constraint wins.
  EXPECT_NEAR(Kappa(params, C2Variant::kPaper) * params.su_radius,
              PrimaryProtectionRange(params, C2Variant::kPaper), 1e-9);
  // Huge η_s flips it to the secondary constraint.
  params.eta_s = SirThreshold::FromDb(30.0);
  EXPECT_NEAR(Kappa(params, C2Variant::kPaper) * params.su_radius,
              SecondarySuccessRange(params, C2Variant::kPaper), 1e-9);
}

// Fig. 4's claims as assertions.
TEST(KappaTest, Fig4PcrLargerAtAlphaThreeThanFour) {
  for (double eta_db : {4.0, 8.0, 10.0, 16.0}) {
    PcrParams p3 = Fig4Defaults(3.0);
    PcrParams p4 = Fig4Defaults(4.0);
    p3.eta_p = p3.eta_s = SirThreshold::FromDb(eta_db);
    p4.eta_p = p4.eta_s = SirThreshold::FromDb(eta_db);
    for (C2Variant variant : {C2Variant::kPaper, C2Variant::kCorrected}) {
      EXPECT_GT(ProperCarrierSensingRange(p3, variant),
                ProperCarrierSensingRange(p4, variant))
          << "eta=" << eta_db << " variant=" << ToString(variant);
    }
  }
}

TEST(KappaTest, Fig4NonDecreasingInEachParameter) {
  const auto pcr = [](auto mutate, double value) {
    PcrParams params = Fig4Defaults();
    mutate(params, value);
    return ProperCarrierSensingRange(params, C2Variant::kPaper);
  };
  auto check_monotone = [&](auto mutate, std::vector<double> values) {
    double prev = -1.0;
    for (double v : values) {
      const double current = pcr(mutate, v);
      EXPECT_GE(current, prev - 1e-12) << "value " << v;
      prev = current;
    }
  };
  // Power monotonicity holds on the swept side P ≥ the other network's
  // power (below it the formula is U-shaped around P_p = P_s via
  // c1 = P_p/max(P_p,P_s); Fig. 4 sweeps upward from equal powers).
  check_monotone([](PcrParams& p, double v) { p.pu_power = v; },
                 {10, 15, 20, 25, 30});
  check_monotone([](PcrParams& p, double v) { p.su_power = v; },
                 {10, 15, 20, 25, 30});
  check_monotone([](PcrParams& p, double v) { p.eta_p = SirThreshold::FromDb(v); },
                 {4, 6, 8, 10, 12, 14, 16});
  check_monotone([](PcrParams& p, double v) { p.eta_s = SirThreshold::FromDb(v); },
                 {4, 6, 8, 10, 12, 14, 16});
}

TEST(KappaTest, InterferenceMarginGrowsRange) {
  const PcrParams params = Fig4Defaults();
  const double tight = ProperCarrierSensingRange(params, C2Variant::kPaper, 1.0);
  const double margined = ProperCarrierSensingRange(params, C2Variant::kPaper, 2.0);
  EXPECT_GT(margined, tight);
  // The margin enters as margin^{1/α} on the range in excess of R (the
  // primary constraint binds at these defaults): (PCR − R) scales by 2^¼.
  const double r_pu = params.pu_radius;
  EXPECT_NEAR((margined - r_pu) / (tight - r_pu), std::pow(2.0, 0.25), 1e-9);
}

TEST(KappaTest, MarginBelowOneRejected) {
  EXPECT_THROW(ProperCarrierSensingRange(Fig4Defaults(), C2Variant::kPaper, 0.5),
               ContractViolation);
}

TEST(KappaTest, RejectsNonPositivePowersAndRadii) {
  PcrParams params = Fig4Defaults();
  params.pu_power = 0.0;
  EXPECT_THROW(Kappa(params, C2Variant::kPaper), ContractViolation);
  params = Fig4Defaults();
  params.su_radius = 0.0;
  EXPECT_THROW(Kappa(params, C2Variant::kPaper), ContractViolation);
}

TEST(KappaTest, KappaAlwaysAboveOne) {
  for (double alpha : {2.5, 3.0, 3.5, 4.0}) {
    PcrParams params = Fig4Defaults(alpha);
    EXPECT_GT(Kappa(params, C2Variant::kPaper), 1.0);
    EXPECT_GT(Kappa(params, C2Variant::kCorrected), 1.0);
  }
}

}  // namespace
}  // namespace crn::core
