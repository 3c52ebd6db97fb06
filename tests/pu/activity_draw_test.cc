// Tests for the bit-sliced i.i.d. activity draw (PrimaryNetwork::
// ResampleSlot): every lane's outcome is exactly U < T for a 53-bit uniform
// U rebuilt from the raw words the draw consumed, and the sampled process is
// statistically indistinguishable from the scalar Rng::Bernoulli loop it
// replaced, which is kept here as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "pu/primary_network.h"

namespace crn::pu {
namespace {

using geom::Aabb;

constexpr int kUniformBits = 53;

PrimaryNetwork IidNetwork(std::int32_t count, double activity) {
  PrimaryConfig config;
  config.count = count;
  config.activity = activity;
  return PrimaryNetwork(config, Aabb::Square(100.0), Rng(1));
}

// Replays the draw of one mask word from `rng` lane by lane: each raw word
// appends one bit (bit `lane` of the word) to every lane's U, most
// significant first, until every lane's prefix differs from T's prefix
// (the comparison is decided) or all 53 bits are drawn. Returns the lanes
// with U < T, checking that the undrawn low bits cannot change any verdict.
std::uint64_t ReplayWord(Rng& rng, std::uint64_t threshold, int lanes) {
  std::array<std::uint64_t, 64> u{};
  int drawn = 0;
  auto decided = [&](int lane) {
    return u[lane] != threshold >> (kUniformBits - drawn);
  };
  auto all_decided = [&] {
    for (int lane = 0; lane < lanes; ++lane) {
      if (!decided(lane)) return false;
    }
    return true;
  };
  while (drawn < kUniformBits && !all_decided()) {
    const std::uint64_t r = rng();
    for (int lane = 0; lane < lanes; ++lane) u[lane] = u[lane] << 1 | ((r >> lane) & 1);
    ++drawn;
  }
  std::uint64_t active = 0;
  const int rest = kUniformBits - drawn;
  for (int lane = 0; lane < lanes; ++lane) {
    const std::uint64_t low = u[lane] << rest;
    const std::uint64_t high = low | ((std::uint64_t{1} << rest) - 1);
    EXPECT_EQ(low < threshold, high < threshold) << "lane " << lane << " undecided";
    if (low < threshold) active |= std::uint64_t{1} << lane;
  }
  return active;
}

TEST(ActivityDrawTest, LaneBitsAreRebuiltUniformsBelowThreshold) {
  for (const double p : {1e-9, 0.1, 0.3, 0.5, 0.9, 1.0 - 1e-9}) {
    for (const std::int32_t count : {1, 64, 80, 130}) {
      PrimaryNetwork network = IidNetwork(count, p);
      const std::uint64_t threshold = Rng::BernoulliThreshold(p);
      Rng rng(1234);
      for (int slot = 0; slot < 50; ++slot) {
        Rng replay = rng;
        network.ResampleSlot(rng);
        const std::vector<std::uint64_t>& mask = network.activity_mask();
        for (std::size_t w = 0; w < mask.size(); ++w) {
          const int lanes = std::min(64, count - static_cast<int>(w) * 64);
          ASSERT_EQ(mask[w], ReplayWord(replay, threshold, lanes))
              << "p=" << p << " N=" << count << " slot " << slot << " word " << w;
        }
        // The draw consumed exactly the words the replay did.
        Rng after = rng;
        ASSERT_EQ(replay(), after()) << "p=" << p << " N=" << count;
        std::int32_t flagged = 0;
        for (PuId id = 0; id < count; ++id) flagged += network.IsActive(id) ? 1 : 0;
        ASSERT_EQ(flagged, network.active_count());
        ASSERT_EQ(flagged,
                  static_cast<std::int32_t>(network.active_transmitters().size()));
      }
    }
  }
}

TEST(ActivityDrawTest, PinnedExtremesDrawNothing) {
  for (const ActivityProcess process :
       {ActivityProcess::kIid, ActivityProcess::kMarkov}) {
    for (const double p : {0.0, 1.0}) {
      PrimaryConfig config;
      config.count = 80;
      config.activity = p;
      config.process = process;
      PrimaryNetwork network(config, Aabb::Square(100.0), Rng(1));
      Rng rng(99);
      const Rng before = rng;
      for (int slot = 0; slot < 5; ++slot) network.ResampleSlot(rng);
      Rng untouched = before;
      EXPECT_EQ(rng(), untouched()) << ToString(process) << " p=" << p;
      EXPECT_EQ(network.active_count(), p >= 1.0 ? 80 : 0);
      EXPECT_EQ(network.activations_total(), p >= 1.0 ? 5 * 80 : 0);
    }
  }
}

// One slot-major sample of activity: bit (slot, pu).
struct Sample {
  std::int32_t slots = 0;
  std::int32_t count = 0;
  std::vector<char> bits;
  [[nodiscard]] int at(std::int32_t slot, std::int32_t pu) const {
    return bits[static_cast<std::size_t>(slot) * count + pu];
  }
};

Sample BitSliced(std::int32_t count, double p, std::int32_t slots,
                 std::uint64_t seed) {
  PrimaryNetwork network = IidNetwork(count, p);
  Rng rng(seed);
  Sample sample{slots, count, {}};
  for (std::int32_t s = 0; s < slots; ++s) {
    network.ResampleSlot(rng);
    for (PuId id = 0; id < count; ++id) {
      sample.bits.push_back(network.IsActive(id) ? 1 : 0);
    }
  }
  return sample;
}

// The scalar draw loop the bit-sliced one replaced: one Rng::Bernoulli per
// PU per slot.
Sample ScalarOracle(std::int32_t count, double p, std::int32_t slots,
                    std::uint64_t seed) {
  Rng rng(seed);
  Sample sample{slots, count, {}};
  for (std::int32_t s = 0; s < slots; ++s) {
    for (std::int32_t id = 0; id < count; ++id) {
      sample.bits.push_back(rng.Bernoulli(p) ? 1 : 0);
    }
  }
  return sample;
}

// Pearson correlation between bit (s, i) and bit (s + ds, i + di) over all
// in-range pairs, pooled.
double Correlation(const Sample& x, std::int32_t ds, std::int32_t di) {
  double n = 0.0, sa = 0.0, sb = 0.0, sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::int32_t s = 0; s + ds < x.slots; ++s) {
    for (std::int32_t i = 0; i + di < x.count; ++i) {
      const double a = x.at(s, i);
      const double b = x.at(s + ds, i + di);
      n += 1.0;
      sa += a;
      sb += b;
      sab += a * b;
      saa += a * a;
      sbb += b * b;
    }
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double va = saa / n - (sa / n) * (sa / n);
  const double vb = sbb / n - (sb / n) * (sb / n);
  return cov / std::sqrt(va * vb);
}

// Histogram of run lengths of `value` per PU (runs cut at the sample's
// ends are dropped), bins 1..kRunBins-1 and a last bin for longer runs.
constexpr int kRunBins = 6;
std::array<double, kRunBins> RunLengths(const Sample& x, int value) {
  std::array<double, kRunBins> bins{};
  for (std::int32_t i = 0; i < x.count; ++i) {
    std::int32_t run = 0;
    bool open_start = true;
    for (std::int32_t s = 0; s < x.slots; ++s) {
      if (x.at(s, i) == value) {
        ++run;
        continue;
      }
      if (run > 0 && !open_start) bins[std::min(run, kRunBins) - 1] += 1.0;
      run = 0;
      open_start = false;
    }
  }
  return bins;
}

// Two-sample chi-square homogeneity statistic over paired histograms.
template <std::size_t K>
double ChiSquare(const std::array<double, K>& a, const std::array<double, K>& b) {
  double na = 0.0, nb = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    na += a[k];
    nb += b[k];
  }
  double chi2 = 0.0;
  for (std::size_t k = 0; k < K; ++k) {
    const double total = a[k] + b[k];
    if (total == 0.0) continue;
    const double ea = total * na / (na + nb);
    const double eb = total * nb / (na + nb);
    chi2 += (a[k] - ea) * (a[k] - ea) / ea + (b[k] - eb) * (b[k] - eb) / eb;
  }
  return chi2;
}

TEST(ActivityDrawTest, MatchesScalarOracleInLaw) {
  constexpr std::int32_t kCount = 80;  // one full and one partial mask word
  constexpr std::int32_t kSlots = 20000;
  // Two-sided 5σ for z statistics, and the 0.999 quantile of χ²(5).
  constexpr double kZ = 5.0;
  constexpr double kChi2Df5 = 20.52;
  for (const double p : {0.1, 0.3, 0.9}) {
    const Sample sliced = BitSliced(kCount, p, kSlots, 17);
    const Sample oracle = ScalarOracle(kCount, p, kSlots, 18);

    // Per-PU frequency: a two-proportion z test per PU, and the pooled χ².
    const double se = std::sqrt(2.0 * p * (1.0 - p) / kSlots);
    double chi2 = 0.0;
    for (std::int32_t i = 0; i < kCount; ++i) {
      double fs = 0.0, fo = 0.0;
      for (std::int32_t s = 0; s < kSlots; ++s) {
        fs += sliced.at(s, i);
        fo += oracle.at(s, i);
      }
      const double z = (fs - fo) / kSlots / se;
      EXPECT_LT(std::abs(z), kZ) << "p=" << p << " PU " << i;
      chi2 += z * z;
    }
    // χ²(80): mean 80, sd 12.6.
    EXPECT_LT(chi2, 80.0 + 5.0 * 12.6) << "p=" << p;
    EXPECT_GT(chi2, 80.0 - 5.0 * 12.6) << "p=" << p;

    // Active and idle run lengths (slot-to-slot dependence per PU).
    EXPECT_LT(ChiSquare(RunLengths(sliced, 1), RunLengths(oracle, 1)), kChi2Df5)
        << "p=" << p;
    EXPECT_LT(ChiSquare(RunLengths(sliced, 0), RunLengths(oracle, 0)), kChi2Df5)
        << "p=" << p;

    // Lane-to-lane (same slot: neighbours, across the word seam at lag 63,
    // and lane 0 of both words at lag 64) and slot-to-slot correlation. Under
    // independence each estimate is ≈ N(0, 1/pairs).
    for (const auto& [ds, di] : std::array<std::array<std::int32_t, 2>, 5>{
             {{0, 1}, {0, 63}, {0, 64}, {1, 0}, {2, 0}}}) {
      const double pairs = static_cast<double>(kSlots - ds) * (kCount - di);
      const double tol = kZ / std::sqrt(pairs);
      const double cs = Correlation(sliced, ds, di);
      const double co = Correlation(oracle, ds, di);
      EXPECT_LT(std::abs(cs), tol) << "p=" << p << " lag (" << ds << "," << di << ")";
      EXPECT_LT(std::abs(cs - co), tol * std::sqrt(2.0))
          << "p=" << p << " lag (" << ds << "," << di << ")";
    }
  }
}

}  // namespace
}  // namespace crn::pu
