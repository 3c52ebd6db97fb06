#include "spectrum/interference_field.h"

#include <gtest/gtest.h>

#include <vector>

#include "geom/vec2.h"

namespace crn::spectrum {
namespace {

using geom::Vec2;

std::vector<Vec2> SuPositions() {
  return {{0.0, 0.0}, {3.0, 4.0}, {10.0, 0.0}, {7.0, 7.0}, {1.0, 9.0}};
}

std::vector<Vec2> PuPositions() { return {{2.0, 2.0}, {8.0, 1.0}, {5.0, 9.0}}; }

constexpr double kSuPower = 1.5;
constexpr double kPuPower = 6.0;

InterferenceField MakeField(double alpha = 4.0) {
  return InterferenceField(PathLoss(alpha), SuPositions(), kSuPower,
                           PuPositions(), kPuPower);
}

// Test-local oracle: the received power of `tx_pos`'s signal at `rx_pos`,
// computed from positions on every call (no cache, no memo).
double FromPositions(double power, Vec2 tx_pos, Vec2 rx_pos, double alpha = 4.0) {
  return PathLoss(alpha).ReceivedPowerSquared(power,
                                              geom::DistanceSquared(tx_pos, rx_pos));
}

// Ascending-id sum of the active PUs' powers at SU `rx`, from positions.
double PuSumFromPositions(std::int32_t rx, const std::vector<std::int32_t>& active) {
  double sum = 0.0;
  for (const std::int32_t pu : active) {
    sum += FromPositions(kPuPower, PuPositions()[static_cast<std::size_t>(pu)],
                         SuPositions()[static_cast<std::size_t>(rx)]);
  }
  return sum;
}

TEST(PairGainCacheTest, GainMatchesDirectBitForBit) {
  for (const double alpha : {4.0, 3.5, 2.7}) {
    PairGainCache cache(PathLoss(alpha), 2.5, SuPositions(), SuPositions());
    FieldWork work;
    for (std::int32_t tx = 0; tx < 5; ++tx) {
      for (std::int32_t rx = 0; rx < 5; ++rx) {
        // EXPECT_EQ, not NEAR: the cache must hold the exact double the
        // direct expression produces — that is the whole determinism story.
        EXPECT_EQ(cache.Gain(tx, rx, work), cache.Direct(tx, rx))
            << "alpha=" << alpha << " tx=" << tx << " rx=" << rx;
      }
    }
  }
}

TEST(PairGainCacheTest, CountsMissesThenHits) {
  PairGainCache cache(PathLoss(4.0), 1.0, SuPositions(), SuPositions());
  FieldWork work;
  (void)cache.Gain(0, 1, work);
  (void)cache.Gain(2, 1, work);
  EXPECT_EQ(work.gain_cache_misses, 2);
  EXPECT_EQ(work.gain_cache_hits, 0);
  (void)cache.Gain(0, 1, work);
  (void)cache.Gain(2, 1, work);
  EXPECT_EQ(work.gain_cache_misses, 2);
  EXPECT_EQ(work.gain_cache_hits, 2);
}

TEST(PairGainCacheTest, RowsMaterializeLazily) {
  PairGainCache cache(PathLoss(4.0), 1.0, SuPositions(), SuPositions());
  FieldWork work;
  EXPECT_EQ(cache.allocated_rows(), 0);
  (void)cache.Gain(0, 3, work);
  EXPECT_EQ(cache.allocated_rows(), 1);
  (void)cache.Gain(1, 3, work);
  EXPECT_EQ(cache.allocated_rows(), 1);
  (void)cache.Gain(1, 0, work);
  EXPECT_EQ(cache.allocated_rows(), 2);
}

TEST(PairGainCacheTest, RejectsNonPositivePower) {
  EXPECT_THROW(PairGainCache(PathLoss(4.0), 0.0, SuPositions(), SuPositions()),
               ContractViolation);
}

TEST(InterferenceFieldTest, EnginesAgreeOnEveryGain) {
  // The field's cached gains equal the from-positions expression bit for
  // bit — at alpha=4's fast path and the general std::pow path alike.
  for (const double alpha : {4.0, 3.5}) {
    InterferenceField field = MakeField(alpha);
    for (std::int32_t tx = 0; tx < 5; ++tx) {
      for (std::int32_t rx = 0; rx < 5; ++rx) {
        EXPECT_EQ(field.SuGain(tx, rx),
                  FromPositions(kSuPower, SuPositions()[static_cast<std::size_t>(tx)],
                                SuPositions()[static_cast<std::size_t>(rx)], alpha))
            << "alpha=" << alpha << " tx=" << tx << " rx=" << rx;
      }
    }
    for (std::int32_t pu = 0; pu < 3; ++pu) {
      for (std::int32_t rx = 0; rx < 5; ++rx) {
        EXPECT_EQ(field.PuGain(pu, rx),
                  FromPositions(kPuPower, PuPositions()[static_cast<std::size_t>(pu)],
                                SuPositions()[static_cast<std::size_t>(rx)], alpha))
            << "alpha=" << alpha << " pu=" << pu << " rx=" << rx;
      }
    }
  }
}

TEST(InterferenceFieldTest, CachedEngineCountsOnlyMissesAsTerms) {
  InterferenceField field = MakeField();
  (void)field.SuGain(0, 1);
  (void)field.SuGain(0, 1);
  (void)field.SuGain(0, 1);
  EXPECT_EQ(field.work().sir_terms_evaluated, 1);
  EXPECT_EQ(field.work().gain_cache_misses, 1);
  EXPECT_EQ(field.work().gain_cache_hits, 2);
}

TEST(InterferenceFieldTest, PuInterferenceMemoIsBitExact) {
  InterferenceField field = MakeField();
  const std::vector<std::int32_t> active{0, 2};
  EXPECT_TRUE(field.NotePuSample(active));

  const double first = field.PuInterference(1, active);
  EXPECT_EQ(first, PuSumFromPositions(1, active));
  EXPECT_EQ(field.work().pu_partials_reused, 0);

  const double again = field.PuInterference(1, active);
  EXPECT_EQ(again, first);
  EXPECT_EQ(field.work().pu_partials_reused, 1);

  // A different receiver fills its own memo slot.
  const double other = field.PuInterference(3, active);
  EXPECT_EQ(other, PuSumFromPositions(3, active));
  EXPECT_EQ(field.work().pu_partials_reused, 1);
}

TEST(InterferenceFieldTest, PuSetChangeInvalidatesMemo) {
  InterferenceField field = MakeField();
  const std::vector<std::int32_t> first{0, 1};
  field.NotePuSample(first);
  const double before = field.PuInterference(2, first);
  const std::vector<std::int32_t> second{1};
  EXPECT_TRUE(field.NotePuSample(second));
  const double after = field.PuInterference(2, second);
  EXPECT_NE(before, after);
  EXPECT_EQ(field.work().pu_partials_reused, 0);
  // The new memo serves the new set.
  EXPECT_EQ(field.PuInterference(2, second), after);
  EXPECT_EQ(field.work().pu_partials_reused, 1);
}

// The dirty-set epoch semantics behind the MAC's reevaluation triggers:
// tx start bumps change_epoch only, tx end/abort bumps shrink_epoch only,
// and a slot-boundary PU resample bumps change + pu only when the active
// set actually changed.
TEST(InterferenceFieldTest, EpochSemantics) {
  InterferenceField field = MakeField();
  EXPECT_EQ(field.change_epoch(), 0);
  EXPECT_EQ(field.pu_epoch(), 0);
  EXPECT_EQ(field.shrink_epoch(), 0);

  field.NoteSuInterfererAdded();  // a transmission started
  EXPECT_EQ(field.change_epoch(), 1);
  EXPECT_EQ(field.pu_epoch(), 0);
  EXPECT_EQ(field.shrink_epoch(), 0);

  field.NoteSuInterfererRemoved();  // it ended (or aborted)
  EXPECT_EQ(field.change_epoch(), 1);
  EXPECT_EQ(field.shrink_epoch(), 1);

  // First sample with no active PUs matches the initial empty set: no bump.
  EXPECT_FALSE(field.NotePuSample({}));
  EXPECT_EQ(field.change_epoch(), 1);
  EXPECT_EQ(field.pu_epoch(), 0);

  EXPECT_TRUE(field.NotePuSample({1, 2}));
  EXPECT_EQ(field.change_epoch(), 2);
  EXPECT_EQ(field.pu_epoch(), 1);

  // Resampling the identical set is not a change.
  EXPECT_FALSE(field.NotePuSample({1, 2}));
  EXPECT_EQ(field.change_epoch(), 2);
  EXPECT_EQ(field.pu_epoch(), 1);

  EXPECT_TRUE(field.NotePuSample({}));
  EXPECT_EQ(field.change_epoch(), 3);
  EXPECT_EQ(field.pu_epoch(), 2);
}

TEST(InterferenceFieldTest, EmptyPuDeploymentIsUsable) {
  InterferenceField field(PathLoss(4.0), SuPositions(), 1.0, {}, 0.0);
  EXPECT_EQ(field.PuInterference(0, {}), 0.0);
  EXPECT_EQ(field.work().sir_terms_evaluated, 0);
}

}  // namespace
}  // namespace crn::spectrum
