#include "pu/primary_network.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "geom/deployment.h"
#include "sim/checkpoint.h"

namespace crn::pu {

namespace {

constexpr double kGridCellOverRadius = 1.0;

// Bit-sliced Bernoulli draw: returns, for every lane set in `lanes`, an
// independent outcome U < T for a 53-bit uniform U, where T is
// Rng::BernoulliThreshold(p) — exactly Rng::Bernoulli(p)'s law. Lane i's U
// takes bit b from bit i of the (52 - b)-th raw word drawn, so U and T are
// compared most-significant bit first for all 64 lanes at once: where T's
// bit is 1 a lane whose U bit is 0 is decided active, where it is 0 a lane
// whose U bit is 1 is decided idle, and equal bits stay undecided. Each word
// decides about half the undecided lanes, so the loop stops after ≈7.3
// words for 64 lanes instead of one word per lane. Lanes still undecided
// after bit 0 have U == T and stay idle.
std::uint64_t DrawLanes(Rng& rng, std::uint64_t threshold, std::uint64_t lanes) {
  std::uint64_t hits = 0;
  std::uint64_t undecided = lanes;
  for (int bit = 52; bit >= 0 && undecided != 0; --bit) {
    const std::uint64_t r = rng();
    const std::uint64_t t_bit = 0 - ((threshold >> bit) & 1);  // all ones iff 1
    hits |= undecided & ~r & t_bit;
    undecided &= ~(r ^ t_bit);
  }
  return hits;
}

// Bernoulli(p) over a set of lanes, with p ≤ 0 and p ≥ 1 pinned and drawing
// nothing, like Rng::Bernoulli at the extremes.
class LaneBernoulli {
 public:
  explicit LaneBernoulli(double p)
      : p_(p), threshold_(p > 0.0 && p < 1.0 ? Rng::BernoulliThreshold(p) : 0) {}

  std::uint64_t operator()(Rng& rng, std::uint64_t lanes) const {
    if (p_ <= 0.0) return 0;
    if (p_ >= 1.0) return lanes;
    return DrawLanes(rng, threshold_, lanes);
  }

 private:
  double p_;
  std::uint64_t threshold_;
};

}  // namespace

const char* ToString(ActivityProcess process) {
  switch (process) {
    case ActivityProcess::kIid:
      return "iid";
    case ActivityProcess::kMarkov:
      return "markov";
  }
  return "unknown";
}

std::string PrimaryConfigError(const PrimaryConfig& config) {
  std::ostringstream out;
  if (config.count < 0) {
    out << "N=" << config.count << ": the PU count cannot be negative";
  } else if (!(config.power > 0.0)) {
    out << "P_p=" << config.power << ": the PU transmit power must be positive";
  } else if (!(config.radius > 0.0)) {
    out << "R=" << config.radius << ": the PU transmission radius must be positive";
  } else if (!(config.activity >= 0.0 && config.activity <= 1.0)) {
    out << "p_t=" << config.activity
        << " is a per-slot probability; pass a value in [0, 1]";
  } else if (config.slot <= 0) {
    out << "slot=" << config.slot << " ns: the PU slot duration must be positive";
  } else if (config.process == ActivityProcess::kMarkov && config.activity < 1.0) {
    if (!(config.mean_burst_slots >= 1.0)) {
      out << "mean burst=" << config.mean_burst_slots
          << " slots: an active run lasts at least one slot; pass a value >= 1";
    } else if (config.activity / (config.mean_burst_slots * (1.0 - config.activity)) >
               1.0) {
      out << "p_t=" << config.activity << " is unreachable with a mean burst of "
          << config.mean_burst_slots
          << " slots (the idle->active probability would exceed 1); lengthen the "
          << "bursts to at least " << config.activity / (1.0 - config.activity)
          << " slots or lower p_t";
    }
  }
  return out.str();
}

PrimaryNetwork::PrimaryNetwork(const PrimaryConfig& config, geom::Aabb area,
                               Rng deployment_rng)
    : PrimaryNetwork(config, area,
                     geom::UniformDeployment(config.count, area, deployment_rng)) {}

PrimaryNetwork::PrimaryNetwork(const PrimaryConfig& config, geom::Aabb area,
                               std::vector<geom::Vec2> positions)
    : config_(config),
      positions_(std::move(positions)),
      grid_(positions_, area, std::max(config.radius * kGridCellOverRadius, 1.0)) {
  const std::string error = PrimaryConfigError(config);
  CRN_CHECK(error.empty()) << error;
  CRN_CHECK(static_cast<std::int32_t>(positions_.size()) == config.count)
      << positions_.size() << " positions for N=" << config.count;
  activity_mask_.assign((positions_.size() + 63) / 64, 0);
  receiver_.assign(positions_.size(), geom::Vec2{});
}

std::uint64_t PrimaryNetwork::LaneMask(std::size_t word) const {
  const std::size_t tail = positions_.size() & 63;
  return word + 1 < activity_mask_.size() || tail == 0 ? ~0ULL
                                                       : (1ULL << tail) - 1;
}

void PrimaryNetwork::ResampleSlot(Rng& rng) {
  // Draw from a local copy of the generator: mask stores are uint64 writes,
  // which the compiler must otherwise assume may alias the caller's Rng
  // state, forcing a state reload/spill on every draw.
  Rng local = rng;
  std::uint64_t* mask = activity_mask_.data();
  const std::size_t words = activity_mask_.size();
  if (config_.process == ActivityProcess::kIid || slots_sampled_ == 0) {
    // i.i.d. slots, and the Markov chain's first slot (drawn from its
    // stationary distribution).
    const LaneBernoulli draw(config_.activity);
    for (std::size_t w = 0; w < words; ++w) mask[w] = draw(local, LaneMask(w));
  } else {
    // Two-state chain with stationary probability p_t of being active:
    //   P(active -> idle)  = 1/L                    (mean burst L slots)
    //   P(idle  -> active) = p_t / (L (1 - p_t))    (stationarity)
    // Off-draws cover the active lanes, on-draws the idle ones. Degenerate
    // duty cycles pin the chain to one state.
    const double p_off =
        config_.activity >= 1.0 ? 0.0 : 1.0 / config_.mean_burst_slots;
    const double p_on =
        config_.activity >= 1.0
            ? 1.0
            : config_.activity * p_off / (1.0 - config_.activity);
    const LaneBernoulli turn_off(p_off);
    const LaneBernoulli turn_on(p_on);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t on = mask[w];
      const std::uint64_t offs = turn_off(local, on);
      const std::uint64_t ons = turn_on(local, LaneMask(w) & ~on);
      mask[w] = (on & ~offs) | ons;
    }
  }
  rng = local;
  NoteMaskChanged();
  activations_total_ += active_count_;
  ++slots_sampled_;
}

void PrimaryNetwork::NoteMaskChanged() {
  std::int32_t count = 0;
  for (const std::uint64_t word : activity_mask_) count += __builtin_popcountll(word);
  active_count_ = count;
  active_list_stale_ = true;
}

void PrimaryNetwork::RebuildActiveList() {
  active_list_.resize(static_cast<std::size_t>(active_count_));
  PuId* list = active_list_.data();
  std::size_t actives = 0;
  for (std::size_t w = 0; w < activity_mask_.size(); ++w) {
    std::uint64_t bits = activity_mask_[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      list[actives++] = static_cast<PuId>(w * 64 + static_cast<std::size_t>(bit));
      bits &= bits - 1;
    }
  }
  active_list_stale_ = false;
}

void PrimaryNetwork::OverrideActivity(double activity) {
  PrimaryConfig overridden = config_;
  overridden.activity = activity;
  const std::string error = PrimaryConfigError(overridden);
  CRN_CHECK(error.empty()) << error;
  config_.activity = activity;
}

void PrimaryNetwork::SaveState(sim::StateWriter& writer) const {
  writer.BeginSection("pu");
  // config_.activity may carry a fault-injection override at checkpoint
  // time; the restored network must resample with the same target.
  writer.WriteDouble(config_.activity);
  writer.WriteI64(slots_sampled_);
  writer.WriteI64(activations_total_);
  // One byte per PU (the section's layout predates the bitmask).
  writer.WriteU32(static_cast<std::uint32_t>(count()));
  for (PuId id = 0; id < count(); ++id) writer.WriteU8(IsActive(id) ? 1 : 0);
  // Receiver draws are lazy (audit-only), but the audit stride may span the
  // checkpoint boundary, so the positions must ride along bit-exactly.
  for (const geom::Vec2& receiver : receiver_) {
    writer.WriteDouble(receiver.x);
    writer.WriteDouble(receiver.y);
  }
  writer.EndSection();
}

void PrimaryNetwork::LoadState(sim::StateReader& reader) {
  if (!reader.OpenSection("pu")) return;
  const double activity = reader.ReadDouble();
  const std::int64_t slots_sampled = reader.ReadI64();
  const std::int64_t activations_total = reader.ReadI64();
  const std::uint32_t pu_count = reader.ReadU32();
  if (reader.ok() && pu_count != positions_.size()) {
    // Consume nothing further; EndSection will flag the layout mismatch.
    reader.EndSection();
    return;
  }
  std::vector<std::uint64_t> mask(activity_mask_.size(), 0);
  for (std::size_t id = 0; id < positions_.size(); ++id) {
    if (reader.ReadU8() != 0) mask[id >> 6] |= 1ULL << (id & 63);
  }
  std::vector<geom::Vec2> receivers(receiver_.size());
  for (geom::Vec2& receiver : receivers) {
    receiver.x = reader.ReadDouble();
    receiver.y = reader.ReadDouble();
  }
  reader.EndSection();
  if (!reader.ok()) return;
  config_.activity = activity;
  slots_sampled_ = slots_sampled;
  activations_total_ = activations_total;
  activity_mask_ = std::move(mask);
  receiver_ = std::move(receivers);
  NoteMaskChanged();
}

void PrimaryNetwork::SampleReceiverPositions(Rng& rng) {
  for (PuId id : active_transmitters()) {
    // Uniform receiver in the disk of radius R (sqrt trick).
    const double rho = config_.radius * std::sqrt(rng.UniformDouble());
    const double theta = rng.UniformDouble(0.0, 2.0 * M_PI);
    receiver_[id] = {positions_[id].x + rho * std::cos(theta),
                     positions_[id].y + rho * std::sin(theta)};
  }
}

}  // namespace crn::pu
