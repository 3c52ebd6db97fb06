#include "core/scenario.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace crn::core {

PcrParams ScenarioConfig::MakePcrParams() const {
  PcrParams params;
  params.pu_power = pu_power;
  params.su_power = su_power;
  params.pu_radius = pu_radius;
  params.su_radius = su_radius;
  params.eta_p = SirThreshold::FromDb(eta_p_db);
  params.eta_s = SirThreshold::FromDb(eta_s_db);
  params.alpha = alpha;
  return params;
}

pu::PrimaryConfig ScenarioConfig::MakePrimaryConfig() const {
  pu::PrimaryConfig config;
  config.count = num_pus;
  config.power = pu_power;
  config.radius = pu_radius;
  config.activity = pu_activity;
  config.slot = slot;
  config.process = pu_activity_process;
  config.mean_burst_slots = pu_mean_burst_slots;
  return config;
}

ScenarioConfig ScenarioConfig::PaperDefaults() { return ScenarioConfig{}; }

ScenarioConfig ScenarioConfig::ScaledDefaults(double scale) {
  CRN_CHECK(scale > 0.0 && scale <= 1.0) << "scale=" << scale;
  ScenarioConfig config;
  config.num_sus = static_cast<std::int32_t>(std::lround(config.num_sus * scale));
  config.num_pus = static_cast<std::int32_t>(std::lround(config.num_pus * scale));
  config.area_side *= std::sqrt(scale);  // area scales linearly with n and N
  return config;
}

std::string ScenarioGeometryError(const ScenarioConfig& config) {
  std::ostringstream out;
  if (config.num_sus <= 0) {
    out << "n=" << config.num_sus << ": the secondary network needs at least one SU";
  } else if (config.num_pus < 0) {
    out << "N=" << config.num_pus << ": the PU count cannot be negative";
  } else if (!(std::isfinite(config.area_side) && config.area_side > 0.0)) {
    out << "area side=" << config.area_side
        << " m: the deployment square needs a finite positive side";
  } else if (!(std::isfinite(config.su_radius) && config.su_radius > 0.0)) {
    out << "r=" << config.su_radius
        << " m: the SU transmission radius must be finite and positive";
  } else if (config.max_deployment_attempts <= 0) {
    out << "max_deployment_attempts=" << config.max_deployment_attempts
        << ": at least one deployment draw is needed";
  }
  return out.str();
}

Scenario::Scenario(const ScenarioConfig& config, std::uint64_t repetition)
    : Scenario(config, repetition, ScenarioPrefab::Build(config, repetition)) {}

Scenario::Scenario(const ScenarioConfig& config, std::uint64_t repetition,
                   std::shared_ptr<const ScenarioPrefab> prefab)
    : config_(config), repetition_(repetition), prefab_(std::move(prefab)) {
  CRN_CHECK(prefab_ != nullptr);
  CRN_CHECK(prefab_->key == PrefabKey::Of(config, repetition))
      << "prefab key mismatch: the supplied prefab was built for a different "
      << "geometry than (config, repetition=" << repetition
      << ") — sharing it would simulate the wrong deployment";
  kappa_ = Kappa(config.MakePcrParams(), config.c2_variant);
  pcr_ = kappa_ * config.su_radius;
}

pu::PrimaryNetwork Scenario::MakePrimaryNetwork() const {
  return pu::PrimaryNetwork(config_.MakePrimaryConfig(), prefab_->area,
                            prefab_->pu_positions);
}

Rng Scenario::MakeRunRng() const {
  return Rng(config_.seed).Stream("run", repetition_);
}

}  // namespace crn::core
