#include "exp/experiment.h"

#include <string>

#include "exp/channel_registry.h"
#include "exp/sim_registry.h"

namespace vfl::exp {

core::Status ValidateSpec(const ExperimentSpec& spec) {
  if (spec.name.empty()) {
    return core::Status::InvalidArgument("experiment name must be non-empty");
  }
  if (spec.datasets.empty()) {
    return core::Status::InvalidArgument(
        "experiment '" + spec.name + "' has no datasets");
  }
  if (spec.attacks.empty()) {
    return core::Status::InvalidArgument(
        "experiment '" + spec.name + "' has no attacks");
  }
  for (const double fraction : spec.target_fractions) {
    if (fraction <= 0.0 || fraction >= 1.0) {
      return core::Status::OutOfRange(
          "experiment '" + spec.name +
          "': target fractions must lie in (0, 1)");
    }
  }
  if (spec.pred_fraction > 1.0) {
    return core::Status::OutOfRange(
        "experiment '" + spec.name + "': pred_fraction must be <= 1");
  }
  if (spec.channels.empty()) {
    return core::Status::InvalidArgument(
        "experiment '" + spec.name + "' has no query channels");
  }
  for (std::size_t i = 0; i < spec.channels.size(); ++i) {
    const std::string& channel = spec.channels[i];
    if (channel.empty()) {
      return core::Status::InvalidArgument(
          "experiment '" + spec.name + "': empty channel kind");
    }
    // Specs may carry per-kind config ("net:port=0"); structural checks key
    // on the kind part, which is also the whole row label — two specs of one
    // kind would emit indistinguishable rows even with different configs.
    const std::string_view kind = ChannelSpecKind(channel);
    for (std::size_t j = 0; j < i; ++j) {
      if (ChannelSpecKind(spec.channels[j]) == kind) {
        return core::Status::InvalidArgument(
            "experiment '" + spec.name + "': channel kind '" +
            std::string(kind) +
            "' listed twice (rows would duplicate indistinguishably)");
      }
    }
  }
  for (std::size_t i = 0; i < spec.sims.size(); ++i) {
    const std::string& sim = spec.sims[i];
    if (sim.empty()) {
      return core::Status::InvalidArgument(
          "experiment '" + spec.name + "': empty sim profile");
    }
    // Like channels: the kind part is the whole row label, so duplicate
    // kinds would emit indistinguishable rows.
    const std::string_view kind = SimSpecKind(sim);
    for (std::size_t j = 0; j < i; ++j) {
      if (SimSpecKind(spec.sims[j]) == kind) {
        return core::Status::InvalidArgument(
            "experiment '" + spec.name + "': sim profile '" +
            std::string(kind) +
            "' listed twice (rows would duplicate indistinguishably)");
      }
    }
  }
  return core::Status::Ok();
}

core::StatusOr<ExperimentSpec> ExperimentSpecBuilder::Build() {
  if (spec_.target_fractions.empty()) {
    spec_.target_fractions = DefaultTargetFractions();
  }
  VFL_RETURN_IF_ERROR(ValidateSpec(spec_));
  return spec_;
}

}  // namespace vfl::exp
