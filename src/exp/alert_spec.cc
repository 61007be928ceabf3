#include "exp/alert_spec.h"

#include <string>
#include <utility>

namespace vfl::exp {

core::StatusOr<obs::AlertRule> BuildAlertRule(std::string_view kind_name,
                                              const ConfigMap& config) {
  obs::AlertRule rule;
  if (kind_name == "threshold") {
    rule.kind = obs::AlertRuleKind::kThreshold;
  } else if (kind_name == "rate") {
    rule.kind = obs::AlertRuleKind::kRate;
  } else if (kind_name == "slo") {
    rule.kind = obs::AlertRuleKind::kSloBurn;
  } else {
    return core::Status::InvalidArgument(
        "alert rule kind must be threshold|rate|slo, got '" +
        std::string(kind_name) + "'");
  }

  VFL_ASSIGN_OR_RETURN(rule.metric, config.GetString("metric", ""));
  if (rule.metric.empty()) {
    return core::Status::InvalidArgument("alert rule needs metric=NAME");
  }
  VFL_ASSIGN_OR_RETURN(rule.name, config.GetString("name", ""));
  VFL_ASSIGN_OR_RETURN(rule.divide_by, config.GetString("div", ""));
  VFL_ASSIGN_OR_RETURN(rule.percentile, config.GetDouble("p", 0.0));
  if (rule.percentile < 0.0 || rule.percentile >= 1.0) {
    return core::Status::InvalidArgument(
        "alert rule percentile must be in [0, 1)");
  }

  const bool has_above = config.Has("above");
  const bool has_below = config.Has("below");
  if (has_above == has_below) {
    return core::Status::InvalidArgument(
        "alert rule needs exactly one of above=X / below=X");
  }
  if (has_above) {
    rule.compare = obs::AlertCompare::kAbove;
    VFL_ASSIGN_OR_RETURN(rule.threshold, config.GetDouble("above", 0.0));
  } else {
    rule.compare = obs::AlertCompare::kBelow;
    VFL_ASSIGN_OR_RETURN(rule.threshold, config.GetDouble("below", 0.0));
  }

  VFL_ASSIGN_OR_RETURN(rule.for_samples, config.GetSize("for", 1));
  if (rule.for_samples == 0) rule.for_samples = 1;
  VFL_ASSIGN_OR_RETURN(rule.window, config.GetSize("window", 8));
  if (rule.window == 0) rule.window = 1;
  VFL_ASSIGN_OR_RETURN(rule.budget, config.GetDouble("budget", 0.1));
  if (rule.budget <= 0.0 || rule.budget > 1.0) {
    return core::Status::InvalidArgument(
        "alert rule budget must be in (0, 1]");
  }
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("alert rule"));
  return rule;
}

namespace {

/// One "KIND:key=value,..." entry.
core::StatusOr<obs::AlertRule> ParseOneRule(std::string_view entry) {
  const std::size_t colon = entry.find(':');
  const std::string_view kind_name =
      colon == std::string_view::npos ? entry : entry.substr(0, colon);
  const std::string_view body =
      colon == std::string_view::npos ? std::string_view{}
                                      : entry.substr(colon + 1);
  VFL_ASSIGN_OR_RETURN(const ConfigMap config, ConfigMap::Parse(body));
  return BuildAlertRule(kind_name, config);
}

}  // namespace

core::StatusOr<std::vector<obs::AlertRule>> ParseAlertRules(
    std::string_view spec) {
  std::vector<obs::AlertRule> rules;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view entry =
        semi == std::string_view::npos ? rest : rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;
    VFL_ASSIGN_OR_RETURN(obs::AlertRule rule, ParseOneRule(entry));
    rules.push_back(std::move(rule));
  }
  return rules;
}

}  // namespace vfl::exp
