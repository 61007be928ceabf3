#ifndef VFLFIA_EXP_ALERT_SPEC_H_
#define VFLFIA_EXP_ALERT_SPEC_H_

#include <string_view>
#include <vector>

#include "core/status.h"
#include "exp/config_map.h"
#include "obs/alert.h"

namespace vfl::exp {

/// Parses a declarative alert-rule spec into obs::AlertRule values — the
/// ConfigMap idiom, one rule per ';'-separated entry:
///
///   KIND:key=value,key=value;KIND:...
///
/// KIND is `threshold`, `rate`, or `slo`. Keys:
///   metric=NAME     (required) instrument the rule watches
///   above=X | below=X  (exactly one) comparison and threshold
///   name=LABEL      display name (defaults to the metric)
///   div=A+B+...     ratio denominator point names (threshold rules)
///   p=0.99          histogram delta percentile (histogram metrics)
///   for=N           consecutive breaching samples before firing (default 1)
///   window=N        slo: sliding window length in samples (default 8)
///   budget=F        slo: allowed breaching fraction (default 0.1)
///
/// Examples:
///   threshold:metric=net.predict_ns,p=0.99,above=5000000,for=3
///   threshold:metric=serve.cache_hits,div=serve.cache_hits+serve.cache_misses,below=0.5,for=5
///   slo:metric=serve.auditor.denied,above=100,window=20,budget=0.25
///
/// Every malformed entry is a typed kInvalidArgument naming the offending
/// rule. An empty spec parses to an empty rule set.
core::StatusOr<std::vector<obs::AlertRule>> ParseAlertRules(
    std::string_view spec);

/// Builds one rule of kind `kind_name` (threshold|rate|slo) from the keys
/// above, with ParseAlertRules' validation and messages. Every key in
/// `config` must be one of them.
core::StatusOr<obs::AlertRule> BuildAlertRule(std::string_view kind_name,
                                              const ConfigMap& config);

}  // namespace vfl::exp

#endif  // VFLFIA_EXP_ALERT_SPEC_H_
