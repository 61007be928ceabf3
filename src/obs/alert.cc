#include "obs/alert.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/snapshot_io.h"
#include "obs/telemetry_log.h"
#include "store/coding.h"

namespace vfl::obs {

namespace {

core::Status Corrupt(const char* what) {
  return core::Status::InvalidArgument(std::string("alert transition: ") +
                                       what);
}

std::uint64_t DoubleBits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

bool Breaches(AlertCompare compare, double value, double threshold) {
  return compare == AlertCompare::kAbove ? value > threshold
                                         : value < threshold;
}

/// Raw per-frame magnitude of a point: counter delta, gauge level, histogram
/// recording count. The unit ratios (cache hit-ratio) are built from.
bool RawDelta(const TimeseriesFrame& frame, std::string_view name,
              double* out) {
  const TimeseriesPoint* point = frame.Find(name);
  if (point == nullptr) return false;
  *out = point->type == InstrumentType::kHistogram
             ? static_cast<double>(point->hist_count)
             : static_cast<double>(point->value);
  return true;
}

}  // namespace

std::string_view AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
  }
  return "unknown";
}

std::string EncodeAlertTransition(const AlertTransition& transition) {
  std::string out;
  store::PutVarint64(&out, transition.seq);
  store::PutVarint64(&out, transition.t_ns);
  store::PutVarint32(&out, transition.rule_index);
  out.push_back(static_cast<char>(transition.from));
  out.push_back(static_cast<char>(transition.to));
  store::PutFixed64(&out, DoubleBits(transition.value));
  store::PutFixed64(&out, DoubleBits(transition.threshold));
  store::PutVarint32(&out,
                     static_cast<std::uint32_t>(transition.rule_name.size()));
  out.append(transition.rule_name);
  return out;
}

core::StatusOr<AlertTransition> DecodeAlertTransition(std::string_view bytes) {
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  AlertTransition transition;
  if (!store::GetVarint64(&p, limit, &transition.seq) ||
      !store::GetVarint64(&p, limit, &transition.t_ns) ||
      !store::GetVarint32(&p, limit, &transition.rule_index)) {
    return Corrupt("truncated header");
  }
  if (limit - p < 2 + 16) return Corrupt("truncated body");
  const auto from = static_cast<std::uint8_t>(*p++);
  const auto to = static_cast<std::uint8_t>(*p++);
  if (from > 2 || to > 2) return Corrupt("invalid state");
  transition.from = static_cast<AlertState>(from);
  transition.to = static_cast<AlertState>(to);
  transition.value = BitsDouble(store::DecodeFixed64(p));
  p += 8;
  transition.threshold = BitsDouble(store::DecodeFixed64(p));
  p += 8;
  std::uint32_t name_len = 0;
  if (!store::GetVarint32(&p, limit, &name_len)) {
    return Corrupt("truncated name length");
  }
  if (name_len > static_cast<std::uint64_t>(limit - p)) {
    return Corrupt("name length exceeds record");
  }
  transition.rule_name.assign(p, name_len);
  p += name_len;
  if (p != limit) return Corrupt("trailing bytes");
  return transition;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules,
                         AlertEngineOptions options)
    : rules_(std::move(rules)), options_(options), states_(rules_.size()) {
  MetricsRegistry& registry = RegistryOr(options_.metrics);
  registrations_.push_back(
      registry.RegisterCounter("alert.evaluations", "samples", &evaluations_));
  registrations_.push_back(registry.RegisterCounter(
      "alert.transitions", "transitions", &transitions_total_));
  registrations_.push_back(
      registry.RegisterCounter("alert.fired", "alerts", &fired_));
  registrations_.push_back(
      registry.RegisterCounter("alert.resolved", "alerts", &resolved_));
  registrations_.push_back(
      registry.RegisterGauge("alert.firing", "alerts", &firing_));
}

bool AlertEngine::ExtractValue(const AlertRule& rule, RuleState& state,
                               const TimeseriesFrame& frame,
                               double* value) const {
  double base = 0.0;
  if (!rule.divide_by.empty()) {
    double numerator = 0.0;
    if (!RawDelta(frame, rule.metric, &numerator)) return false;
    double denominator = 0.0;
    std::string_view rest = rule.divide_by;
    while (!rest.empty()) {
      const std::size_t plus = rest.find('+');
      const std::string_view part =
          plus == std::string_view::npos ? rest : rest.substr(0, plus);
      rest = plus == std::string_view::npos ? std::string_view{}
                                            : rest.substr(plus + 1);
      double term = 0.0;
      if (!RawDelta(frame, part, &term)) return false;
      denominator += term;
    }
    // Zero traffic carries no ratio information: skipping (instead of
    // evaluating 0/0) keeps an idle server from breaching a hit-ratio floor.
    if (denominator <= 0.0) return false;
    base = numerator / denominator;
  } else {
    const TimeseriesPoint* point = frame.Find(rule.metric);
    if (point == nullptr) return false;
    switch (point->type) {
      case InstrumentType::kCounter:
        if (frame.period_ns == 0) return false;
        base = static_cast<double>(point->value) * 1e9 /
               static_cast<double>(frame.period_ns);
        break;
      case InstrumentType::kGauge:
        base = static_cast<double>(point->value);
        break;
      case InstrumentType::kHistogram:
        if (rule.percentile > 0.0) {
          base = frame.HistogramPercentile(rule.metric, rule.percentile);
        } else {
          if (frame.period_ns == 0) return false;
          base = static_cast<double>(point->hist_count) * 1e9 /
                 static_cast<double>(frame.period_ns);
        }
        break;
    }
  }

  if (rule.kind == AlertRuleKind::kRate) {
    const bool had_prev = state.has_prev;
    const double prev = state.prev_value;
    const std::uint64_t prev_t = state.prev_t_ns;
    state.prev_value = base;
    state.prev_t_ns = frame.t_ns;
    state.has_prev = true;
    if (!had_prev || frame.t_ns <= prev_t) return false;
    *value =
        (base - prev) * 1e9 / static_cast<double>(frame.t_ns - prev_t);
    return true;
  }
  *value = base;
  return true;
}

std::vector<AlertTransition> AlertEngine::Observe(
    const TimeseriesFrame& frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertTransition> out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    RuleState& state = states_[i];
    double value = 0.0;
    if (!ExtractValue(rule, state, frame, &value)) continue;
    evaluations_.Add(1);

    bool breach = false;
    double shown_value = value;
    double shown_threshold = rule.threshold;
    if (rule.kind == AlertRuleKind::kSloBurn) {
      state.breach_window.push_back(
          Breaches(rule.compare, value, rule.threshold));
      const std::size_t window = rule.window == 0 ? 1 : rule.window;
      while (state.breach_window.size() > window) {
        state.breach_window.pop_front();
      }
      std::size_t bad = 0;
      for (const bool b : state.breach_window) bad += b ? 1 : 0;
      const double burn = static_cast<double>(bad) /
                          static_cast<double>(state.breach_window.size());
      breach = burn > rule.budget;
      shown_value = burn;
      shown_threshold = rule.budget;
    } else {
      breach = Breaches(rule.compare, value, rule.threshold);
    }
    state.last_value = shown_value;
    state.has_value = true;

    const AlertState before = state.state;
    AlertState after = before;
    switch (before) {
      case AlertState::kInactive:
        if (breach) {
          state.streak = 1;
          after = state.streak >= rule.for_samples ? AlertState::kFiring
                                                   : AlertState::kPending;
        }
        break;
      case AlertState::kPending:
        if (breach) {
          ++state.streak;
          if (state.streak >= rule.for_samples) after = AlertState::kFiring;
        } else {
          state.streak = 0;
          after = AlertState::kInactive;
        }
        break;
      case AlertState::kFiring:
        if (!breach) {
          state.streak = 0;
          after = AlertState::kInactive;
        }
        break;
    }
    if (after == before) continue;

    state.state = after;
    AlertTransition transition;
    transition.seq = next_transition_seq_++;
    transition.t_ns = frame.t_ns;
    transition.rule_index = static_cast<std::uint32_t>(i);
    transition.from = before;
    transition.to = after;
    transition.value = shown_value;
    transition.threshold = shown_threshold;
    transition.rule_name = std::string(rule.label());

    transitions_total_.Add(1);
    if (after == AlertState::kFiring) {
      fired_.Add(1);
      ++state.fired;
      firing_.Add(1);
    }
    if (before == AlertState::kFiring) {
      resolved_.Add(1);
      ++state.resolved;
      firing_.Add(-1);
    }
    EmitTransition(transition);
    out.push_back(std::move(transition));
  }
  return out;
}

void AlertEngine::EmitTransition(const AlertTransition& transition) {
  if (options_.events != nullptr) {
    std::ostringstream line;
    line << "{\"kind\":\"alert\",\"rule\":"
         << JsonString(transition.rule_name)
         << ",\"from\":\"" << AlertStateName(transition.from)
         << "\",\"to\":\"" << AlertStateName(transition.to)
         << "\",\"t_ns\":" << transition.t_ns
         << ",\"value\":" << transition.value
         << ",\"threshold\":" << transition.threshold << "}";
    options_.events->Emit(line.str());
  }
  if (options_.log != nullptr) {
    const core::Status journaled = options_.log->AppendAlert(transition);
    if (!journaled.ok() && journal_status_.ok()) {
      journal_status_ = journaled;
    }
  }
}

std::vector<AlertRuleStatus> AlertEngine::Status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertRuleStatus> out;
  out.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    AlertRuleStatus status;
    status.rule = rules_[i];
    status.state = states_[i].state;
    status.last_value = states_[i].last_value;
    status.has_value = states_[i].has_value;
    status.fired = states_[i].fired;
    status.resolved = states_[i].resolved;
    out.push_back(std::move(status));
  }
  return out;
}

std::size_t AlertEngine::firing_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const RuleState& state : states_) {
    count += state.state == AlertState::kFiring ? 1 : 0;
  }
  return count;
}

core::Status AlertEngine::journal_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return journal_status_;
}

}  // namespace vfl::obs
