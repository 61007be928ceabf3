#include "exp/detect_attack.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "exp/alert_spec.h"
#include "exp/channel_registry.h"
#include "exp/sim_registry.h"
#include "obs/alert.h"
#include "serve/query_auditor.h"
#include "sim/attack_stream.h"
#include "sim/detection.h"
#include "sim/simulator.h"

namespace vfl::exp {

namespace {

/// Which detection statistic becomes the row's primary metric.
enum class DetectStat {
  kPrecision,
  kRecall,
  kFpr,
  kTtd,
  kEventsPerSec,
};

struct DetectConfig {
  /// Registry kind of the embedded attack whose query stream is recorded
  /// and replayed ("esa", "pra", ...; default config).
  std::string attack = "esa";
  DetectStat stat = DetectStat::kPrecision;
  std::string stat_name = "precision";
  /// Fallback arrival profile when the spec has no sims axis.
  std::string arrival;
  std::size_t clients = 400;
  std::size_t attackers = 2;
  double duration_s = 30.0;
  double rate_qps = 1.0;
  double spread = 0.5;
  double attacker_rate = 20.0;
  std::size_t chunk = 64;
  bool loop = true;
  std::uint64_t budget = 0;
  double flag_qps = 0.0;
  std::size_t window_ms = 1000;
  std::size_t audit_events = 0;
  /// 0 = derive from the experiment's data seed.
  std::uint64_t seed = 0;
  std::size_t threads = 1;
  /// Alert-rule detector: when any alert rule key is set, an AlertEngine
  /// rides the simulator's virtual-time tick hook as a second detector and
  /// its verdicts are scored alongside the auditor's flags.
  bool alert_enabled = false;
  obs::AlertRule alert_rule;
  /// Clients attributed (flagged) when the rule fires: window rate >= this.
  double alert_qps = 10.0;
  /// Virtual seconds between alert-engine samples.
  double tick_s = 0.5;
  /// detector=alert: the alert engine's detection stats become the row's
  /// primary metric and standard CSV columns (auditor stats stay in extras).
  bool score_alert = false;
};

class DetectRunner : public AttackRunner {
 public:
  explicit DetectRunner(DetectConfig config) : config_(std::move(config)) {}

  std::string DefaultLabel() const override {
    return "Detect(" + config_.attack + ")";
  }

  core::StatusOr<AttackOutcome> Run(const AttackContext& ctx) override {
    if (ctx.channel == nullptr || ctx.scale == nullptr) {
      return core::Status::InvalidArgument("attack context incomplete");
    }

    // Resolve the traffic profile: the spec's sims axis wins, the runner's
    // own arrival= key is the fallback, Poisson the default.
    const std::string& profile =
        !ctx.sim_profile.empty() ? ctx.sim_profile : config_.arrival;
    VFL_ASSIGN_OR_RETURN(const sim::ArrivalSpec arrival,
                         MakeArrivalSpec(profile));

    // Record the embedded attack's real query stream: run the actual attack
    // against the trial's (already primed) channel with the query observer
    // tapping every offered batch. The notebook serves repeats, so the
    // recording pass consumes no extra budget.
    VFL_ASSIGN_OR_RETURN(
        std::unique_ptr<AttackRunner> embedded,
        MakeAttack(config_.attack, ConfigMap(), *ctx.scale));
    sim::AttackStream stream;
    stream.attack = config_.attack;
    ctx.channel->set_query_observer(
        [&stream](const std::vector<std::size_t>& ids) {
          stream.batches.push_back(ids);
        });
    core::StatusOr<AttackOutcome> embedded_outcome = embedded->Run(ctx);
    ctx.channel->set_query_observer(nullptr);
    VFL_RETURN_IF_ERROR(embedded_outcome.status());
    if (stream.batches.empty()) {
      return core::Status::FailedPrecondition(
          "attack 'detect': embedded attack '" + config_.attack +
          "' issued no queries to replay");
    }

    // Fresh auditor per execution: detection is scored on exactly this
    // simulation's traffic.
    serve::QueryAuditorConfig auditor_config;
    auditor_config.default_query_budget = config_.budget;
    auditor_config.rate_window = std::chrono::milliseconds(config_.window_ms);
    auditor_config.flag_window_qps = config_.flag_qps;
    auditor_config.max_audit_events = config_.audit_events;
    serve::QueryAuditor auditor(auditor_config);

    sim::SimConfig sim_config;
    sim_config.num_clients = config_.clients;
    sim_config.num_attackers = config_.attackers;
    sim_config.duration_s = config_.duration_s;
    sim_config.mean_rate_qps = config_.rate_qps;
    sim_config.rate_spread = config_.spread;
    sim_config.attacker_rate_qps = config_.attacker_rate;
    sim_config.attacker_chunk = config_.chunk;
    sim_config.loop_streams = config_.loop;
    sim_config.arrival = arrival;
    sim_config.num_samples = ctx.channel->num_samples();
    sim_config.seed = core::DeriveSeed(
        config_.seed != 0 ? config_.seed : ctx.data_seed, ctx.trial);
    sim_config.threads = config_.threads;
    sim_config.auditor = &auditor;
    sim_config.streams = {&stream};

    std::optional<sim::AlertRuleDetector> alert_detector;
    if (config_.alert_enabled) {
      sim::AlertDetectorConfig alert_config;
      alert_config.rules = {config_.alert_rule};
      alert_config.attribution_qps = config_.alert_qps;
      alert_detector.emplace(auditor, std::move(alert_config));
      sim_config.tick_period_s = config_.tick_s;
      sim_config.on_tick = [&detector = *alert_detector](std::uint64_t t_ns) {
        detector.OnTick(t_ns);
      };
    }

    sim::TrafficSimulator simulator(sim_config);
    const sim::SimResult sim_result = simulator.Run();
    const sim::DetectionResult auditor_detection =
        sim::ScoreDetection(auditor, sim_result);
    sim::DetectionResult alert_detection;
    if (alert_detector.has_value()) {
      alert_detection =
          sim::ScoreDetection(alert_detector->verdicts(), sim_result);
    }
    // detector=alert swaps which detector owns the primary metric and the
    // standard CSV columns; the alert_* extras always carry the alert side.
    const sim::DetectionResult& detection =
        config_.score_alert ? alert_detection : auditor_detection;

    AttackOutcome outcome;
    outcome.metric_name = config_.stat_name;
    switch (config_.stat) {
      case DetectStat::kPrecision:
        outcome.value = detection.precision;
        break;
      case DetectStat::kRecall:
        outcome.value = detection.recall;
        break;
      case DetectStat::kFpr:
        outcome.value = detection.false_positive_rate;
        break;
      case DetectStat::kTtd:
        outcome.value = detection.mean_ttd_s;
        break;
      case DetectStat::kEventsPerSec:
        outcome.value = sim_result.events_per_sec;
        break;
    }
    outcome.extras = {
        {"clients", static_cast<double>(sim_result.num_clients)},
        {"attackers", static_cast<double>(sim_result.num_attackers)},
        {"budget", static_cast<double>(config_.budget)},
        {"flag_qps", config_.flag_qps},
        {"precision", detection.precision},
        {"recall", detection.recall},
        {"fpr", detection.false_positive_rate},
        {"ttd_s", detection.mean_ttd_s},
        {"tp", static_cast<double>(detection.true_positives)},
        {"fp", static_cast<double>(detection.false_positives)},
        {"fn", static_cast<double>(detection.false_negatives)},
        {"events", static_cast<double>(sim_result.events)},
        {"benign_events", static_cast<double>(sim_result.benign_events)},
        {"attacker_events", static_cast<double>(sim_result.attacker_events)},
        {"served_ids", static_cast<double>(sim_result.served_ids)},
        {"denied_ids", static_cast<double>(sim_result.denied_ids)},
        {"events_per_sec", sim_result.events_per_sec},
    };
    if (alert_detector.has_value()) {
      outcome.extras.push_back({"alert_precision", alert_detection.precision});
      outcome.extras.push_back({"alert_recall", alert_detection.recall});
      outcome.extras.push_back(
          {"alert_fpr", alert_detection.false_positive_rate});
      outcome.extras.push_back({"alert_ttd_s", alert_detection.mean_ttd_s});
      outcome.extras.push_back(
          {"alert_tp", static_cast<double>(alert_detection.true_positives)});
      outcome.extras.push_back(
          {"alert_fp", static_cast<double>(alert_detection.false_positives)});
      outcome.extras.push_back(
          {"alert_fn", static_cast<double>(alert_detection.false_negatives)});
      outcome.extras.push_back(
          {"alert_transitions",
           static_cast<double>(alert_detector->transitions())});
      outcome.extras.push_back(
          {"alert_ticks", static_cast<double>(alert_detector->ticks())});
    }
    return outcome;
  }

 private:
  DetectConfig config_;
};

core::StatusOr<std::unique_ptr<AttackRunner>> MakeDetect(
    const ConfigMap& config, const ScaleConfig& scale) {
  (void)scale;
  DetectConfig detect;
  VFL_ASSIGN_OR_RETURN(detect.attack, config.GetString("attack", detect.attack));
  if (detect.attack == "detect") {
    return core::Status::InvalidArgument(
        "attack 'detect' cannot embed itself");
  }
  VFL_RETURN_IF_ERROR(GlobalAttackRegistry().Find(detect.attack).status());
  VFL_ASSIGN_OR_RETURN(detect.stat_name,
                       config.GetString("stat", detect.stat_name));
  if (detect.stat_name == "precision") {
    detect.stat = DetectStat::kPrecision;
  } else if (detect.stat_name == "recall") {
    detect.stat = DetectStat::kRecall;
  } else if (detect.stat_name == "fpr") {
    detect.stat = DetectStat::kFpr;
  } else if (detect.stat_name == "ttd" || detect.stat_name == "ttd_s") {
    detect.stat = DetectStat::kTtd;
    detect.stat_name = "ttd_s";
  } else if (detect.stat_name == "events_per_sec") {
    detect.stat = DetectStat::kEventsPerSec;
  } else {
    return core::Status::InvalidArgument(
        "attack 'detect': unknown stat '" + detect.stat_name +
        "' (expected precision|recall|fpr|ttd|events_per_sec)");
  }
  VFL_ASSIGN_OR_RETURN(detect.arrival,
                       config.GetString("arrival", detect.arrival));
  if (!detect.arrival.empty()) {
    VFL_RETURN_IF_ERROR(
        GlobalSimRegistry().Find(SimSpecKind(detect.arrival)).status());
  }
  VFL_ASSIGN_OR_RETURN(detect.clients,
                       config.GetSize("clients", detect.clients));
  VFL_ASSIGN_OR_RETURN(detect.attackers,
                       config.GetSize("attackers", detect.attackers));
  VFL_ASSIGN_OR_RETURN(detect.duration_s,
                       config.GetDouble("duration", detect.duration_s));
  VFL_ASSIGN_OR_RETURN(detect.rate_qps, config.GetDouble("rate", detect.rate_qps));
  VFL_ASSIGN_OR_RETURN(detect.spread, config.GetDouble("spread", detect.spread));
  VFL_ASSIGN_OR_RETURN(detect.attacker_rate,
                       config.GetDouble("attacker_rate", detect.attacker_rate));
  VFL_ASSIGN_OR_RETURN(detect.chunk, config.GetSize("chunk", detect.chunk));
  VFL_ASSIGN_OR_RETURN(detect.loop, config.GetBool("loop", detect.loop));
  VFL_ASSIGN_OR_RETURN(detect.budget, config.GetUint64("budget", detect.budget));
  VFL_ASSIGN_OR_RETURN(detect.flag_qps,
                       config.GetDouble("flag_qps", detect.flag_qps));
  VFL_ASSIGN_OR_RETURN(detect.window_ms,
                       config.GetSize("window_ms", detect.window_ms));
  VFL_ASSIGN_OR_RETURN(detect.audit_events,
                       config.GetSize("audit_events", detect.audit_events));
  VFL_ASSIGN_OR_RETURN(detect.seed, config.GetUint64("seed", detect.seed));
  VFL_ASSIGN_OR_RETURN(detect.threads, config.GetSize("threads", detect.threads));

  // Alert-rule detector: alert_kind is the rule's KIND and the other
  // alert_* keys are ParseAlertRules' keys behind a prefix (flat, because the
  // spec grammar reserves ',' and ';'). Any one of them builds the rule.
  VFL_ASSIGN_OR_RETURN(const std::string alert_kind,
                       config.GetString("alert_kind", "threshold"));
  ConfigMap rule_keys;
  for (const char* key :
       {"metric", "above", "below", "for", "window", "budget", "p"}) {
    const std::string flat_key = std::string("alert_") + key;
    if (!config.Has(flat_key)) continue;
    VFL_ASSIGN_OR_RETURN(std::string value, config.GetString(flat_key, ""));
    rule_keys.Set(key, std::move(value));
  }
  VFL_ASSIGN_OR_RETURN(detect.alert_qps,
                       config.GetDouble("alert_qps", detect.alert_qps));
  VFL_ASSIGN_OR_RETURN(detect.tick_s, config.GetDouble("tick", detect.tick_s));
  VFL_ASSIGN_OR_RETURN(std::string detector_name,
                       config.GetString("detector", "auditor"));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("attack 'detect'"));
  if (detector_name != "auditor" && detector_name != "alert") {
    return core::Status::InvalidArgument(
        "attack 'detect': detector must be auditor|alert, got '" +
        detector_name + "'");
  }
  detect.score_alert = detector_name == "alert";
  if (config.Has("alert_kind") || !rule_keys.empty()) {
    VFL_ASSIGN_OR_RETURN(detect.alert_rule,
                         BuildAlertRule(alert_kind, rule_keys));
    detect.alert_enabled = true;
    if (detect.tick_s <= 0.0) {
      return core::Status::InvalidArgument(
          "attack 'detect': tick must be > 0");
    }
  } else if (detect.score_alert) {
    return core::Status::InvalidArgument(
        "attack 'detect': detector=alert needs alert_metric=NAME");
  }
  if (detect.clients == 0) {
    return core::Status::InvalidArgument(
        "attack 'detect': clients must be >= 1");
  }
  if (detect.attackers == 0) {
    return core::Status::InvalidArgument(
        "attack 'detect': attackers must be >= 1");
  }
  if (detect.duration_s <= 0.0 || detect.rate_qps <= 0.0 ||
      detect.attacker_rate <= 0.0) {
    return core::Status::InvalidArgument(
        "attack 'detect': duration, rate, and attacker_rate must be > 0");
  }
  if (detect.window_ms == 0) {
    return core::Status::InvalidArgument(
        "attack 'detect': window_ms must be >= 1");
  }
  return std::unique_ptr<AttackRunner>(
      std::make_unique<DetectRunner>(std::move(detect)));
}

/// Looks an extras key up; detect outcomes always carry every key, so a miss
/// means "not a detect outcome".
const double* FindExtra(const AttackOutcome& outcome, std::string_view key) {
  for (const auto& [name, value] : outcome.extras) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace

void RegisterDetectAttack(AttackRegistry& registry) {
  CHECK(registry
            .Register(
                {"detect",
                 "auditor-as-detector scoring: simulate benign traffic with "
                 "embedded attackers replaying a real attack's query stream, "
                 "report precision/recall/TTD of the QueryAuditor's flags",
                 "attack=KIND, stat=precision|recall|fpr|ttd|events_per_sec, "
                 "arrival=PROFILE, clients=N, attackers=N, duration=F, "
                 "rate=F, spread=F, attacker_rate=F, chunk=N, loop=BOOL, "
                 "budget=N, flag_qps=F, window_ms=N, audit_events=N, seed=N, "
                 "threads=N, alert_metric=NAME, alert_kind=threshold|rate|slo, "
                 "alert_above=F|alert_below=F, alert_for=N, alert_window=N, "
                 "alert_budget=F, alert_p=F, alert_qps=F, tick=F, "
                 "detector=auditor|alert",
                 MakeDetect})
            .ok());
}

std::string DetectionCsvHeader() {
  return "dataset,channel,sim,method,trial,dtarget_pct,clients,attackers,"
         "budget,flag_qps,precision,recall,fpr,ttd_s,tp,fp,fn,events,"
         "denied_ids";
}

std::string DetectionCsvRow(const AttackObservation& observation) {
  if (observation.outcome == nullptr || observation.trial == nullptr) {
    return "";
  }
  const AttackOutcome& outcome = *observation.outcome;
  const double* precision = FindExtra(outcome, "precision");
  if (precision == nullptr) return "";  // not a detect outcome

  const auto extra = [&outcome](std::string_view key) {
    const double* value = FindExtra(outcome, key);
    return value != nullptr ? *value : 0.0;
  };
  const TrialObservation& trial = *observation.trial;
  const std::string_view sim_kind =
      trial.sim_profile.empty() ? std::string_view("poisson")
                                : SimSpecKind(trial.sim_profile);
  // Kind parts only: channel/sim spec tails carry commas ("net:port=0,...").
  const std::string_view channel_kind = ChannelSpecKind(trial.channel_kind);
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "%s,%.*s,%.*s,%s,%zu,%d,%.0f,%.0f,%.0f,%.6g,%.6f,%.6f,%.6f,%.6f,%.0f,"
      "%.0f,%.0f,%.0f,%.0f",
      trial.dataset.c_str(), static_cast<int>(channel_kind.size()),
      channel_kind.data(),
      static_cast<int>(sim_kind.size()), sim_kind.data(),
      observation.label.c_str(), trial.trial, trial.dtarget_pct,
      extra("clients"), extra("attackers"), extra("budget"), extra("flag_qps"),
      *precision, extra("recall"), extra("fpr"), extra("ttd_s"), extra("tp"),
      extra("fp"), extra("fn"), extra("events"), extra("denied_ids"));
  return buffer;
}

}  // namespace vfl::exp
