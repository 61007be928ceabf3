#ifndef VFLFIA_EXP_EXPERIMENT_H_
#define VFLFIA_EXP_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exp/attack_registry.h"
#include "exp/config_map.h"
#include "exp/workload.h"

namespace vfl::obs {
class TraceSink;
}  // namespace vfl::obs

namespace vfl::exp {

/// How the feature space is partitioned between adversary and target.
enum class SplitKind {
  /// Random ceil(fraction * d) target subset per trial (the figures' setup).
  kRandomFraction,
  /// Deterministic tail columns (examples / threshold demos).
  kTailFraction,
};

/// One attack of an experiment: registry kind + config, with optional
/// reporting overrides.
struct AttackSpec {
  std::string kind;
  ConfigMap config;
  /// Method label in result rows; empty = the runner's default label.
  std::string label;
  /// Experiment column override; empty = the spec's name (fig11 reports ESA
  /// and GRNA rows under different experiment ids).
  std::string experiment;
};

/// One defense layer: registry kind + config. Layers apply in declaration
/// order.
struct DefenseSpec {
  std::string kind;
  ConfigMap config;
};

/// Serving knobs for the "service"/"server"/"net" channels and the CLI.
struct ServingSpec {
  std::size_t threads = 4;
  std::size_t batch = 32;
  /// Ignored: batches never wait for stragglers. Kept so existing
  /// configuration code keeps compiling.
  std::size_t batch_delay_us = 100;
  /// Concurrent submitter threads the ServerChannel floods fetches from
  /// (and the NetChannel's default connection count per fetch).
  std::size_t clients = 4;
  std::size_t cache_entries = 0;
  /// Adversary protocol-query budget; 0 = unlimited. Channel-enforced on
  /// offline, auditor-enforced (and audit-logged) on service/server/net.
  std::uint64_t query_budget = 0;
  /// Cap on the query auditor's retained audit events (ring buffer; evicted
  /// records are counted, not silently lost). 0 disables event logging.
  std::size_t audit_events = 4096;
  /// Per-request trace destination for the "net" channel's NetServer
  /// (borrowed; must outlive the run). Null disables tracing. The CLI's
  /// --trace=PATH flag points this at a JSONL file.
  obs::TraceSink* trace_sink = nullptr;
  /// When non-empty, every server/net trial drains its audit-event ring to a
  /// crash-recoverable WAL under this directory (store::AuditLogWriter);
  /// events survive the process instead of dying with the capped in-memory
  /// ring. The CLI's --audit-wal=DIR flag sets this.
  std::string audit_wal_dir;
};

/// A declarative experiment: the full {dataset x model x defense x attack x
/// target-fraction x trial} grid of one paper figure (or any custom
/// combination). Built by hand or through ExperimentSpecBuilder; executed by
/// ExperimentRunner.
struct ExperimentSpec {
  /// Experiment id used in result rows ("fig5", ...).
  std::string name = "experiment";
  /// Dataset grid (outermost loop).
  std::vector<std::string> datasets = {"bank"};
  /// Model registry kind + config; trained once per dataset.
  std::string model = "lr";
  ConfigMap model_config;
  /// Defense stack; output defenses install on every scenario, train-time
  /// defenses fold into the model config.
  std::vector<DefenseSpec> defenses;
  /// Attacks evaluated on each trial's shared adversary view.
  std::vector<AttackSpec> attacks;
  /// Target-fraction sweep (the figures' d_target axis).
  std::vector<double> target_fractions;
  /// Fraction of the held-out half used as the prediction set (Fig. 9's n
  /// axis); <= 0 keeps the whole half (subject to the scale cap).
  double pred_fraction = 0.0;
  /// Independent trials per grid point; 0 = the scale's trial count.
  std::size_t trials = 1;
  /// Data seed: dataset generation, model training (unless the model config
  /// overrides), surrogate distillation.
  std::uint64_t seed = 42;
  /// Split seed base; trial t draws its split from Rng(split_seed + t).
  std::uint64_t split_seed = 1000;
  /// Worker threads for the {target-fraction x trial} grid of each dataset.
  /// <= 1 runs the historical serial loop. Every trial derives its
  /// randomness from (seed, split_seed, trial) alone and parallel cells use
  /// per-cell model clones, so results are value-identical for any thread
  /// count.
  std::size_t threads = 1;
  SplitKind split_kind = SplitKind::kRandomFraction;
  MetricKind metric = MetricKind::kMsePerFeature;
  /// Channel-spec grid — how the adversary obtains predictions: every
  /// attack runs through each listed fed::QueryChannel kind ("offline" =
  /// precomputed table, "service" = serve::PredictionServer executing in the
  /// caller's thread, "server" = concurrent serve::PredictionServer traffic,
  /// "net" = framed TCP against a per-trial loopback net::NetServer). A spec
  /// may carry per-kind config after a colon, e.g. "net:port=0,clients=8".
  /// With more than one spec, result rows report under "name[kind]" so the
  /// kinds stay distinguishable; with exactly one, rows are labeled
  /// identically regardless of the kind — a deterministic config must
  /// produce byte-identical output on every channel.
  std::vector<std::string> channels = {"offline"};
  /// Traffic-profile grid for the "detect" pseudo-attack: every attack list
  /// runs once per listed sim profile ("poisson", "bursty:factor=12",
  /// "diurnal:period_s=30"), delivered to attacks via
  /// AttackContext::sim_profile. Empty (the default) runs the grid once with
  /// no profile — non-detect experiments never pay for the axis. With more
  /// than one profile, result rows report under "name{profile-kind}".
  std::vector<std::string> sims;
  ServingSpec serving;
  /// When non-empty, completed {fraction x trial} cells journal to a
  /// crash-recoverable checkpoint (exp::GridCheckpoint) in this directory,
  /// and cells already journaled by a previous run are skipped — their
  /// stored values feed aggregation bit-identically, so a resumed run's CSV
  /// is byte-identical to an uninterrupted one. The journal is bound to the
  /// spec fingerprint; a directory written under a different configuration
  /// is refused. The CLI's --resume=DIR flag sets this.
  std::string checkpoint_dir;
};

/// Fluent builder over ExperimentSpec. Build() validates cheap structural
/// invariants; registry resolution happens in ExperimentRunner::Run (which
/// reports unknown kinds with the registered alternatives).
class ExperimentSpecBuilder {
 public:
  explicit ExperimentSpecBuilder(std::string name) { spec_.name = std::move(name); }

  ExperimentSpecBuilder& Dataset(std::string dataset) {
    spec_.datasets = {std::move(dataset)};
    return *this;
  }
  ExperimentSpecBuilder& Datasets(std::vector<std::string> datasets) {
    spec_.datasets = std::move(datasets);
    return *this;
  }
  ExperimentSpecBuilder& Model(std::string kind, ConfigMap config = {}) {
    spec_.model = std::move(kind);
    spec_.model_config = std::move(config);
    return *this;
  }
  ExperimentSpecBuilder& Defense(std::string kind, ConfigMap config = {}) {
    spec_.defenses.push_back({std::move(kind), std::move(config)});
    return *this;
  }
  ExperimentSpecBuilder& Attack(std::string kind, ConfigMap config = {},
                                std::string label = "",
                                std::string experiment = "") {
    spec_.attacks.push_back({std::move(kind), std::move(config),
                             std::move(label), std::move(experiment)});
    return *this;
  }
  ExperimentSpecBuilder& TargetFractions(std::vector<double> fractions) {
    spec_.target_fractions = std::move(fractions);
    return *this;
  }
  ExperimentSpecBuilder& TargetFraction(double fraction) {
    spec_.target_fractions = {fraction};
    return *this;
  }
  ExperimentSpecBuilder& PredFraction(double fraction) {
    spec_.pred_fraction = fraction;
    return *this;
  }
  ExperimentSpecBuilder& Trials(std::size_t trials) {
    spec_.trials = trials;
    return *this;
  }
  /// Use the active scale's trial count (paper: 10, small: 2).
  ExperimentSpecBuilder& TrialsFromScale() {
    spec_.trials = 0;
    return *this;
  }
  ExperimentSpecBuilder& Seed(std::uint64_t seed) {
    spec_.seed = seed;
    return *this;
  }
  ExperimentSpecBuilder& SplitSeed(std::uint64_t seed) {
    spec_.split_seed = seed;
    return *this;
  }
  ExperimentSpecBuilder& Split(SplitKind kind) {
    spec_.split_kind = kind;
    return *this;
  }
  ExperimentSpecBuilder& Metric(MetricKind metric) {
    spec_.metric = metric;
    return *this;
  }
  ExperimentSpecBuilder& Channel(std::string kind) {
    spec_.channels = {std::move(kind)};
    return *this;
  }
  ExperimentSpecBuilder& Channels(std::vector<std::string> kinds) {
    spec_.channels = std::move(kinds);
    return *this;
  }
  ExperimentSpecBuilder& Sim(std::string profile) {
    spec_.sims = {std::move(profile)};
    return *this;
  }
  ExperimentSpecBuilder& Sims(std::vector<std::string> profiles) {
    spec_.sims = std::move(profiles);
    return *this;
  }
  ExperimentSpecBuilder& Serving(ServingSpec serving) {
    spec_.serving = serving;
    return *this;
  }
  /// Grid worker threads (0 and 1 both mean serial).
  ExperimentSpecBuilder& Threads(std::size_t threads) {
    spec_.threads = threads;
    return *this;
  }
  /// Journal completed cells under `dir` and skip cells already journaled.
  ExperimentSpecBuilder& Checkpoint(std::string dir) {
    spec_.checkpoint_dir = std::move(dir);
    return *this;
  }

  /// Validates and returns the spec. The default target-fraction sweep
  /// (10%..60%) is filled in when none was set.
  core::StatusOr<ExperimentSpec> Build();

 private:
  ExperimentSpec spec_;
};

/// Structural validation shared by the builder and the runner.
core::Status ValidateSpec(const ExperimentSpec& spec);

}  // namespace vfl::exp

#endif  // VFLFIA_EXP_EXPERIMENT_H_
