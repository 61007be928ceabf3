#include "exp/runner.h"

#include <cmath>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "defense/pipeline.h"
#include "exp/channel_registry.h"
#include "exp/checkpoint.h"
#include "exp/defense_registry.h"
#include "exp/sim_registry.h"
#include "net/channel.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/server_channel.h"
#include "serve/thread_pool.h"
#include "store/env.h"

namespace vfl::exp {

namespace {

/// A resolved attack: configured runner + reporting identity.
struct ResolvedAttack {
  std::unique_ptr<AttackRunner> runner;
  std::string label;
  std::string experiment;
};

double SampleStddev(const std::vector<double>& values, double mean) {
  if (values.size() < 2) return 0.0;
  double sum_sq = 0.0;
  for (const double v : values) sum_sq += (v - mean) * (v - mean);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

/// Everything fixed across one (dataset, channel kind)'s {fraction x trial}
/// grid.
struct DatasetGrid {
  const ExperimentSpec* spec = nullptr;
  const PreparedData* prepared = nullptr;
  const std::vector<ResolvedAttack>* attacks = nullptr;
  const std::vector<DefensePlan>* defenses = nullptr;
  const ScaleConfig* scale = nullptr;
  std::string dataset;
  std::string channel_kind;
  std::string sim_profile;
};

/// Outcome of one (fraction, trial) grid cell.
struct CellResult {
  core::Status status;
  /// Per attack, in spec order.
  std::vector<double> values;
  std::vector<std::string> metric_names;
  std::size_t d_target = 0;
};

/// Runs one trial end to end: split, scenario, query channel (with the
/// defense pipeline installed), the priming accumulation pass, every
/// attack's query lifecycle. `model` is the shared handle on the serial
/// path and a per-cell clone on the parallel path — all cell randomness
/// derives from (seed, split_seed, trial), so both paths produce identical
/// values. Hooks fire under `hook_mu` when non-null (parallel execution
/// serializes them but cannot preserve grid order).
CellResult RunTrialCellImpl(const DatasetGrid& grid, const ModelHandle& model,
                            double fraction, int pct, std::size_t trial,
                            const RunOptions& options, std::mutex* hook_mu) {
  const ExperimentSpec& spec = *grid.spec;
  CellResult cell;
  cell.values.reserve(grid.attacks->size());

  // Stateless per-trial stream derivation: trial t's split seed is fully
  // decorrelated from t+1's instead of one SplitMix64 step away.
  core::Rng split_rng(core::DeriveSeed(spec.split_seed, trial));
  const fed::FeatureSplit split =
      spec.split_kind == SplitKind::kRandomFraction
          ? fed::FeatureSplit::RandomFraction(
                grid.prepared->train.num_features(), fraction, split_rng)
          : fed::FeatureSplit::TailFraction(
                grid.prepared->train.num_features(), fraction);
  cell.d_target = split.num_target_features();
  core::StatusOr<fed::VflScenario> scenario = fed::TryMakeTwoPartyScenario(
      grid.prepared->x_pred, split, model.model.get());
  if (!scenario.ok()) {
    cell.status = scenario.status();
    return cell;
  }

  TrialObservation observation;
  observation.spec = &spec;
  observation.dataset = grid.dataset;
  observation.target_fraction = fraction;
  observation.dtarget_pct = pct;
  observation.trial = trial;
  observation.model = &model;
  observation.scenario = &*scenario;
  observation.channel_kind = grid.channel_kind;
  observation.sim_profile = grid.sim_profile;

  const auto fire_on_trial = [&] {
    if (!options.on_trial) return;
    if (hook_mu != nullptr) {
      std::lock_guard<std::mutex> lock(*hook_mu);
      options.on_trial(observation);
    } else {
      options.on_trial(observation);
    }
  };

  // Pre-collaboration analyses run on the training data + split, before any
  // prediction flows.
  for (const DefensePlan& plan : *grid.defenses) {
    if (plan.analyze) {
      observation.preprocess_reports.push_back(
          plan.analyze(grid.prepared->train, split));
    }
  }

  // The reveal-point defense stack installs in the channel (not the
  // server), so every channel kind degrades the identical stream.
  defense::DefensePipeline pipeline;
  for (const DefensePlan& plan : *grid.defenses) {
    if (plan.make_output) {
      pipeline.Add(plan.make_output(core::DeriveSeed(spec.seed, trial)),
                   plan.label);
    }
  }

  ChannelRequest request;
  request.scenario = &*scenario;
  request.serving = spec.serving;
  if (!request.serving.audit_wal_dir.empty()) {
    // One WAL directory per grid cell: every trial's auditor numbers events
    // from 1, and concurrent cells must not interleave into one segment
    // sequence. The user-facing dir becomes the root of per-cell trails.
    const std::string root = request.serving.audit_wal_dir;
    (void)store::Env::Posix().CreateDir(root);
    std::string leaf = grid.dataset;
    leaf += "-" + std::string(ChannelSpecKind(grid.channel_kind));
    if (!grid.sim_profile.empty()) {
      leaf += "-" + std::string(SimSpecKind(grid.sim_profile));
    }
    leaf += "-p" + std::to_string(pct) + "-t" + std::to_string(trial);
    request.serving.audit_wal_dir = store::JoinPath(root, leaf);
  }
  request.pipeline = std::move(pipeline);
  core::StatusOr<std::unique_ptr<fed::QueryChannel>> channel =
      MakeChannel(grid.channel_kind, std::move(request));
  if (!channel.ok()) {
    // Observers see construction failures like priming failures.
    observation.view_status = channel.status();
    fire_on_trial();
    cell.status = channel.status();
    return cell;
  }
  observation.channel = channel->get();
  if (const auto* server_channel =
          dynamic_cast<const serve::ServerChannel*>(channel->get())) {
    observation.server = server_channel->server();
  } else if (const auto* net_channel =
                 dynamic_cast<const net::NetChannel*>(channel->get())) {
    // The per-trial loopback stack: expose its backend so observers read the
    // same audit log / serving stats they would from an in-process server.
    observation.server = net_channel->backend();
  }

  // Priming pass: the adversary's long-term accumulation (budget-checked;
  // attacks then observe the accumulated vectors without extra budget).
  core::StatusOr<fed::AdversaryView> view = (*channel)->CollectView();
  if (!view.ok()) {
    observation.view_status = view.status();
    fire_on_trial();
    cell.status = view.status();
    return cell;
  }
  observation.view = &*view;
  fire_on_trial();

  AttackContext ctx;
  ctx.model = &model;
  ctx.scenario = &*scenario;
  ctx.channel = channel->get();
  ctx.metric = spec.metric;
  ctx.scale = grid.scale;
  ctx.data_seed = spec.seed;
  ctx.trial = trial;
  ctx.sim_profile = grid.sim_profile;
  for (const ResolvedAttack& attack : *grid.attacks) {
    core::StatusOr<AttackOutcome> outcome = attack.runner->Run(ctx);
    if (!outcome.ok()) {
      cell.status = outcome.status();
      return cell;
    }
    cell.metric_names.push_back(outcome->metric_name);
    cell.values.push_back(outcome->value);
    if (options.on_attack) {
      AttackObservation attack_observation;
      attack_observation.trial = &observation;
      attack_observation.label = attack.label;
      attack_observation.outcome = &*outcome;
      if (hook_mu != nullptr) {
        std::lock_guard<std::mutex> lock(*hook_mu);
        options.on_attack(attack_observation);
      } else {
        options.on_attack(attack_observation);
      }
    }
  }
  return cell;
}

/// RunTrialCellImpl under the process-wide trial instruments: exp.trials
/// counts completed cells (failed ones too — a denial trial still ran) and
/// exp.trial_ns records end-to-end wall time per cell. Registry-owned
/// instruments, so concurrent runners on several threads share one tally.
CellResult RunTrialCell(const DatasetGrid& grid, const ModelHandle& model,
                        double fraction, int pct, std::size_t trial,
                        const RunOptions& options, std::mutex* hook_mu) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const trials_total =
      registry.GetCounter("exp.trials", "trials");
  static obs::LatencyHistogram* const trial_ns =
      registry.GetHistogram("exp.trial_ns", "ns");
  const std::uint64_t start_ns = obs::MetricsNowNanos();
  CellResult cell =
      RunTrialCellImpl(grid, model, fraction, pct, trial, options, hook_mu);
  trial_ns->Record(obs::MetricsNowNanos() - start_ns);
  trials_total->Add(1);
  return cell;
}

int FractionPct(double fraction) {
  return static_cast<int>(fraction * 100.0 + 0.5);
}

}  // namespace

core::Status ExperimentRunner::Run(const ExperimentSpec& spec,
                                   ResultSink& sink,
                                   const RunOptions& options) {
  VFL_RETURN_IF_ERROR(ValidateSpec(spec));
  const std::size_t trials = spec.trials == 0 ? scale_.trials : spec.trials;
  if (trials == 0) {
    return core::Status::InvalidArgument(
        "experiment '" + spec.name + "': zero trials");
  }
  const std::vector<double>& fractions = spec.target_fractions;

  // Resolve every registry reference up front so a typo fails before any
  // training starts.
  std::vector<ResolvedAttack> attacks;
  attacks.reserve(spec.attacks.size());
  for (const AttackSpec& attack_spec : spec.attacks) {
    VFL_ASSIGN_OR_RETURN(std::unique_ptr<AttackRunner> runner,
                         MakeAttack(attack_spec.kind, attack_spec.config,
                                    scale_));
    ResolvedAttack resolved;
    resolved.label = attack_spec.label.empty() ? runner->DefaultLabel()
                                               : attack_spec.label;
    resolved.experiment =
        attack_spec.experiment.empty() ? spec.name : attack_spec.experiment;
    resolved.runner = std::move(runner);
    attacks.push_back(std::move(resolved));
  }

  // Channel kinds resolve before any training starts, so a typo'd
  // --channel fails fast with the registered alternatives (specs may carry
  // per-kind config after a colon: "net:port=0").
  for (const std::string& channel_spec : spec.channels) {
    VFL_RETURN_IF_ERROR(
        GlobalChannelRegistry().Find(ChannelSpecKind(channel_spec)).status());
  }

  // Sim profiles resolve (kind + config tail) up front too. An empty axis
  // degenerates to one pass with no profile, so non-sim experiments run the
  // historical grid shape untouched.
  for (const std::string& sim_spec : spec.sims) {
    VFL_RETURN_IF_ERROR(MakeArrivalSpec(sim_spec).status());
  }
  const std::vector<std::string> sims =
      spec.sims.empty() ? std::vector<std::string>{""} : spec.sims;

  std::vector<DefensePlan> defenses;
  double dropout_rate = 0.0;
  std::string defense_label;
  for (const DefenseSpec& defense_spec : spec.defenses) {
    VFL_ASSIGN_OR_RETURN(DefensePlan plan,
                         MakeDefense(defense_spec.kind, defense_spec.config));
    if (plan.dropout_rate > 0.0) dropout_rate = plan.dropout_rate;
    if (plan.kind != "none") {
      if (!defense_label.empty()) defense_label += "+";
      defense_label += plan.label;
    }
    defenses.push_back(std::move(plan));
  }
  if (defense_label.empty()) defense_label = "-";

  ConfigMap model_config = spec.model_config;
  if (dropout_rate > 0.0) {
    ConfigMap dropout_override;
    dropout_override.Set("dropout", std::to_string(dropout_rate));
    model_config = model_config.MergedWith(dropout_override);
  }

  // Resumable grids: the checkpoint journal binds to a fingerprint of every
  // value-determining spec/scale field, so --resume can only splice in cells
  // from the *same* experiment. Opened before training starts — a stale or
  // foreign directory fails fast.
  std::unique_ptr<GridCheckpoint> checkpoint;
  if (!spec.checkpoint_dir.empty()) {
    VFL_ASSIGN_OR_RETURN(
        checkpoint,
        GridCheckpoint::Open(store::Env::Posix(), spec.checkpoint_dir,
                             SpecFingerprint(spec, scale_, trials)));
  }

  const std::size_t threads = spec.threads;
  std::unique_ptr<serve::ThreadPool> pool;
  if (threads > 1 && fractions.size() * trials > 1) {
    // The calling thread works through chunks too, so threads-1 workers
    // give `threads` concurrent grid lanes.
    pool = std::make_unique<serve::ThreadPool>(threads - 1);
  }

  for (const std::string& dataset : spec.datasets) {
    VFL_ASSIGN_OR_RETURN(
        const PreparedData prepared,
        TryPrepareData(dataset, scale_, spec.pred_fraction, spec.seed));
    VFL_ASSIGN_OR_RETURN(
        const ModelHandle model,
        TrainModel(spec.model, prepared.train, model_config, scale_,
                   spec.seed));

    for (const std::string& channel_kind : spec.channels) {
    for (const std::string& sim_profile : sims) {
      DatasetGrid grid;
      grid.spec = &spec;
      grid.prepared = &prepared;
      grid.attacks = &attacks;
      grid.defenses = &defenses;
      grid.scale = &scale_;
      grid.dataset = dataset;
      grid.channel_kind = channel_kind;
      grid.sim_profile = sim_profile;

      // Rows only carry the channel kind when the spec grids over several —
      // a single-kind run is labeled identically whatever the kind, which is
      // what makes "offline and server CSVs are byte-identical" checkable.
      // Config tails ("net:port=0" -> "[net]") stay out of row labels. Sim
      // profiles follow the same rule with "{kind}".
      std::string experiment_suffix =
          spec.channels.size() > 1
              ? "[" + std::string(ChannelSpecKind(channel_kind)) + "]"
              : "";
      if (sims.size() > 1) {
        experiment_suffix += "{" + std::string(SimSpecKind(sim_profile)) + "}";
      }

      // One result slot per (fraction, trial) cell; cell c covers fraction
      // c / trials at trial c % trials. Every slot is written by exactly one
      // chunk, so any schedule yields the same contents.
      std::vector<CellResult> cells(fractions.size() * trials);

      // Aggregates and emits fraction f's rows from its completed cells —
      // arithmetic identical (bit for bit) between the serial and parallel
      // paths because both consume values in trial order.
      const auto emit_fraction = [&](std::size_t f) {
        const int pct = FractionPct(fractions[f]);
        for (std::size_t a = 0; a < attacks.size(); ++a) {
          double sum = 0.0;
          std::vector<double> values;
          values.reserve(trials);
          for (std::size_t trial = 0; trial < trials; ++trial) {
            const double v = cells[f * trials + trial].values[a];
            values.push_back(v);
            sum += v;
          }
          // Matches the historical bench arithmetic (sum * 1/n) bit for bit.
          const double mean = sum * (1.0 / static_cast<double>(values.size()));
          ResultRow row;
          row.experiment = attacks[a].experiment + experiment_suffix;
          row.dataset = dataset;
          row.model = spec.model;
          row.defense = defense_label;
          row.dtarget_pct = pct;
          row.method = attacks[a].label;
          // The effective metric can differ per attack within one spec (PRA
          // always reports cbr); the last trial's name wins, as before.
          row.metric = cells[f * trials + trials - 1].metric_names[a];
          row.mean = mean;
          row.stddev = SampleStddev(values, mean);
          row.trials = values.size();
          sink.OnRow(row);
        }

        if (options.on_fraction) {
          FractionSummary summary;
          summary.spec = &spec;
          summary.dataset = dataset;
          summary.target_fraction = fractions[f];
          summary.dtarget_pct = pct;
          summary.num_target_features = cells[f * trials + trials - 1].d_target;
          summary.num_classes = prepared.train.num_classes;
          options.on_fraction(summary);
        }
      };

      // Restores a journaled cell or runs it live (journaling it on
      // success). A restored cell fires no hooks — the work those hooks
      // would observe never re-ran. Thread-safe: Lookup/Commit lock
      // internally and each call touches only its own slot.
      const auto run_or_restore_cell = [&](std::size_t c,
                                           std::mutex* hook_mu) {
        const double fraction = fractions[c / trials];
        const std::size_t trial = c % trials;
        std::string key;
        if (checkpoint != nullptr) {
          key = MakeCellKey(dataset, channel_kind, sim_profile, fraction,
                            trial);
          CheckpointCell stored;
          if (checkpoint->Lookup(key, &stored)) {
            cells[c].status = core::Status::Ok();
            cells[c].values = std::move(stored.values);
            cells[c].metric_names = std::move(stored.metric_names);
            cells[c].d_target = stored.d_target;
            return;
          }
        }
        if (hook_mu != nullptr) {
          // Per-cell clone: differentiable models carry mutable
          // forward/backward caches that must not be shared across
          // concurrent attacks. Restored cells (above) never pay for one.
          const ModelHandle cell_model = CloneHandle(model);
          cells[c] = RunTrialCell(grid, cell_model, fraction,
                                  FractionPct(fraction), trial, options,
                                  hook_mu);
        } else {
          cells[c] = RunTrialCell(grid, model, fraction,
                                  FractionPct(fraction), trial, options,
                                  /*hook_mu=*/nullptr);
        }
        if (checkpoint != nullptr && cells[c].status.ok()) {
          CheckpointCell done;
          done.d_target = cells[c].d_target;
          done.metric_names = cells[c].metric_names;
          done.values = cells[c].values;
          const core::Status committed = checkpoint->Commit(key, done);
          // A cell whose completion cannot be journaled is a failed cell:
          // letting it pass would let a later resume silently recompute it
          // against a half-written journal.
          if (!committed.ok()) cells[c].status = committed;
        }
      };

      if (pool != nullptr) {
        std::mutex hook_mu;
        pool->ParallelFor(
            0, cells.size(), /*min_chunk=*/1,
            [&](std::size_t begin, std::size_t end) {
              for (std::size_t c = begin; c < end; ++c) {
                run_or_restore_cell(c, &hook_mu);
              }
            });
        // Report the earliest grid-order failure, matching the serial path's
        // first-error semantics deterministically.
        for (const CellResult& cell : cells) {
          if (!cell.status.ok()) return cell.status;
        }
        for (std::size_t f = 0; f < fractions.size(); ++f) emit_fraction(f);
      } else {
        // Serial path: the historical loop shape — each fraction's trials run
        // and its rows are emitted before the next fraction starts, keeping
        // hook/row interleaving exactly as before.
        for (std::size_t f = 0; f < fractions.size(); ++f) {
          for (std::size_t trial = 0; trial < trials; ++trial) {
            const std::size_t c = f * trials + trial;
            run_or_restore_cell(c, /*hook_mu=*/nullptr);
            if (!cells[c].status.ok()) return cells[c].status;
          }
          emit_fraction(f);
        }
      }
    }  // sim_profile
    }  // channel_kind
  }
  sink.Finish();
  return core::Status::Ok();
}

}  // namespace vfl::exp
