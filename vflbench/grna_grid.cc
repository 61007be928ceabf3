// grna_grid: the Fig. 7 grid at the small scale — {bank, credit, drive, news}
// x {lr, rf, mlp} x 6 target fractions, 1 trial, "server" query channel,
// serial grid. Nearly all of its time is in models/ (RF surrogate
// distillation), nn/ and la/ (GRNA generator training); serving hardly shows.
//
// Each cell is timed call by call: channel open (+ the priming accumulation
// pass), surrogate distillation, and the attack's Prepare / Execute /
// Finalize. The traced run also times, per cell, one generator step and one
// frozen-model forward+backward at that cell's shapes, and the GEMM calls
// those two make, so Finalize splits into GEMM time, other per-step work, and
// the unaccounted rest.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/grna.h"
#include "attack/metrics.h"
#include "attack/random_guess.h"
#include "bench.h"
#include "core/rng.h"
#include "exp/channel_registry.h"
#include "exp/model_registry.h"
#include "exp/workload.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/rf_surrogate.h"
#include "nn/activation.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace vflbench {

namespace {

using vfl::exp::ModelHandle;
using vfl::exp::PreparedData;
using vfl::exp::ScaleConfig;

struct Grid {
  ScaleConfig scale;
  std::vector<std::string> datasets;
  std::vector<std::string> families;
  std::vector<double> fractions;
};

Grid MakeGrid(const PhaseOptions& options) {
  Grid grid;
  // Built directly: exp::GetScale() would read VFLFIA_SCALE.
  grid.datasets = {"bank", "credit", "drive", "news"};
  grid.families = {"lr", "rf", "mlp"};
  grid.fractions = vfl::exp::DefaultTargetFractions();
  if (!options.full) grid.fractions = {0.2, 0.5};
  if (options.smoke) {
    grid.datasets = {"bank"};
    grid.fractions = {0.3};
    grid.scale.dataset_samples = 400;
    grid.scale.prediction_samples = 100;
    grid.scale.lr_epochs = 5;
    grid.scale.mlp_epochs = 3;
    grid.scale.grna_epochs = 3;
    grid.scale.rf_trees = 8;
    grid.scale.surrogate_samples = 500;
    grid.scale.surrogate_epochs = 3;
  }
  return grid;
}

/// Trained inputs of one grid: per dataset the prepared data, per (dataset,
/// family) the model.
struct Setup {
  std::vector<PreparedData> data;
  std::vector<std::vector<ModelHandle>> models;
  double prepare_s = 0.0;
  double train_s = 0.0;
};

vfl::core::StatusOr<Setup> BuildSetup(const Grid& grid,
                                      std::uint64_t data_seed) {
  Setup setup;
  for (const std::string& dataset : grid.datasets) {
    std::uint64_t start = vfl::obs::NowNanos();
    VFL_ASSIGN_OR_RETURN(PreparedData prepared,
                         vfl::exp::TryPrepareData(dataset, grid.scale,
                                                  /*pred_fraction=*/0.0,
                                                  data_seed));
    setup.prepare_s += SecondsSince(start);
    std::vector<ModelHandle> handles;
    for (const std::string& family : grid.families) {
      start = vfl::obs::NowNanos();
      VFL_ASSIGN_OR_RETURN(
          ModelHandle handle,
          vfl::exp::TrainModel(family, prepared.train, vfl::exp::ConfigMap(),
                               grid.scale, data_seed));
      setup.train_s += SecondsSince(start);
      handles.push_back(std::move(handle));
    }
    setup.data.push_back(std::move(prepared));
    setup.models.push_back(std::move(handles));
  }
  return setup;
}

/// Per-layer times of one grid pass, summed over cells.
struct PassTimes {
  double attack_s = 0.0;
  double channel_open_s = 0.0;
  double distill_s = 0.0;
  double prepare_s = 0.0;
  double execute_s = 0.0;
  double finalize_s = 0.0;
  // Traced pass only: per-step costs weighted by each cell's step count.
  double steps = 0.0;
  double generator_step_s = 0.0;  // sum over cells of steps * step cost
  double frozen_s = 0.0;
  double gemm_s = 0.0;
  double gemm_flops = 0.0;        // GEMM flops of the measured step mix
  double grid_gemm_flops = 0.0;   // GEMM flops of every cell's training
};

/// Layer widths of a stack of Linear layers, input first.
std::vector<std::size_t> Widths(std::size_t in,
                                const std::vector<std::size_t>& hidden,
                                std::size_t out) {
  std::vector<std::size_t> widths = {in};
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  widths.push_back(out);
  return widths;
}

/// The generator GRNA trains (same architecture as attack/grna.cc).
vfl::nn::Sequential MakeGenerator(std::size_t in, std::size_t d_target,
                                  const vfl::attack::GrnaConfig& config,
                                  vfl::core::Rng& rng) {
  vfl::nn::Sequential generator;
  std::size_t width = in;
  for (const std::size_t hidden : config.hidden_sizes) {
    generator.Emplace<vfl::nn::Linear>(width, hidden, rng, vfl::nn::Init::kHe);
    generator.Emplace<vfl::nn::Relu>();
    if (config.use_layer_norm) generator.Emplace<vfl::nn::LayerNorm>(hidden);
    width = hidden;
  }
  generator.Emplace<vfl::nn::Linear>(width, d_target, rng,
                                     vfl::nn::Init::kXavier);
  generator.Emplace<vfl::nn::Sigmoid>();
  return generator;
}

vfl::la::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                             vfl::core::Rng& rng) {
  vfl::la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
  return m;
}

/// Times one GRNA training step's pieces at a cell's shapes: the generator
/// step (forward, backward, Adam), the frozen model's forward + backward to
/// the input, and the GEMM calls both make. Adds steps-weighted costs to
/// `times`.
void MeasureStepCosts(vfl::models::DifferentiableModel* frozen,
                      const std::string& family, const ScaleConfig& scale,
                      const vfl::attack::GrnaConfig& config,
                      const vfl::fed::FeatureSplit& split, std::size_t n,
                      PassTimes* times) {
  const std::size_t batch = config.train.batch_size;
  const std::size_t d = split.num_features();
  const std::size_t d_target = split.num_target_features();
  const std::size_t c = frozen->num_classes();
  vfl::core::Rng rng(7);

  vfl::nn::Sequential generator =
      MakeGenerator(split.num_adv_features() + d_target, d_target, config, rng);
  vfl::nn::Adam optimizer(generator.Parameters(), config.train.learning_rate,
                          0.9, 0.999, 1e-8, config.train.weight_decay);
  const vfl::la::Matrix gen_input =
      RandomMatrix(batch, split.num_adv_features() + d_target, rng);
  const vfl::la::Matrix gen_grad = RandomMatrix(batch, d_target, rng);
  const double generator_us = MicrosPerCall(5, 4, [&] {
    optimizer.ZeroGrad();
    (void)generator.Forward(gen_input);
    (void)generator.Backward(gen_grad);
    optimizer.Step();
  });

  const vfl::la::Matrix assembled = RandomMatrix(batch, d, rng);
  const vfl::la::Matrix proba_grad = RandomMatrix(batch, c, rng);
  const double frozen_us = MicrosPerCall(5, 4, [&] {
    (void)frozen->ForwardDiff(assembled);
    (void)frozen->BackwardToInput(proba_grad);
  });

  // The GEMMs of one step: every Linear runs X*W, dW += X^T*dY and
  // dX = dY*W^T; logistic regression runs X*W and dX = dZ*W^T.
  struct Gemm {
    std::size_t in, out;
    bool weight_grad;
  };
  std::vector<Gemm> gemms;
  const std::vector<std::size_t> gen_widths =
      Widths(split.num_adv_features() + d_target, config.hidden_sizes,
             d_target);
  for (std::size_t i = 0; i + 1 < gen_widths.size(); ++i) {
    gemms.push_back({gen_widths[i], gen_widths[i + 1], true});
  }
  if (family == "lr") {
    gemms.push_back({d, c, false});
  } else {
    const std::vector<std::size_t> widths = Widths(
        d, family == "mlp" ? scale.mlp_hidden : scale.surrogate_hidden, c);
    for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
      gemms.push_back({widths[i], widths[i + 1], true});
    }
  }
  struct GemmBuffers {
    vfl::la::Matrix x, w, dy, dw, out, dx;
  };
  std::vector<GemmBuffers> buffers(gemms.size());
  double flops_per_row = 0.0;
  for (std::size_t g = 0; g < gemms.size(); ++g) {
    buffers[g].x = RandomMatrix(batch, gemms[g].in, rng);
    buffers[g].w = RandomMatrix(gemms[g].in, gemms[g].out, rng);
    buffers[g].dy = RandomMatrix(batch, gemms[g].out, rng);
    buffers[g].dw = vfl::la::Matrix(gemms[g].in, gemms[g].out);
    flops_per_row += (gemms[g].weight_grad ? 6.0 : 4.0) *
                     static_cast<double>(gemms[g].in * gemms[g].out);
  }
  const double gemm_us = MicrosPerCall(5, 4, [&] {
    for (std::size_t g = 0; g < gemms.size(); ++g) {
      GemmBuffers& b = buffers[g];
      vfl::la::MatMulInto(b.x, b.w, &b.out);
      if (gemms[g].weight_grad) {
        vfl::la::MatMulTransposedAInto(b.x, b.dy, &b.dw, /*accumulate=*/true);
      }
      vfl::la::MatMulTransposedBInto(b.dy, b.w, &b.dx);
    }
  });

  const double batches_per_epoch =
      static_cast<double>((n + batch - 1) / batch);
  const double steps =
      static_cast<double>(config.train.epochs) * batches_per_epoch;
  times->steps += steps;
  times->generator_step_s += steps * generator_us * 1e-6;
  times->frozen_s += steps * frozen_us * 1e-6;
  times->gemm_s += steps * gemm_us * 1e-6;
  times->gemm_flops += steps * flops_per_row * static_cast<double>(batch);
  // Every training row passes through each step's GEMMs once per epoch, plus
  // the generator's inference forward over all n rows at the end.
  double inference_flops_per_row = 0.0;
  for (std::size_t i = 0; i + 1 < gen_widths.size(); ++i) {
    inference_flops_per_row +=
        2.0 * static_cast<double>(gen_widths[i] * gen_widths[i + 1]);
  }
  times->grid_gemm_flops +=
      static_cast<double>(config.train.epochs * n) * flops_per_row +
      static_cast<double>(n) * inference_flops_per_row;
}

struct CellOutcome {
  double grna_mse = 0.0;
  double baseline_mse = 0.0;
};

/// Runs one grid cell; adds its layer times to `times`.
vfl::core::StatusOr<CellOutcome> RunCell(const Grid& grid,
                                         const PreparedData& data,
                                         const ModelHandle& model,
                                         double fraction,
                                         std::uint64_t data_seed,
                                         std::uint64_t split_seed, bool trace,
                                         PassTimes* times) {
  vfl::core::Rng split_rng(vfl::core::DeriveSeed(split_seed, 0));
  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::RandomFraction(
      data.train.num_features(), fraction, split_rng);
  VFL_ASSIGN_OR_RETURN(const vfl::fed::VflScenario scenario,
                       vfl::fed::TryMakeTwoPartyScenario(data.x_pred, split,
                                                         model.model.get()));

  const std::uint64_t start = vfl::obs::NowNanos();
  vfl::exp::ChannelRequest request;
  request.scenario = &scenario;
  VFL_ASSIGN_OR_RETURN(std::unique_ptr<vfl::fed::QueryChannel> channel,
                       vfl::exp::MakeChannel("server", std::move(request)));
  // The adversary's priming accumulation: every later query of the attack
  // is served from its notebook.
  VFL_RETURN_IF_ERROR(channel->CollectView().status());
  const std::uint64_t opened = vfl::obs::NowNanos();

  vfl::attack::GrnaConfig config = vfl::exp::MakeGrnaConfig(grid.scale, 55);
  vfl::models::DifferentiableModel* target = model.differentiable;
  vfl::models::RfSurrogate surrogate;
  if (target == nullptr) {
    surrogate.DistillConditioned(
        *model.model, channel->split().adv_columns(), channel->x_adv(),
        vfl::exp::MakeSurrogateConfig(grid.scale, data_seed));
    target = &surrogate;
    config.train.weight_decay = 5e-3;
  }
  const std::uint64_t distilled = vfl::obs::NowNanos();

  vfl::attack::GenerativeRegressionNetworkAttack grna(target, config);
  VFL_RETURN_IF_ERROR(grna.Prepare(channel->split(), *channel));
  const std::uint64_t prepared = vfl::obs::NowNanos();
  VFL_RETURN_IF_ERROR(grna.Execute());
  const std::uint64_t executed = vfl::obs::NowNanos();
  VFL_ASSIGN_OR_RETURN(const vfl::la::Matrix inferred, grna.Finalize());
  const std::uint64_t finalized = vfl::obs::NowNanos();

  times->attack_s += static_cast<double>(finalized - start) * 1e-9;
  times->channel_open_s += static_cast<double>(opened - start) * 1e-9;
  times->distill_s += static_cast<double>(distilled - opened) * 1e-9;
  times->prepare_s += static_cast<double>(prepared - distilled) * 1e-9;
  times->execute_s += static_cast<double>(executed - prepared) * 1e-9;
  times->finalize_s += static_cast<double>(finalized - executed) * 1e-9;

  CellOutcome outcome;
  outcome.grna_mse = vfl::attack::MsePerFeature(
      inferred, scenario.x_target_ground_truth);
  vfl::attack::RandomGuessAttack baseline(
      vfl::attack::RandomGuessAttack::Distribution::kUniform, 9);
  VFL_ASSIGN_OR_RETURN(const vfl::la::Matrix guessed, baseline.Run(*channel));
  outcome.baseline_mse =
      vfl::attack::MsePerFeature(guessed, scenario.x_target_ground_truth);

  if (trace) {
    MeasureStepCosts(target, model.kind, grid.scale, config, split,
                     channel->num_samples(), times);
  }
  return outcome;
}

}  // namespace

PhaseResult RunGrnaGrid(const PhaseOptions& options) {
  PhaseResult result;
  result.name = "grna_grid";
  const Grid grid = MakeGrid(options);
  const std::uint64_t data_seed = vfl::core::DeriveSeed(options.seed, 1);
  const std::uint64_t split_seed = vfl::core::DeriveSeed(options.seed, 2);

  // Set-up (data generation + model training) repeats in the full phase so
  // setup_s is a median; the last repetition's inputs feed the grid.
  const std::size_t setup_reps = options.full ? 5 : 1;
  std::vector<double> setup_s, prepare_s, train_s;
  vfl::core::StatusOr<Setup> setup = vfl::core::Status::Internal("no setup");
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    setup = BuildSetup(grid, data_seed);
    if (!setup.ok()) break;
    prepare_s.push_back(setup->prepare_s);
    train_s.push_back(setup->train_s);
    setup_s.push_back(setup->prepare_s + setup->train_s);
  }
  if (!setup.ok()) {
    result.tally.Fail(setup.status());
    result.checks.push_back({"setup", false, setup.status().ToString()});
    return result;
  }

  // Full phase: grid passes while another one fits in --seconds (at least
  // one); the traced run and probes make one pass.
  std::vector<PassTimes> passes;
  std::map<std::string, std::vector<double>> grna_by_family, rg_by_family;
  double mse_sum = 0.0;
  std::size_t cells = 0;
  const std::uint64_t phase_start = vfl::obs::NowNanos();
  do {
    PassTimes times;
    grna_by_family.clear();
    rg_by_family.clear();
    mse_sum = 0.0;
    cells = 0;
    for (std::size_t d = 0; d < grid.datasets.size(); ++d) {
      for (std::size_t f = 0; f < grid.families.size(); ++f) {
        for (const double fraction : grid.fractions) {
          const vfl::core::StatusOr<CellOutcome> cell =
              RunCell(grid, setup->data[d], setup->models[d][f], fraction,
                      data_seed, split_seed, options.trace, &times);
          if (!cell.ok()) {
            result.tally.Fail(cell.status());
            continue;
          }
          result.tally.Ok();
          grna_by_family[grid.families[f]].push_back(cell->grna_mse);
          rg_by_family[grid.families[f]].push_back(cell->baseline_mse);
          mse_sum += cell->grna_mse;
          ++cells;
        }
      }
    }
    passes.push_back(times);
  } while (options.full && !options.trace &&
           SecondsSince(phase_start) + passes.back().attack_s <=
               options.seconds);

  for (const std::string& family : grid.families) {
    const double grna = Mean(grna_by_family[family]);
    const double rg = Mean(rg_by_family[family]);
    char detail[128];
    std::snprintf(detail, sizeof(detail), "mean GRNA mse %.5f vs RG %.5f",
                  grna, rg);
    result.checks.push_back({"grna_beats_random_uniform_" + family,
                             !grna_by_family[family].empty() && grna < rg,
                             detail});
  }

  std::vector<double> attack_s;
  for (const PassTimes& pass : passes) attack_s.push_back(pass.attack_s);
  const double grna_mse = cells == 0 ? 0.0 : mse_sum / static_cast<double>(cells);
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["attack_s"] = {Median(attack_s), "s"};
  result.end_to_end["grna_mse"] = {grna_mse, "mse"};
  result.notes.push_back(Note("setup_s", Median(setup_s), "s", setup_s.size()));
  result.notes.push_back(
      Note("attack_s", Median(attack_s), "s", attack_s.size()));
  result.notes.push_back(Note("grna_mse", grna_mse, "mse", cells));

  const PassTimes& t = passes.front();
  MetricSet& layer = result.per_layer;
  layer["data.prepare_s"] = {Median(prepare_s), "s"};
  layer["models.train_s"] = {Median(train_s), "s"};
  layer["fed.channel_open_s"] = {t.channel_open_s, "s"};
  layer["models.distill_s"] = {t.distill_s, "s"};
  layer["attack.prepare_s"] = {t.prepare_s, "s"};
  layer["attack.execute_s"] = {t.execute_s, "s"};
  layer["attack.finalize_s"] = {t.finalize_s, "s"};
  if (options.trace && t.steps > 0) {
    layer["nn.generator_step_us"] = {t.generator_step_s / t.steps * 1e6, "us"};
    layer["models.frozen_fwd_bwd_us"] = {t.frozen_s / t.steps * 1e6, "us"};
    layer["la.gemm_gflops_grna"] = {t.gemm_flops / t.gemm_s * 1e-9, "GFLOP/s"};
    layer["la.gemm_flops_grna"] = {t.grid_gemm_flops, "count"};
    layer["la.gemm_s_grna"] = {t.gemm_s, "s"};
    layer["attack.finalize_unaccounted_s"] = {
        t.finalize_s - t.generator_step_s - t.frozen_s, "s"};
    result.notes.push_back(Note("grna training steps", t.steps, "steps",
                                cells));
  }
  return result;
}

}  // namespace vflbench
