// Evaluates the Section VII countermeasures against both attacks on one
// collaboration: what should the parties actually deploy?
//
//  - rounding the confidence scores (b = 1 and b = 3 digits)
//  - additive noise on the scores
//  - in-enclave verification (suppress scores when a simulated attack is
//    too accurate)
//  - pre-collaboration analysis (ESA threshold check + correlation filter)
//
// The registry-backed defenses (rounding, noise) run as one ExperimentSpec
// per variant through the shared runner; the verification defense needs the
// ground truth held inside the enclave, so it is wired on the lower-level
// scenario API.
//
// Build & run:  ./build/examples/defense_evaluation
#include <cstdio>
#include <memory>
#include <string>

#include "attack/esa.h"
#include "attack/grna.h"
#include "attack/metrics.h"
#include "core/check.h"
#include "defense/preprocess.h"
#include "defense/verification.h"
#include "exp/config_map.h"
#include "exp/experiment.h"
#include "exp/result_sink.h"
#include "exp/runner.h"

namespace {

constexpr double kTargetFraction = 0.2;

/// Runs ESA + GRNA through the shared runner with `defense` installed and
/// prints one table row.
void EvaluateVariant(vfl::exp::ExperimentRunner& runner,
                     const std::string& row_label,
                     const std::string& defense_kind,
                     const std::string& defense_config) {
  vfl::exp::ExperimentSpecBuilder builder("defense_eval");
  builder.Dataset("drive")
      .Model("lr", vfl::exp::ConfigMap::MustParse("epochs=20"))
      .Attack("esa")
      .Attack("grna",
              vfl::exp::ConfigMap::MustParse("hidden=32x16,epochs=15"))
      .TargetFraction(kTargetFraction)
      .Split(vfl::exp::SplitKind::kTailFraction)
      .Trials(1)
      .Seed(13);
  if (!defense_kind.empty()) {
    builder.Defense(defense_kind,
                    vfl::exp::ConfigMap::MustParse(defense_config));
  }
  vfl::core::StatusOr<vfl::exp::ExperimentSpec> spec = builder.Build();
  CHECK(spec.ok()) << spec.status().ToString();

  vfl::exp::CollectSink sink;
  const vfl::core::Status status = runner.Run(*spec, sink);
  CHECK(status.ok()) << status.ToString();
  CHECK_EQ(sink.rows().size(), 2u);
  std::printf("%-22s %-12.4f %-12.4f\n", row_label.c_str(),
              sink.rows()[0].mean, sink.rows()[1].mean);
}

}  // namespace

int main() {
  vfl::exp::ScaleConfig scale = vfl::exp::GetScale();
  scale.dataset_samples = 1600;
  scale.prediction_samples = 0;
  vfl::exp::ExperimentRunner runner(scale);

  // --- pre-collaboration analysis -----------------------------------------
  const vfl::exp::PreparedData prepared =
      vfl::exp::PrepareData("drive", scale, /*pred_fraction=*/0.0, 13);
  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::TailFraction(
      prepared.train.num_features(), kTargetFraction);
  const vfl::defense::PreprocessReport report =
      vfl::defense::AnalyzeCollaboration(prepared.train, split);
  std::printf("pre-collaboration check: ESA threshold violated = %s "
              "(d_target=%zu, c=%zu)\n",
              report.esa_threshold_violated ? "YES" : "no",
              split.num_target_features(), prepared.train.num_classes);
  std::printf("flagged high-correlation target columns: %zu of %zu\n\n",
              report.high_correlation_target_columns.size(),
              split.num_target_features());

  // --- output-side defenses, registry-driven --------------------------------
  std::printf("%-22s %-12s %-12s\n", "defense", "ESA mse", "GRNA mse");

  {
    // No-information reference: random guessing scores the same under every
    // defense.
    vfl::exp::ExperimentSpecBuilder builder("defense_eval");
    builder.Dataset("drive")
        .Model("lr", vfl::exp::ConfigMap::MustParse("epochs=20"))
        .Attack("random_uniform")
        .TargetFraction(kTargetFraction)
        .Split(vfl::exp::SplitKind::kTailFraction)
        .Trials(1)
        .Seed(13);
    vfl::core::StatusOr<vfl::exp::ExperimentSpec> spec = builder.Build();
    CHECK(spec.ok()) << spec.status().ToString();
    vfl::exp::CollectSink sink;
    const vfl::core::Status status = runner.Run(*spec, sink);
    CHECK(status.ok()) << status.ToString();
    std::printf("%-22s %-12.4f %-12.4f   <- no-information reference\n",
                "random guess", sink.rows()[0].mean, sink.rows()[0].mean);
  }

  EvaluateVariant(runner, "(none)", "", "");
  EvaluateVariant(runner, "round to 0.1", "rounding", "digits=1");
  EvaluateVariant(runner, "round to 0.001", "rounding", "digits=3");
  EvaluateVariant(runner, "noise sigma=0.05", "noise", "stddev=0.05,seed=42");

  // --- verification (needs in-enclave ground truth; lower-level API) --------
  {
    vfl::core::StatusOr<vfl::exp::ModelHandle> model = vfl::exp::TrainModel(
        "lr", prepared.train, vfl::exp::ConfigMap::MustParse("epochs=20"),
        scale, 13);
    CHECK(model.ok()) << model.status().ToString();
    vfl::core::StatusOr<vfl::fed::VflScenario> scenario =
        vfl::fed::TryMakeTwoPartyScenario(prepared.x_pred, split,
                                          model->model.get());
    CHECK(scenario.ok()) << scenario.status().ToString();
    scenario->server->AddOutputDefense(
        std::make_unique<vfl::defense::VerificationDefense>(
            model->lr, split, scenario->x_adv,
            scenario->x_target_ground_truth,
            /*mse_threshold=*/0.02));
    const vfl::fed::AdversaryView view = scenario->CollectView();

    vfl::attack::EqualitySolvingAttack esa(model->lr);
    vfl::attack::GrnaConfig grna_config;
    grna_config.hidden_sizes = {32, 16};
    grna_config.train.epochs = 15;
    vfl::attack::GenerativeRegressionNetworkAttack grna(model->differentiable,
                                                        grna_config);
    std::printf("%-22s %-12.4f %-12.4f\n", "verification@0.02",
                vfl::attack::MsePerFeature(esa.Infer(view),
                                           scenario->x_target_ground_truth),
                vfl::attack::MsePerFeature(grna.Infer(view),
                                           scenario->x_target_ground_truth));
  }

  std::printf("\nreading the table (matches the paper's Fig. 11):\n"
              " - coarse rounding destroys ESA (error above random guess) "
              "but GRNA shrugs it off;\n"
              " - fine rounding protects nothing;\n"
              " - only suppressing the scores entirely (verification) stops "
              "both, at the cost of\n   returning bare class decisions.\n");
  return 0;
}
