// End-to-end coverage of the "detect" pseudo-attack and the sims experiment
// axis: the ExperimentRunner records a real attack's query stream, replays it
// inside simulated benign traffic, and reports detection quality — with the
// per-execution detection CSV byte-identical across runner thread counts.
#include "exp/detect_attack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exp/alert_spec.h"
#include "exp/attack_registry.h"
#include "exp/config_map.h"
#include "exp/experiment.h"
#include "exp/result_sink.h"
#include "exp/runner.h"

namespace vfl::exp {
namespace {

using core::StatusCode;

ScaleConfig SmokeScale() {
  ScaleConfig scale;
  scale.dataset_samples = 400;
  scale.prediction_samples = 100;
  scale.trials = 2;
  scale.lr_epochs = 10;
  return scale;
}

/// Small, fast detect configuration (tiny virtual population and horizon).
const char* kDetectConfig =
    "attack=esa,clients=60,attackers=2,duration=10,attacker_rate=10,"
    "chunk=16,budget=100";

core::StatusOr<ExperimentSpec> DetectSpec(std::size_t threads,
                                          std::vector<std::string> sims = {}) {
  ExperimentSpecBuilder builder("detect_test");
  builder.Dataset("synthetic1")
      .Model("lr")
      .Attack("detect", ConfigMap::MustParse(kDetectConfig))
      .TargetFraction(0.3)
      .Trials(2)
      .Threads(threads)
      .Channel("offline")
      .Seed(42)
      .SplitSeed(1000);
  if (!sims.empty()) builder.Sims(std::move(sims));
  return builder.Build();
}

/// Runs the spec and returns all detection CSV rows in emission order plus
/// the aggregated result rows.
struct DetectRun {
  std::vector<std::string> csv_rows;
  std::vector<ResultRow> rows;
};

DetectRun RunDetect(const ExperimentSpec& spec) {
  DetectRun run;
  RunOptions options;
  options.on_attack = [&run](const AttackObservation& observation) {
    const std::string row = DetectionCsvRow(observation);
    if (!row.empty()) run.csv_rows.push_back(row);
  };
  CollectSink sink;
  ExperimentRunner runner(SmokeScale());
  const core::Status status = runner.Run(spec, sink, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  run.rows = sink.rows();
  return run;
}

TEST(DetectAttackTest, ProducesDetectionRowsThroughRunner) {
  const auto spec = DetectSpec(1);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const DetectRun run = RunDetect(*spec);

  ASSERT_EQ(run.csv_rows.size(), 2u);  // one per trial
  // The aggregated row reports the default stat (precision) under the
  // detect label.
  ASSERT_FALSE(run.rows.empty());
  const ResultRow& row = run.rows.front();
  EXPECT_EQ(row.method, "Detect(esa)");
  EXPECT_EQ(row.metric, "precision");
  EXPECT_GE(row.mean, 0.0);
  EXPECT_LE(row.mean, 1.0);

  // A budget of 100 against an ESA stream of ~100+ prediction ids at 10
  // batches/s x 16 ids must flag both attackers: perfect recall.
  for (const std::string& csv : run.csv_rows) {
    EXPECT_NE(csv.find("synthetic1,offline,poisson,Detect(esa)"),
              std::string::npos)
        << csv;
  }
}

TEST(DetectAttackTest, DetectionCsvIdenticalAcrossThreadCounts) {
  const auto serial_spec = DetectSpec(1);
  const auto parallel_spec = DetectSpec(8);
  ASSERT_TRUE(serial_spec.ok());
  ASSERT_TRUE(parallel_spec.ok());

  DetectRun serial = RunDetect(*serial_spec);
  DetectRun parallel = RunDetect(*parallel_spec);
  ASSERT_FALSE(serial.csv_rows.empty());

  // on_attack arrival order is scheduling-dependent with threads > 1; the
  // row *content* (virtual-time detection stats) must match exactly.
  std::sort(serial.csv_rows.begin(), serial.csv_rows.end());
  std::sort(parallel.csv_rows.begin(), parallel.csv_rows.end());
  EXPECT_EQ(serial.csv_rows, parallel.csv_rows);

  // Aggregated precision matches too.
  ASSERT_FALSE(serial.rows.empty());
  ASSERT_FALSE(parallel.rows.empty());
  EXPECT_DOUBLE_EQ(serial.rows.front().mean, parallel.rows.front().mean);
}

TEST(DetectAttackTest, SimsAxisGridsProfilesAndSuffixesRows) {
  const auto spec = DetectSpec(1, {"poisson", "bursty:factor=12"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const DetectRun run = RunDetect(*spec);

  // 2 profiles x 2 trials of detection rows, each tagged with its profile.
  ASSERT_EQ(run.csv_rows.size(), 4u);
  std::size_t poisson = 0, bursty = 0;
  for (const std::string& csv : run.csv_rows) {
    poisson += csv.find(",poisson,") != std::string::npos;
    bursty += csv.find(",bursty,") != std::string::npos;
  }
  EXPECT_EQ(poisson, 2u);
  EXPECT_EQ(bursty, 2u);

  // With >1 sims the aggregated rows disambiguate via the {kind} suffix.
  bool saw_poisson_row = false, saw_bursty_row = false;
  for (const ResultRow& row : run.rows) {
    saw_poisson_row |= row.experiment == "detect_test{poisson}";
    saw_bursty_row |= row.experiment == "detect_test{bursty}";
  }
  EXPECT_TRUE(saw_poisson_row);
  EXPECT_TRUE(saw_bursty_row);
}

TEST(DetectAttackTest, RejectsSelfEmbedding) {
  const auto spec =
      ExperimentSpecBuilder("t")
          .Dataset("synthetic1")
          .Attack("detect", ConfigMap::MustParse("attack=detect"))
          .TargetFraction(0.3)
          .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kInvalidArgument);
}

TEST(DetectAttackTest, RejectsUnknownEmbeddedAttack) {
  const auto spec =
      ExperimentSpecBuilder("t")
          .Dataset("synthetic1")
          .Attack("detect", ConfigMap::MustParse("attack=quantum"))
          .TargetFraction(0.3)
          .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kNotFound);
}

TEST(DetectAttackTest, RejectsUnknownStatAndArrival) {
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  {
    const auto spec =
        ExperimentSpecBuilder("t")
            .Dataset("synthetic1")
            .Attack("detect", ConfigMap::MustParse("stat=f1"))
            .TargetFraction(0.3)
            .Build();
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kInvalidArgument);
  }
  {
    const auto spec =
        ExperimentSpecBuilder("t")
            .Dataset("synthetic1")
            .Attack("detect", ConfigMap::MustParse("arrival=lunar"))
            .TargetFraction(0.3)
            .Build();
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kNotFound);
  }
}

TEST(DetectAttackTest, RejectsInvalidAlertKeysWithoutAlertMetric) {
  // Every alert rule key is validated, not only when alert_metric is set.
  const auto runner = MakeAttack(
      "detect",
      ConfigMap::MustParse("attack=esa,clients=50,duration=2,alert_budget=5,"
                           "alert_kind=bogus,alert_p=7"),
      SmokeScale());
  ASSERT_FALSE(runner.ok());
  EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument);
  const auto lone_budget =
      MakeAttack("detect", ConfigMap::MustParse("alert_budget=0.5"),
                 SmokeScale());
  ASSERT_FALSE(lone_budget.ok());
  EXPECT_EQ(lone_budget.status().code(), StatusCode::kInvalidArgument);
}

TEST(DetectAttackTest, AlertKeysShareTheAlertsGrammarMessages) {
  const std::pair<const char*, const char*> cases[] = {
      {"alert_metric=serve.auditor.denied,alert_above=1,alert_budget=5",
       "threshold:metric=serve.auditor.denied,above=1,budget=5"},
      {"alert_metric=serve.auditor.denied,alert_above=1,alert_kind=bogus",
       "bogus:metric=serve.auditor.denied,above=1"},
      {"alert_metric=serve.auditor.denied,alert_above=1,alert_p=7",
       "threshold:metric=serve.auditor.denied,above=1,p=7"},
      {"alert_metric=serve.auditor.denied",
       "threshold:metric=serve.auditor.denied"},
  };
  for (const auto& [detect_config, alerts_spec] : cases) {
    const auto runner = MakeAttack(
        "detect", ConfigMap::MustParse(detect_config), SmokeScale());
    const auto rules = ParseAlertRules(alerts_spec);
    ASSERT_FALSE(runner.ok()) << detect_config;
    ASSERT_FALSE(rules.ok()) << alerts_spec;
    EXPECT_EQ(runner.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(runner.status().message(), rules.status().message())
        << detect_config;
  }
}

TEST(DetectAttackTest, AlertMetricRunReportsAlertExtras) {
  const auto spec =
      ExperimentSpecBuilder("detect_alert_test")
          .Dataset("synthetic1")
          .Model("lr")
          .Attack("detect",
                  ConfigMap::MustParse(
                      std::string(kDetectConfig) +
                      ",alert_metric=serve.auditor.admitted,alert_above=50,"
                      "alert_for=2"))
          .TargetFraction(0.3)
          .Trials(1)
          .Channel("offline")
          .Seed(42)
          .SplitSeed(1000)
          .Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::vector<std::string> extras;
  RunOptions options;
  options.on_attack = [&extras](const AttackObservation& observation) {
    if (observation.outcome == nullptr) return;
    for (const auto& [name, value] : observation.outcome->extras) {
      extras.push_back(name);
    }
  };
  NullSink sink;
  ExperimentRunner runner(SmokeScale());
  ASSERT_TRUE(runner.Run(*spec, sink, options).ok());
  for (const char* key :
       {"alert_precision", "alert_recall", "alert_fpr", "alert_ttd_s",
        "alert_tp", "alert_fp", "alert_fn", "alert_transitions",
        "alert_ticks"}) {
    EXPECT_NE(std::find(extras.begin(), extras.end(), key), extras.end())
        << key;
  }
}

TEST(ExperimentSpecTest, RejectsDuplicateSimKinds) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Attack("esa")
                        .TargetFraction(0.3)
                        .Sims({"poisson", "poisson:ignored=1"})
                        .Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentSpecTest, RejectsEmptySimProfile) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Attack("esa")
                        .TargetFraction(0.3)
                        .Sims({""})
                        .Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentRunnerTest, RejectsMalformedSimProfileUpFront) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("synthetic1")
                        .Attack("esa")
                        .TargetFraction(0.3)
                        .Sims({"bursty:factor=0.5"})  // factor must be > 1
                        .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vfl::exp
