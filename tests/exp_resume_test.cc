#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/checkpoint.h"
#include "exp/experiment.h"
#include "exp/result_sink.h"
#include "exp/runner.h"
#include "store/env.h"
#include "store/wal.h"

namespace vfl::exp {
namespace {

/// Smoke-scale workload: seconds, not minutes.
ScaleConfig SmokeScale() {
  ScaleConfig scale;
  scale.dataset_samples = 400;
  scale.prediction_samples = 100;
  scale.trials = 2;
  scale.lr_epochs = 10;
  return scale;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/vflfia_resume_" + name;
  store::Env& env = store::Env::Posix();
  EXPECT_TRUE(env.CreateDir(dir).ok());
  const auto names = env.ListDir(dir);
  if (names.ok()) {
    for (const std::string& stale : *names) {
      (void)env.RemoveFile(store::JoinPath(dir, stale));
    }
  }
  return dir;
}

/// The 2-fraction x 2-trial ESA grid every test in this file runs.
ExperimentSpec BuildSpec(const std::string& checkpoint_dir,
                         std::size_t threads = 1, std::uint64_t seed = 42) {
  ExperimentSpecBuilder builder("resume");
  builder.Dataset("bank")
      .Model("lr")
      .Attack("esa")
      .Attack("random_uniform")
      .TargetFractions({0.2, 0.4})
      .Trials(2)
      .Seed(seed)
      .SplitSeed(7)
      .Threads(threads);
  if (!checkpoint_dir.empty()) builder.Checkpoint(checkpoint_dir);
  const auto spec = builder.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *spec;
}

/// Runs the spec with a CsvRowSink into a temp file and returns the exact
/// bytes produced. `live_trials`, when non-null, receives how many trials
/// actually executed (restored cells fire no hooks).
core::Status RunToCsv(const ExperimentSpec& spec, std::string* csv,
                      std::size_t* live_trials = nullptr) {
  const std::string path =
      store::JoinPath(FreshDir("csv_out"), "rows.csv");
  std::FILE* out = std::fopen(path.c_str(), "w");
  EXPECT_NE(out, nullptr);
  std::size_t trials_seen = 0;
  RunOptions options;
  options.on_trial = [&](const TrialObservation&) { ++trials_seen; };
  core::Status status;
  {
    CsvRowSink sink(out);
    ExperimentRunner runner(SmokeScale());
    status = runner.Run(spec, sink, options);
  }
  std::fclose(out);
  if (live_trials != nullptr) *live_trials = trials_seen;
  auto contents = store::Env::Posix().ReadFile(path);
  EXPECT_TRUE(contents.ok());
  if (contents.ok()) *csv = *contents;
  return status;
}

TEST(ExpResumeTest, CheckpointedRunMatchesPlainRunByteForByte) {
  std::string baseline;
  ASSERT_TRUE(RunToCsv(BuildSpec(""), &baseline).ok());
  ASSERT_FALSE(baseline.empty());

  const std::string ckpt = FreshDir("fresh");
  std::string first;
  std::size_t first_live = 0;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt), &first, &first_live).ok());
  EXPECT_EQ(first, baseline);
  EXPECT_EQ(first_live, 4u);  // 2 fractions x 2 trials, all live

  // Second run over the same journal: every cell restores, nothing
  // recomputes, output still byte-identical.
  std::string resumed;
  std::size_t resumed_live = 0;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt), &resumed, &resumed_live).ok());
  EXPECT_EQ(resumed, baseline);
  EXPECT_EQ(resumed_live, 0u);
}

TEST(ExpResumeTest, ThreadedAndResumedRunsStayByteIdentical) {
  std::string baseline;
  ASSERT_TRUE(RunToCsv(BuildSpec(""), &baseline).ok());

  const std::string ckpt = FreshDir("threaded");
  std::string threaded;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt, /*threads=*/8), &threaded).ok());
  EXPECT_EQ(threaded, baseline);

  // Resume the 8-thread journal on a single thread: restored cells carry the
  // exact doubles regardless of which thread produced them.
  std::string resumed;
  std::size_t live = 0;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt, /*threads=*/1), &resumed, &live).ok());
  EXPECT_EQ(resumed, baseline);
  EXPECT_EQ(live, 0u);
}

TEST(ExpResumeTest, InterruptedJournalResumesToIdenticalCsv) {
  std::string baseline;
  ASSERT_TRUE(RunToCsv(BuildSpec(""), &baseline).ok());

  const std::string ckpt = FreshDir("interrupted");
  std::string full;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt), &full).ok());

  // Simulate a crash mid-commit: tear the journal inside its final cell
  // record. Recovery drops exactly that cell; the resumed run recomputes it.
  const std::string segment = store::WalSegmentPath(ckpt, 1);
  const auto size = store::Env::Posix().FileSize(segment);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(store::Env::Posix().TruncateFile(segment, *size - 10).ok());

  std::string resumed;
  std::size_t live = 0;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt), &resumed, &live).ok());
  EXPECT_EQ(resumed, baseline);
  EXPECT_EQ(live, 1u);  // only the torn-away cell re-ran
}

TEST(ExpResumeTest, FingerprintMismatchRefusesToResume) {
  const std::string ckpt = FreshDir("mismatch");
  std::string csv;
  ASSERT_TRUE(RunToCsv(BuildSpec(ckpt, 1, /*seed=*/42), &csv).ok());

  // Same directory, different seed: the journal's cells would be wrong for
  // this grid — the runner must refuse before training anything.
  std::string other;
  const core::Status status =
      RunToCsv(BuildSpec(ckpt, 1, /*seed=*/43), &other);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("different experiment configuration"),
            std::string::npos)
      << status.ToString();
}

TEST(ExpResumeTest, CellKeyAndFingerprintHelpers) {
  EXPECT_EQ(MakeCellKey("bank", "offline", "", 0.25, 3),
            "bank|offline||" + std::string("0x1p-2") + "|3");
  const ExperimentSpec a = BuildSpec("", 1, 42);
  const ExperimentSpec b = BuildSpec("", 1, 43);
  const ScaleConfig scale = SmokeScale();
  EXPECT_EQ(SpecFingerprint(a, scale, 2), SpecFingerprint(a, scale, 2));
  EXPECT_NE(SpecFingerprint(a, scale, 2), SpecFingerprint(b, scale, 2));
  // Thread count is operational, not value-determining.
  const ExperimentSpec threaded = BuildSpec("", 8, 42);
  EXPECT_EQ(SpecFingerprint(a, scale, 2), SpecFingerprint(threaded, scale, 2));
}

TEST(ExpResumeTest, FingerprintCoversEveryScaleField) {
  const ExperimentSpec spec = BuildSpec("");
  const ScaleConfig base = SmokeScale();
  const std::string reference = SpecFingerprint(spec, base, 2);
  // ScaleConfig::trials reaches the fingerprint as the `trials` argument.
  EXPECT_TRUE(SpecFingerprint(spec, base, 3) != reference) << "trials";
  const auto expect_changes = [&](const char* field,
                                  void (*mutate)(ScaleConfig&)) {
    ScaleConfig scale = base;
    mutate(scale);
    EXPECT_TRUE(SpecFingerprint(spec, scale, 2) != reference) << field;
  };
  expect_changes("name", [](ScaleConfig& s) { s.name = "paper"; });
  expect_changes("dataset_samples",
                 [](ScaleConfig& s) { ++s.dataset_samples; });
  expect_changes("prediction_samples",
                 [](ScaleConfig& s) { ++s.prediction_samples; });
  expect_changes("lr_epochs", [](ScaleConfig& s) { ++s.lr_epochs; });
  expect_changes("mlp_hidden", [](ScaleConfig& s) { s.mlp_hidden = {64}; });
  expect_changes("mlp_epochs", [](ScaleConfig& s) { ++s.mlp_epochs; });
  expect_changes("grna_hidden", [](ScaleConfig& s) { s.grna_hidden = {64}; });
  expect_changes("grna_epochs", [](ScaleConfig& s) { ++s.grna_epochs; });
  expect_changes("dt_depth", [](ScaleConfig& s) { ++s.dt_depth; });
  expect_changes("rf_trees", [](ScaleConfig& s) { ++s.rf_trees; });
  expect_changes("rf_depth", [](ScaleConfig& s) { ++s.rf_depth; });
  expect_changes("gbdt_rounds", [](ScaleConfig& s) { ++s.gbdt_rounds; });
  expect_changes("gbdt_depth", [](ScaleConfig& s) { ++s.gbdt_depth; });
  expect_changes("surrogate_hidden",
                 [](ScaleConfig& s) { s.surrogate_hidden = {128}; });
  expect_changes("surrogate_samples",
                 [](ScaleConfig& s) { ++s.surrogate_samples; });
  expect_changes("surrogate_epochs",
                 [](ScaleConfig& s) { ++s.surrogate_epochs; });
}

}  // namespace
}  // namespace vfl::exp
