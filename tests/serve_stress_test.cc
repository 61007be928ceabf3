// Multi-thread stress: many concurrent clients hammer the server with
// overlapping sample ids, with helper workers and without; every revealed
// vector must be bit-identical to the sequential reference, the audit totals
// must balance exactly, and the queue-depth gauge must never read negative.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/mlp.h"
#include "obs/metrics.h"
#include "serve/adversary_client.h"
#include "serve/prediction_server.h"

namespace vfl::serve {
namespace {

class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClassificationSpec spec;
    spec.num_samples = 200;
    spec.num_features = 10;
    spec.num_classes = 3;
    spec.num_informative = 6;
    spec.num_redundant = 2;
    spec.seed = 123;
    dataset_ = data::MakeClassification(spec);
    models::MlpConfig config;
    config.hidden_sizes = {16, 8};
    config.train.epochs = 3;
    mlp_.Fit(dataset_, config);
    split_ = fed::FeatureSplit::TailFraction(10, 0.3);
    scenario_ = fed::MakeTwoPartyScenario(dataset_.x, split_, &mlp_);
    reference_ = scenario_.CollectView().confidences;
  }

  // 16 clients hammer a server with `threads` helper workers while a
  // sampler polls serve.queue_depth. Every revealed vector must match the
  // reference, the audit totals must balance, and the depth gauge must never
  // read below zero.
  void RunStress(std::size_t threads) {
    obs::MetricsRegistry registry;
    PredictionServerConfig config;
    config.num_threads = threads;
    config.max_batch_size = 16;
    config.cache_capacity = 128;  // smaller than the sample count: forces
                                  // eviction churn under load
    config.metrics = &registry;
    std::unique_ptr<PredictionServer> server =
        MakeScenarioServer(scenario_, config);

    constexpr std::size_t kClients = 16;
    constexpr std::size_t kQueriesPerClient = 300;
    constexpr std::size_t kRowsPerCall = 10;
    std::atomic<std::size_t> mismatches{0};
    std::atomic<bool> clients_done{false};
    std::int64_t min_depth = 0;
    std::thread sampler([&] {
      while (!clients_done.load()) {
        min_depth = std::min(
            min_depth, registry.Snapshot().ValueOf("serve.queue_depth"));
      }
    });
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::uint64_t client_id =
          server->RegisterClient("stress-" + std::to_string(c));
      clients.emplace_back([&, client_id, c] {
        // Deterministic per-client id stream covering the sample range with
        // heavy overlap between clients (cache churn + duplicate in-flight
        // requests). Even clients send it as 10-row PredictBatch calls, odd
        // clients as single Predict calls, so both call shapes share
        // batches.
        std::vector<std::size_t> ids;
        for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
          ids.push_back((c * 37 + q * 13) % dataset_.num_samples());
        }
        if (c % 2 == 0) {
          for (std::size_t q = 0; q < kQueriesPerClient; q += kRowsPerCall) {
            const std::vector<std::size_t> call(
                ids.begin() + q, ids.begin() + q + kRowsPerCall);
            const core::StatusOr<la::Matrix> rows =
                server->PredictBatch(client_id, call);
            for (std::size_t r = 0; r < call.size(); ++r) {
              if (!rows.ok() || rows->Row(r) != reference_.Row(call[r])) {
                mismatches.fetch_add(1);
              }
            }
          }
        } else {
          for (const std::size_t id : ids) {
            const core::StatusOr<std::vector<double>> result =
                server->Predict(client_id, id);
            if (!result.ok() || *result != reference_.Row(id)) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    clients_done.store(true);
    sampler.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GE(min_depth, 0) << "serve.queue_depth read below zero";
    EXPECT_EQ(registry.Snapshot().ValueOf("serve.queue_depth"), 0);

    const PredictionServerStats stats = server->stats();
    EXPECT_EQ(stats.predictions_served, kClients * kQueriesPerClient);
    // The cache absorbed part of the load; everything else ran in batches.
    EXPECT_EQ(stats.cache_hits + stats.model_rows,
              kClients * kQueriesPerClient);

    // Audit totals balance: every client saw exactly its own volume.
    std::uint64_t audited = 0;
    for (const ClientAuditRecord& record : server->auditor().AuditLog()) {
      EXPECT_EQ(record.served, kQueriesPerClient);
      audited += record.served;
    }
    EXPECT_EQ(audited, kClients * kQueriesPerClient);
  }

  data::Dataset dataset_;
  models::MlpClassifier mlp_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  la::Matrix reference_;
};

TEST_F(ServeStressTest, ConcurrentClientsGetDeterministicBitIdenticalResults) {
  RunStress(/*threads=*/8);
}

TEST_F(ServeStressTest, ZeroWorkerCallersRunEachOthersQueuedRows) {
  // No helper workers: concurrent callers run each other's queued rows.
  RunStress(/*threads=*/0);
}

TEST_F(ServeStressTest, OneRowAndSixtyFourRowCallersMatchSequentialPredict) {
  // Single-row and 64-row callers share a 4-worker server with the serving
  // defaults (batches of 32, no cache), so a call's rows are run by its own
  // thread, by workers and by other callers: every completion-latch path
  // runs (self-served, mixed, served entirely by others). Each row must
  // equal the sequential one-row-at-a-time Predict of its id, bit for bit
  // (batches of 32 stay under the GEMM microkernel cutover here).
  std::unique_ptr<PredictionServer> sequential =
      fed::MakeProtocolServer(&mlp_, {scenario_.adversary_party.get(),
                                      scenario_.target_party.get()});
  const std::uint64_t sequential_client =
      sequential->RegisterClient("sequential");
  la::Matrix expected(dataset_.num_samples(), mlp_.num_classes());
  for (std::size_t id = 0; id < dataset_.num_samples(); ++id) {
    const core::StatusOr<std::vector<double>> row =
        sequential->Predict(sequential_client, id);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    expected.SetRow(id, *row);
  }

  PredictionServerConfig config;
  config.num_threads = 4;
  config.max_batch_size = 32;
  std::unique_ptr<PredictionServer> server =
      MakeScenarioServer(scenario_, config);
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kCallsPerCaller = 200;
  constexpr std::size_t kWideRows = 64;
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> rows_checked{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    const std::uint64_t client_id =
        server->RegisterClient("caller-" + std::to_string(c));
    callers.emplace_back([&, client_id, c] {
      const std::size_t rows = c % 2 == 0 ? 1 : kWideRows;
      std::vector<std::size_t> ids(rows);
      for (std::size_t q = 0; q < kCallsPerCaller; ++q) {
        for (std::size_t r = 0; r < rows; ++r) {
          ids[r] = (c * 29 + q * 7 + r * 3) % dataset_.num_samples();
        }
        const core::StatusOr<la::Matrix> got =
            server->PredictBatch(client_id, ids);
        for (std::size_t r = 0; r < rows; ++r) {
          if (!got.ok() || got->Row(r) != expected.Row(ids[r])) {
            mismatches.fetch_add(1);
          }
        }
        rows_checked.fetch_add(rows);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const std::size_t total = (kCallers / 2) * kCallsPerCaller * (1 + kWideRows);
  EXPECT_EQ(rows_checked.load(), total);
  const PredictionServerStats stats = server->stats();
  EXPECT_EQ(stats.model_rows, total);
  EXPECT_EQ(stats.predictions_served, total);
  EXPECT_EQ(server->auditor().CountersSnapshot().served, total);
}

}  // namespace
}  // namespace vfl::serve
