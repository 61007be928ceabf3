#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "defense/rounding.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"
#include "serve/adversary_client.h"
#include "serve/batcher.h"
#include "serve/prediction_server.h"
#include "serve/query_auditor.h"
#include "serve/result_cache.h"
#include "serve/server_channel.h"
#include "serve/thread_pool.h"

namespace vfl::serve {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RejectsTasksAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// --- batcher ----------------------------------------------------------------

std::vector<BatchItem> MakeItems(std::size_t first, std::size_t count) {
  std::vector<BatchItem> items(count);
  for (std::size_t i = 0; i < count; ++i) items[i].sample_id = first + i;
  return items;
}

std::vector<std::size_t> SampleIds(const std::vector<BatchItem>& batch) {
  std::vector<std::size_t> ids;
  for (const BatchItem& item : batch) ids.push_back(item.sample_id);
  return ids;
}

TEST(BatcherTest, FusesQueuedRequestsFifo) {
  Batcher batcher(3);
  std::vector<BatchItem> items = MakeItems(0, 5);
  std::vector<BatchItem> batch;
  ASSERT_TRUE(batcher.PushAndPop(items, &batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{0, 1, 2}));
  ASSERT_TRUE(batcher.PopBatch(&batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{3, 4}));
}

TEST(BatcherTest, PushAndPopTakesTheQueueHeadFirst) {
  Batcher batcher(2);
  std::vector<BatchItem> first = MakeItems(0, 3);
  std::vector<BatchItem> second = MakeItems(10, 2);
  std::vector<BatchItem> batch;
  ASSERT_TRUE(batcher.PushAndPop(first, &batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{0, 1}));
  // Row 2 is still queued ahead of the second push.
  ASSERT_TRUE(batcher.PushAndPop(second, &batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{2, 10}));
  ASSERT_TRUE(batcher.TryPopBatch(&batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{11}));
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(BatcherTest, EmptyPushAndPopQueuesAndPopsNothing) {
  Batcher batcher(4);
  std::vector<BatchItem> queued = MakeItems(0, 6);
  std::vector<BatchItem> batch;
  ASSERT_TRUE(batcher.PushAndPop(queued, &batch));
  batch = MakeItems(50, 2);  // stale contents
  EXPECT_TRUE(batcher.PushAndPop({}, &batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batcher.depth(), 2u);
}

TEST(BatcherTest, RingKeepsFifoOrderAcrossWrapAndGrowth) {
  Batcher batcher(3);
  std::vector<BatchItem> batch;
  std::vector<std::size_t> popped;
  std::size_t next = 0;
  // Uneven pushes against 3-row pops wrap the ring, then outgrow it.
  for (const std::size_t count : {5u, 9u, 2u, 17u, 40u, 1u}) {
    std::vector<BatchItem> items = MakeItems(next, count);
    next += count;
    ASSERT_TRUE(batcher.PushAndPop(items, &batch));
    for (const std::size_t id : SampleIds(batch)) popped.push_back(id);
  }
  while (batcher.TryPopBatch(&batch)) {
    for (const std::size_t id : SampleIds(batch)) popped.push_back(id);
  }
  ASSERT_EQ(popped.size(), next);
  for (std::size_t i = 0; i < popped.size(); ++i) EXPECT_EQ(popped[i], i);
}

TEST(BatcherTest, CloseRejectsPushesAndDrains) {
  Batcher batcher(1);
  std::vector<BatchItem> first = MakeItems(7, 2);
  std::vector<BatchItem> second = MakeItems(9, 1);
  std::vector<BatchItem> batch;
  ASSERT_TRUE(batcher.PushAndPop(first, &batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{7}));
  batcher.Close();
  EXPECT_FALSE(batcher.PushAndPop(second, &batch));
  EXPECT_TRUE(batch.empty());
  std::vector<BatchItem> drained;
  ASSERT_TRUE(batcher.PopBatch(&drained));
  EXPECT_EQ(SampleIds(drained), (std::vector<std::size_t>{8}));
  EXPECT_FALSE(batcher.PopBatch(&drained));
  EXPECT_TRUE(drained.empty());
}

TEST(BatcherTest, TryPopBatchOnEmptyQueueReturnsAtOnce) {
  Batcher batcher(4);
  std::vector<BatchItem> batch = MakeItems(0, 2);  // stale contents
  EXPECT_FALSE(batcher.TryPopBatch(&batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batcher.depth(), 0u);
}

TEST(BatcherTest, PushOfTwoBatchesPopsInFifoOrder) {
  Batcher batcher(4);
  std::vector<BatchItem> items = MakeItems(10, 8);
  std::vector<BatchItem> batch;
  ASSERT_TRUE(batcher.PushAndPop(items, &batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{10, 11, 12, 13}));
  EXPECT_EQ(batcher.depth(), 4u);
  ASSERT_TRUE(batcher.TryPopBatch(&batch));
  EXPECT_EQ(SampleIds(batch), (std::vector<std::size_t>{14, 15, 16, 17}));
  EXPECT_FALSE(batcher.TryPopBatch(&batch));
}

// --- result cache -----------------------------------------------------------

TEST(ResultCacheTest, PutGetRoundTrip) {
  ResultCache cache(8, 2);
  cache.Put(1, {0.25, 0.75});
  std::vector<double> out;
  ASSERT_TRUE(cache.Get(1, &out));
  EXPECT_EQ(out, (std::vector<double>{0.25, 0.75}));
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2, 1);  // one shard, two entries
  cache.Put(1, {1.0});
  cache.Put(2, {2.0});
  std::vector<double> out;
  ASSERT_TRUE(cache.Get(1, &out));  // refresh key 1
  cache.Put(3, {3.0});              // evicts key 2
  EXPECT_TRUE(cache.Get(1, &out));
  EXPECT_FALSE(cache.Get(2, &out));
  EXPECT_TRUE(cache.Get(3, &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCache cache(16, 4);
  for (std::uint64_t k = 0; k < 10; ++k) cache.Put(k, {double(k)});
  EXPECT_EQ(cache.size(), 10u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  std::vector<double> out;
  EXPECT_FALSE(cache.Get(3, &out));
}

// --- query auditor ----------------------------------------------------------

TEST(QueryAuditorTest, EnforcesBudgetAndLogsVolume) {
  QueryAuditorConfig config;
  config.default_query_budget = 3;
  QueryAuditor auditor(config);
  const std::uint64_t alice = auditor.RegisterClient("alice");
  const std::uint64_t bob = auditor.RegisterClient("bob");

  EXPECT_TRUE(auditor.Admit(alice, 2).ok());
  auditor.RecordServed(alice, 2);
  EXPECT_TRUE(auditor.Admit(alice, 1).ok());
  auditor.RecordServed(alice, 1);
  const core::Status denied = auditor.Admit(alice, 1);
  EXPECT_EQ(denied.code(), core::StatusCode::kResourceExhausted);

  // Bob's budget is independent.
  EXPECT_TRUE(auditor.Admit(bob, 3).ok());

  const ClientAuditRecord record = auditor.record(alice);
  EXPECT_EQ(record.admitted, 3u);
  EXPECT_EQ(record.served, 3u);
  EXPECT_EQ(record.denied, 1u);
  EXPECT_GT(record.window_qps, 0.0);

  const std::vector<ClientAuditRecord> log = auditor.AuditLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].name, "alice");
  EXPECT_EQ(log[1].name, "bob");
}

TEST(QueryAuditorTest, EventLogRecordsAdmissionsDenialsAndServes) {
  QueryAuditorConfig config;
  config.default_query_budget = 2;
  QueryAuditor auditor(config);
  const std::uint64_t alice = auditor.RegisterClient("alice");
  ASSERT_TRUE(auditor.Admit(alice, 2).ok());
  auditor.RecordServed(alice, 2);
  EXPECT_FALSE(auditor.Admit(alice, 1).ok());

  const std::vector<AuditEvent> events = auditor.RecentEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].event, AuditEventKind::kAdmitted);
  EXPECT_EQ(events[1].event, AuditEventKind::kServed);
  EXPECT_EQ(events[2].event, AuditEventKind::kDenied);
  for (const AuditEvent& event : events) {
    EXPECT_EQ(event.client_id, alice);
  }
  // Sequence numbers are strictly increasing (gap detection after drops).
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(auditor.dropped_events(), 0u);
}

TEST(QueryAuditorTest, EventLogIsACappedRingBuffer) {
  QueryAuditorConfig config;
  config.max_audit_events = 8;
  QueryAuditor auditor(config);
  const std::uint64_t client = auditor.RegisterClient("flood");
  // 100 admissions through an 8-entry ring: memory stays bounded, evictions
  // are counted, and the retained tail is the most recent events in order.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(auditor.Admit(client, 1).ok());

  const std::vector<AuditEvent> events = auditor.RecentEvents();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(auditor.dropped_events(), 92u);
  // The newest event has the globally last sequence number and the retained
  // window is contiguous.
  EXPECT_EQ(events.back().seq, 100u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(QueryAuditorTest, ZeroCapDisablesEventLogging) {
  QueryAuditorConfig config;
  config.max_audit_events = 0;
  QueryAuditor auditor(config);
  const std::uint64_t client = auditor.RegisterClient("quiet");
  ASSERT_TRUE(auditor.Admit(client, 5).ok());
  auditor.RecordServed(client, 5);
  EXPECT_TRUE(auditor.RecentEvents().empty());
  EXPECT_EQ(auditor.dropped_events(), 0u);
  // Aggregate per-client records still accumulate.
  EXPECT_EQ(auditor.record(client).served, 5u);
}

TEST(QueryAuditorTest, UnknownClientIsNotFound) {
  QueryAuditor auditor;
  EXPECT_EQ(auditor.Admit(42, 1).code(), core::StatusCode::kNotFound);
}

TEST(QueryAuditorTest, ZeroBudgetMeansUnlimited) {
  QueryAuditor auditor;  // default budget 0
  const std::uint64_t id = auditor.RegisterClient("flood");
  EXPECT_TRUE(auditor.Admit(id, 1000000).ok());
}

TEST(QueryAuditorTest, RegisterClientsBulkAssignsContiguousIds) {
  QueryAuditor auditor;
  const std::uint64_t named = auditor.RegisterClient("first");
  const std::uint64_t base = auditor.RegisterClients(1000);
  EXPECT_EQ(base, named + 1);
  EXPECT_TRUE(auditor.Admit(base, 1).ok());
  EXPECT_TRUE(auditor.Admit(base + 999, 1).ok());
  EXPECT_EQ(auditor.Admit(base + 1000, 1).code(),
            core::StatusCode::kNotFound);
  EXPECT_EQ(auditor.RegisterClients(0), 0u);
}

TEST(QueryAuditorTest, BudgetDenialFlagsClient) {
  QueryAuditorConfig config;
  config.default_query_budget = 3;
  QueryAuditor auditor(config);
  const std::uint64_t id = auditor.RegisterClient("greedy");

  EXPECT_TRUE(auditor.Admit(id, 3, 1000).ok());
  EXPECT_FALSE(auditor.record(id).flagged);
  EXPECT_FALSE(auditor.Admit(id, 1, 2000).ok());

  const ClientAuditRecord record = auditor.record(id);
  EXPECT_TRUE(record.flagged);
  EXPECT_EQ(record.flag_reason, AuditFlagReason::kBudget);
  EXPECT_EQ(record.first_seen_ns, 1000u);
  EXPECT_EQ(record.flagged_ns, 2000u);
  EXPECT_EQ(auditor.CountersSnapshot().flagged_clients, 1u);
}

TEST(QueryAuditorTest, SlidingWindowRateDecaysAfterSilence) {
  // The windowed rate is only observable deterministically through the
  // flagging decision (record() evaluates it against the wall clock): a
  // client that crosses the threshold inside one window flags; the same
  // served volume spread across idle windows must not.
  QueryAuditorConfig config;
  config.rate_window = std::chrono::milliseconds(1000);
  config.flag_window_qps = 10.0;
  constexpr std::uint64_t kSecond = 1'000'000'000ull;

  QueryAuditor auditor(config);
  const std::uint64_t burst = auditor.RegisterClient("burst");
  const std::uint64_t spread = auditor.RegisterClient("spread");

  // 20 vectors inside one window: crosses 10 qps.
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t t = static_cast<std::uint64_t>(i) * kSecond / 25;
    ASSERT_TRUE(auditor.Admit(burst, 1, t).ok());
    auditor.RecordServed(burst, 1, t);
  }
  EXPECT_TRUE(auditor.Verdicts()[0].flagged);

  // The same 20 vectors, one per 2-second silent gap: every window restarts
  // from stale buckets, the estimate never accumulates, no flag.
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t t = static_cast<std::uint64_t>(i) * 2 * kSecond;
    ASSERT_TRUE(auditor.Admit(spread, 1, t).ok());
    auditor.RecordServed(spread, 1, t);
  }
  EXPECT_FALSE(auditor.Verdicts()[1].flagged);
}

TEST(QueryAuditorTest, RateThresholdFlagsOnceWithTimestamp) {
  QueryAuditorConfig config;
  config.rate_window = std::chrono::milliseconds(1000);
  config.flag_window_qps = 10.0;
  QueryAuditor auditor(config);
  const std::uint64_t fast = auditor.RegisterClient("fast");
  const std::uint64_t slow = auditor.RegisterClient("slow");

  constexpr std::uint64_t kMs = 1'000'000ull;
  // 50 vectors in 500 ms: windowed rate far above the 10 qps threshold.
  std::uint64_t flagged_at = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t t = static_cast<std::uint64_t>(i) * 10 * kMs;
    ASSERT_TRUE(auditor.Admit(fast, 1, t).ok());
    auditor.RecordServed(fast, 1, t);
    if (flagged_at == 0 && auditor.record(fast).flagged) flagged_at = t;
  }
  // 2 vectors a second apart stays under it.
  ASSERT_TRUE(auditor.Admit(slow, 1, 0).ok());
  auditor.RecordServed(slow, 1, 0);
  ASSERT_TRUE(auditor.Admit(slow, 1, 1000 * kMs).ok());
  auditor.RecordServed(slow, 1, 1000 * kMs);

  const ClientAuditRecord record = auditor.record(fast);
  EXPECT_TRUE(record.flagged);
  EXPECT_EQ(record.flag_reason, AuditFlagReason::kRate);
  EXPECT_EQ(record.flagged_ns, flagged_at);  // first crossing, never updated
  EXPECT_FALSE(auditor.record(slow).flagged);
  EXPECT_EQ(auditor.CountersSnapshot().flagged_clients, 1u);

  // Rate flagging observes without denying.
  EXPECT_EQ(auditor.record(fast).denied, 0u);
}

TEST(QueryAuditorTest, AdmitAndRecordServedMatchesSplitCalls) {
  QueryAuditorConfig config;
  config.default_query_budget = 10;
  QueryAuditor fused_auditor(config), split_auditor(config);
  const std::uint64_t fused = fused_auditor.RegisterClient("c");
  const std::uint64_t split = split_auditor.RegisterClient("c");

  for (int i = 0; i < 6; ++i) {
    const std::uint64_t t = 1000u + static_cast<std::uint64_t>(i);
    const core::Status a = fused_auditor.AdmitAndRecordServed(fused, 2, t);
    const core::Status b = split_auditor.Admit(split, 2, t);
    if (b.ok()) split_auditor.RecordServed(split, 2, t);
    EXPECT_EQ(a.code(), b.code());
  }
  const ClientAuditRecord ra = fused_auditor.record(fused);
  const ClientAuditRecord rb = split_auditor.record(split);
  EXPECT_EQ(ra.admitted, rb.admitted);
  EXPECT_EQ(ra.served, rb.served);
  EXPECT_EQ(ra.denied, rb.denied);
  EXPECT_EQ(ra.flagged, rb.flagged);
}

TEST(QueryAuditorTest, VerdictsCoverEveryClientInIdOrder) {
  QueryAuditorConfig config;
  config.default_query_budget = 1;
  QueryAuditor auditor(config);
  const std::uint64_t a = auditor.RegisterClient("a");
  const std::uint64_t b = auditor.RegisterClient("b");
  ASSERT_TRUE(auditor.Admit(a, 1, 500).ok());
  ASSERT_FALSE(auditor.Admit(a, 1, 600).ok());  // flags a

  const std::vector<AuditVerdict> verdicts = auditor.Verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].client_id, a);
  EXPECT_TRUE(verdicts[0].flagged);
  EXPECT_EQ(verdicts[0].reason, AuditFlagReason::kBudget);
  EXPECT_EQ(verdicts[0].first_seen_ns, 500u);
  EXPECT_EQ(verdicts[0].flagged_ns, 600u);
  EXPECT_EQ(verdicts[1].client_id, b);
  EXPECT_FALSE(verdicts[1].flagged);
  EXPECT_EQ(verdicts[1].first_seen_ns, 0u);  // never queried

  std::size_t visited = 0;
  auditor.ForEachVerdict([&](const AuditVerdict&) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

// --- prediction server ------------------------------------------------------

class PredictionServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClassificationSpec spec;
    spec.num_samples = 160;
    spec.num_features = 8;
    spec.num_classes = 3;
    spec.num_informative = 5;
    spec.num_redundant = 2;
    spec.seed = 91;
    dataset_ = data::MakeClassification(spec);
    lr_.Fit(dataset_);
    split_ = fed::FeatureSplit::TailFraction(8, 0.4);
    scenario_ = fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
    // The scenario's synchronous one-row-per-pass server is the reference
    // every other configuration must match bit for bit.
    reference_ = scenario_.CollectView().confidences;
  }

  std::unique_ptr<PredictionServer> MakeServer(PredictionServerConfig config) {
    return MakeScenarioServer(scenario_, config);
  }

  data::Dataset dataset_;
  models::LogisticRegression lr_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  la::Matrix reference_;
};

TEST_F(PredictionServerTest, BatchedConcurrentMatchesSequentialBitwise) {
  PredictionServerConfig config;
  config.num_threads = 4;
  config.max_batch_size = 16;
  config.cache_capacity = 256;
  std::unique_ptr<PredictionServer> server = MakeServer(config);

  const std::uint64_t client = server->RegisterClient("active");
  const core::StatusOr<la::Matrix> batched = server->PredictAll(client);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(*batched, reference_);  // exact element-wise equality

  const PredictionServerStats stats = server->stats();
  EXPECT_EQ(stats.predictions_served, dataset_.num_samples());
  EXPECT_GT(stats.model_batches, 0u);
  EXPECT_GT(stats.mean_batch_size, 1.0);
}

TEST_F(PredictionServerTest, UncappedBatchMatchesSequentialBitwise) {
  // max_batch_size = 0 means no row cap, with or without worker threads.
  for (const std::size_t threads : {0, 4}) {
    PredictionServerConfig config;
    config.num_threads = threads;
    config.max_batch_size = 0;
    std::unique_ptr<PredictionServer> server = MakeServer(config);
    const std::uint64_t client = server->RegisterClient("active");
    const core::StatusOr<la::Matrix> fused = server->PredictAll(client);
    ASSERT_TRUE(fused.ok()) << "threads=" << threads;
    EXPECT_EQ(*fused, reference_) << "threads=" << threads;
    EXPECT_EQ(server->config().max_batch_size, 0u);
    // A lone call's misses queue as one batch, so one forward pass runs
    // them, with or without workers.
    EXPECT_EQ(server->stats().model_batches, 1u) << "threads=" << threads;
  }
}

TEST_F(PredictionServerTest, LoneCallerRunsItsOwnRowWithoutWaiting) {
  // An idle server answers a lone one-row call at once: the caller runs its
  // own batch, and nothing waits for a batch to fill.
  PredictionServerConfig config;
  config.num_threads = 4;
  config.max_batch_size = 32;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t client = server->RegisterClient("lone");
  constexpr std::size_t kCalls = 10000;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < kCalls; ++t) {
    ASSERT_TRUE(server->Predict(client, t % dataset_.num_samples()).ok());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 1.0) << kCalls << " sequential calls";
  EXPECT_EQ(server->stats().model_rows, kCalls);
}

TEST_F(PredictionServerTest, SingleQueriesMatchSequential) {
  PredictionServerConfig config;
  config.num_threads = 2;
  config.max_batch_size = 8;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t client = server->RegisterClient("active");
  for (std::size_t t = 0; t < 20; ++t) {
    const core::StatusOr<std::vector<double>> result =
        server->Predict(client, t);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, reference_.Row(t));
  }
}

TEST_F(PredictionServerTest, RepeatedQueriesHitCacheWithIdenticalResult) {
  PredictionServerConfig config;
  config.cache_capacity = 64;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t client = server->RegisterClient("adversary");

  const core::StatusOr<std::vector<double>> first = server->Predict(client, 5);
  const core::StatusOr<std::vector<double>> second = server->Predict(client, 5);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);

  const PredictionServerStats stats = server->stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.model_rows, 1u);  // the model ran once
  // Both reveals count: one per revealed vector, cached or not.
  EXPECT_EQ(server->num_predictions_served(), 2u);
}

TEST_F(PredictionServerTest, AddingDefenseInvalidatesCache) {
  PredictionServerConfig config;
  config.cache_capacity = 64;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t client = server->RegisterClient("active");

  const core::StatusOr<std::vector<double>> raw = server->Predict(client, 3);
  ASSERT_TRUE(raw.ok());

  server->AddOutputDefense(std::make_unique<defense::RoundingDefense>(1));
  const core::StatusOr<std::vector<double>> rounded =
      server->Predict(client, 3);
  ASSERT_TRUE(rounded.ok());

  // The post-defense result must be freshly computed, not the cached raw
  // vector.
  defense::RoundingDefense rounding(1);
  EXPECT_EQ(*rounded, rounding.Apply(*raw));

  // And the rounded result is itself cached under the new generation.
  const core::StatusOr<std::vector<double>> again = server->Predict(client, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *rounded);
  EXPECT_GE(server->stats().cache_hits, 1u);
}

TEST_F(PredictionServerTest, QueryBudgetExceededIsCleanStatus) {
  PredictionServerConfig config;
  config.auditor.default_query_budget = 5;
  config.num_threads = 2;
  config.max_batch_size = 4;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t adversary = server->RegisterClient("adversary");

  for (std::size_t t = 0; t < 5; ++t) {
    EXPECT_TRUE(server->Predict(adversary, t).ok());
  }
  const core::StatusOr<std::vector<double>> over =
      server->Predict(adversary, 5);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), core::StatusCode::kResourceExhausted);

  // The server keeps serving other clients after the rejection.
  const std::uint64_t fresh = server->RegisterClient("fresh");
  EXPECT_TRUE(server->Predict(fresh, 0).ok());

  const ClientAuditRecord record = server->auditor().record(adversary);
  EXPECT_EQ(record.served, 5u);
  EXPECT_EQ(record.denied, 1u);
}

TEST_F(PredictionServerTest, BatchAdmissionIsAllOrNothing) {
  PredictionServerConfig config;
  config.auditor.default_query_budget = 10;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t client = server->RegisterClient("adversary");

  const core::StatusOr<la::Matrix> whole = server->PredictAll(client);
  EXPECT_FALSE(whole.ok());  // 160 samples > budget 10
  EXPECT_EQ(whole.status().code(), core::StatusCode::kResourceExhausted);
  // Nothing was revealed, so the budget still covers a small batch.
  const core::StatusOr<la::Matrix> small =
      server->PredictBatch(client, {0, 1, 2});
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(server->num_predictions_served(), 3u);
}

TEST_F(PredictionServerTest, InvalidSampleAndClientAreCleanErrors) {
  std::unique_ptr<PredictionServer> server =
      MakeServer(PredictionServerConfig{});
  const std::uint64_t client = server->RegisterClient("active");
  EXPECT_EQ(server->Predict(client, dataset_.num_samples()).status().code(),
            core::StatusCode::kOutOfRange);
  EXPECT_EQ(server->Predict(/*client_id=*/999, 0).status().code(),
            core::StatusCode::kNotFound);
}

TEST_F(PredictionServerTest, SetQueryBudgetCountsEveryRevealedVector) {
  PredictionServerConfig config;
  config.cache_capacity = 16;
  std::unique_ptr<PredictionServer> server = MakeServer(config);
  const std::uint64_t client = server->RegisterClient("adversary");
  server->SetQueryBudget(client, 3);
  EXPECT_TRUE(server->Predict(client, 0).ok());
  EXPECT_TRUE(server->Predict(client, 0).ok());  // cache hit still budgeted
  EXPECT_TRUE(server->Predict(client, 0).ok());
  EXPECT_FALSE(server->Predict(client, 0).ok());
}

TEST_F(PredictionServerTest, ConcurrentViewMatchesSequentialCollection) {
  PredictionServerConfig config;
  config.num_threads = 4;
  config.max_batch_size = 32;
  config.cache_capacity = 512;
  std::unique_ptr<PredictionServer> server = MakeServer(config);

  // Four concurrent chunks of the accumulation, rows back in id order.
  ServerChannel channel(server.get(), split_, scenario_.x_adv, {},
                        /*fetch_clients=*/4);
  const core::StatusOr<fed::AdversaryView> view = channel.CollectView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->confidences, reference_);
  EXPECT_EQ(view->x_adv, scenario_.x_adv);

  // The audit log shows the channel's client served the whole volume.
  const ClientAuditRecord record =
      server->auditor().record(channel.client_id());
  EXPECT_EQ(record.served, dataset_.num_samples());
}

}  // namespace
}  // namespace vfl::serve
