#ifndef VFLFIA_FED_QUERY_CHANNEL_H_
#define VFLFIA_FED_QUERY_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "defense/pipeline.h"
#include "fed/feature_split.h"
#include "fed/output_defense.h"
#include "la/matrix.h"
#include "models/model.h"
#include "obs/metrics.h"

namespace vfl::fed {

/// Everything the adversary legitimately controls when mounting an attack
/// (Sec. III-C): its own feature columns, the confidence scores returned by
/// the protocol, the released model, and the public column partition. Attack
/// constructors consume this view — they never see target features.
struct AdversaryView {
  /// Adversary's feature block of the prediction dataset (n x d_adv).
  la::Matrix x_adv;
  /// Confidence scores collected from the protocol (n x c), post-defense.
  la::Matrix confidences;
  /// The released (plaintext) VFL model.
  const models::Model* model = nullptr;
  /// Column partition between adversary and target.
  FeatureSplit split;
};

/// Knobs shared by every channel kind.
struct ChannelOptions {
  /// Lifetime cap on protocol queries issued through this channel; 0 =
  /// unlimited. Admission is all-or-nothing per Query call: a request the
  /// budget cannot cover is denied in full (kResourceExhausted) and nothing
  /// is revealed — partial results are never silently returned.
  std::uint64_t query_budget = 0;
  /// Keep an adversary-side notebook of observed confidence vectors (the
  /// paper's "accumulate predictions in the long term"): repeated queries
  /// for a sample are served from the notebook without consuming budget or
  /// re-running the protocol. Turn off to force every query through the
  /// backend (channel-overhead benchmarking).
  bool accumulate = true;
  /// Defenses applied to each confidence vector at the reveal point. In
  /// accumulate mode fetches happen in ascending sample-id order, so even
  /// stateful (seeded-noise) stages produce the identical stream on every
  /// channel kind; with accumulate=false the pipeline instead runs in
  /// request order and re-processes repeated ids (every query is a fresh
  /// protocol round trip).
  defense::DefensePipeline pipeline;
  /// Registry the channel's per-kind counters register with (lazily, on the
  /// first Query, because the kind is virtual); null means the process-global
  /// registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Monotonic channel counters — a point-in-time snapshot of the channel's
/// instruments (the registry sees the same cells under channel.<kind>.*).
struct ChannelStats {
  /// Confidence vectors fetched from the protocol (budget-consuming).
  std::uint64_t protocol_queries = 0;
  /// Requested vectors served from the adversary-side notebook.
  std::uint64_t notebook_hits = 0;
  /// Requested vectors the channel failed to deliver because of a budget
  /// denial — the adversary's vantage point: a denied Query counts every
  /// vector it asked for, whether the denial was the channel's own check or
  /// a server-side auditor rejection. The server's wire-level tally (chunks
  /// admitted before a flood hit the budget) lives in its audit log.
  std::uint64_t queries_denied = 0;
};

/// The adversary's only way to obtain predictions (Sec. III-C): attacks
/// issue sample-id queries and observe post-defense confidence vectors;
/// everything else — protocol transport, query budgets, the defense
/// pipeline, long-term accumulation — lives behind this interface.
///
/// Three implementations cover the scenario spectrum:
///  - OfflineChannel: a precomputed confidence table (the one-shot adversary
///    view), replayed with uniform budget/defense semantics;
///  - serve::ServerChannel: on-demand queries against a
///    serve::PredictionServer — synchronous in the caller's thread with zero
///    worker threads (the "service" kind), or concurrent traffic through the
///    batcher, cache, and query auditor (the "server" kind);
///  - net::NetChannel: the same server behind a loopback TCP boundary.
///
/// Budget exhaustion and audit denials surface as typed
/// core::StatusCode::kResourceExhausted errors through every kind.
/// Channels are not thread-safe; one adversary drives one channel (the
/// concurrent server behind a ServerChannel is).
class QueryChannel {
 public:
  /// `model` is the released VFL model (borrowed; adversary knowledge per
  /// the threat model) and must outlive the channel. It may be null for
  /// sources that never release the model (model-free baselines still run);
  /// model-consuming attacks reject such channels in Prepare.
  QueryChannel(FeatureSplit split, la::Matrix x_adv, std::size_t num_classes,
               const models::Model* model, ChannelOptions options);
  virtual ~QueryChannel() = default;

  QueryChannel(const QueryChannel&) = delete;
  QueryChannel& operator=(const QueryChannel&) = delete;

  /// Stable kind identifier ("offline", "service", "server", "net").
  virtual std::string_view kind() const = 0;

  /// Queries the protocol for `sample_ids` (duplicates allowed) and returns
  /// one post-defense confidence row per requested id, in request order.
  /// Errors: kOutOfRange (bad sample id), kResourceExhausted (channel budget
  /// or a server-side auditor denial), backend transport failures.
  core::StatusOr<la::Matrix> Query(const std::vector<std::size_t>& sample_ids);

  /// Query over every aligned sample in id order — how an adversary
  /// accumulates its full prediction set.
  core::StatusOr<la::Matrix> QueryAll();

  /// QueryAll + bundle: the adversary view the classic one-shot attacks
  /// consumed, now produced by the query machinery (budget-checked).
  core::StatusOr<AdversaryView> CollectView();

  /// Installs an observer invoked at the top of every Query with the full
  /// requested id batch (after validation, before notebook dedup or budget
  /// checks) — the attacker's offered load exactly as issued, which is what
  /// the traffic simulator records and replays. Null clears it.
  void set_query_observer(
      std::function<void(const std::vector<std::size_t>&)> observer) {
    query_observer_ = std::move(observer);
  }

  /// Aligned samples available for querying.
  std::size_t num_samples() const { return x_adv_.rows(); }
  std::size_t num_classes() const { return num_classes_; }
  const FeatureSplit& split() const { return split_; }
  /// The adversary's own feature block (its data — never budgeted).
  const la::Matrix& x_adv() const { return x_adv_; }
  /// The released (borrowed) VFL model; null when the source has none.
  const models::Model* model() const { return model_; }
  std::uint64_t query_budget() const { return options_.query_budget; }
  ChannelStats stats() const;

 protected:
  /// Fetches raw (pre-pipeline) confidence rows for `sample_ids` (validated,
  /// ascending-unique in accumulate mode) from the backend. All-or-nothing:
  /// an error means no row of this request is revealed to the caller.
  virtual core::StatusOr<la::Matrix> Fetch(
      const std::vector<std::size_t>& sample_ids) = 0;

 private:
  /// Registers the per-kind counters (channel.<kind>.*) on the first Query —
  /// kind() is virtual, so registration cannot happen in the constructor.
  /// Channels are single-threaded (class contract), so no synchronization.
  void EnsureRegistered();

  FeatureSplit split_;
  la::Matrix x_adv_;
  std::size_t num_classes_;
  const models::Model* model_;
  ChannelOptions options_;
  obs::Counter protocol_queries_;
  obs::Counter notebook_hits_;
  obs::Counter queries_denied_;
  bool registered_ = false;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
  std::function<void(const std::vector<std::size_t>&)> query_observer_;
  /// Post-defense vectors observed so far (accumulate mode).
  la::Matrix notebook_;
  std::vector<bool> observed_;
};

/// Replays a precomputed confidence table — the classic "adversary already
/// holds the dump" setting — while keeping the uniform budget/defense
/// semantics of the channel API, so experiments and tests behave identically
/// across channel kinds.
class OfflineChannel : public QueryChannel {
 public:
  /// Wraps an existing adversary view (e.g. VflScenario::CollectView());
  /// `view.confidences` becomes the table (already post-defense if its
  /// producer applied any).
  explicit OfflineChannel(AdversaryView view, ChannelOptions options = {});

  std::string_view kind() const override { return "offline"; }

 protected:
  core::StatusOr<la::Matrix> Fetch(
      const std::vector<std::size_t>& sample_ids) override;

 private:
  la::Matrix table_;
};

}  // namespace vfl::fed

#endif  // VFLFIA_FED_QUERY_CHANNEL_H_
