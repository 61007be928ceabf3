#include "fed/query_channel.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace vfl::fed {

namespace {

/// Copies row `from_row` of `from` into row `to_row` of `to` (equal widths).
void CopyRow(const la::Matrix& from, std::size_t from_row, la::Matrix* to,
             std::size_t to_row) {
  const double* src = from.RowPtr(from_row);
  std::copy(src, src + from.cols(), to->RowPtr(to_row));
}

}  // namespace

QueryChannel::QueryChannel(FeatureSplit split, la::Matrix x_adv,
                           std::size_t num_classes,
                           const models::Model* model, ChannelOptions options)
    : split_(std::move(split)),
      x_adv_(std::move(x_adv)),
      num_classes_(num_classes),
      model_(model),
      options_(std::move(options)) {
  CHECK_GT(num_classes_, 0u);
  CHECK_EQ(x_adv_.cols(), split_.num_adv_features());
}

void QueryChannel::EnsureRegistered() {
  if (registered_) return;
  registered_ = true;
  obs::MetricsRegistry& registry = obs::RegistryOr(options_.metrics);
  const std::string prefix = "channel." + std::string(kind()) + ".";
  registrations_.push_back(registry.RegisterCounter(
      prefix + "protocol_queries", "queries", &protocol_queries_));
  registrations_.push_back(registry.RegisterCounter(
      prefix + "notebook_hits", "queries", &notebook_hits_));
  registrations_.push_back(registry.RegisterCounter(
      prefix + "queries_denied", "queries", &queries_denied_));
}

ChannelStats QueryChannel::stats() const {
  ChannelStats stats;
  stats.protocol_queries = protocol_queries_.Value();
  stats.notebook_hits = notebook_hits_.Value();
  stats.queries_denied = queries_denied_.Value();
  return stats;
}

core::StatusOr<la::Matrix> QueryChannel::Query(
    const std::vector<std::size_t>& sample_ids) {
  EnsureRegistered();
  const std::size_t n = num_samples();
  for (const std::size_t id : sample_ids) {
    if (id >= n) {
      return core::Status::OutOfRange(
          "sample id " + std::to_string(id) + " >= " + std::to_string(n) +
          " aligned samples on channel '" + std::string(kind()) + "'");
    }
  }
  if (query_observer_) query_observer_(sample_ids);

  // Which ids must actually go to the protocol: in accumulate mode the
  // notebook covers repeats, so only unseen ids (ascending, deduplicated)
  // are fetched; otherwise every requested row is fetched in request order,
  // straight from `sample_ids`.
  std::vector<std::size_t> unseen;
  if (options_.accumulate) {
    if (observed_.empty()) {
      observed_.assign(n, false);
      notebook_ = la::Matrix(n, num_classes());
    }
    unseen = sample_ids;
    std::sort(unseen.begin(), unseen.end());
    unseen.erase(std::unique(unseen.begin(), unseen.end()), unseen.end());
    unseen.erase(std::remove_if(unseen.begin(), unseen.end(),
                                [this](std::size_t id) {
                                  return observed_[id];
                                }),
                 unseen.end());
  }
  const std::vector<std::size_t>& missing =
      options_.accumulate ? unseen : sample_ids;

  la::Matrix fetched;  // post-pipeline rows of `missing`
  if (!missing.empty()) {
    // All-or-nothing admission: a request the budget cannot cover reveals
    // nothing, so callers never observe silently truncated results.
    // Summing the counter's shards costs; only a budget needs it.
    const std::uint64_t issued =
        options_.query_budget == 0 ? 0 : protocol_queries_.Value();
    if (options_.query_budget != 0 &&
        issued + missing.size() > options_.query_budget) {
      queries_denied_.Add(missing.size());
      return core::Status::ResourceExhausted(
          "query budget exhausted on channel '" + std::string(kind()) +
          "': " + std::to_string(issued) + " of " +
          std::to_string(options_.query_budget) +
          " protocol queries already issued, " +
          std::to_string(missing.size()) + " more requested");
    }
    core::StatusOr<la::Matrix> fetch_result = Fetch(missing);
    if (!fetch_result.ok()) {
      // Backend denials (e.g. the server-side auditor) count like the
      // channel's own, keeping stats comparable across kinds.
      if (fetch_result.status().code() ==
          core::StatusCode::kResourceExhausted) {
        queries_denied_.Add(missing.size());
      }
      return fetch_result.status();
    }
    fetched = *std::move(fetch_result);
    CHECK_EQ(fetched.rows(), missing.size());
    CHECK_EQ(fetched.cols(), num_classes());
    protocol_queries_.Add(missing.size());

    // The reveal point: the defense pipeline degrades each vector exactly
    // once, in ascending sample-id order (accumulate mode fetches ascending
    // ids), so stateful stages yield the same stream on every channel kind.
    if (!options_.pipeline.empty()) {
      for (std::size_t i = 0; i < missing.size(); ++i) {
        fetched.SetRow(i, options_.pipeline.Apply(fetched.Row(i)));
      }
    }
    if (options_.accumulate) {
      for (std::size_t i = 0; i < missing.size(); ++i) {
        CopyRow(fetched, i, &notebook_, missing[i]);
        observed_[missing[i]] = true;
      }
    }
  }

  if (!options_.accumulate) return fetched;
  notebook_hits_.Add(sample_ids.size() - missing.size());
  la::Matrix out(sample_ids.size(), num_classes());
  for (std::size_t r = 0; r < sample_ids.size(); ++r) {
    CopyRow(notebook_, sample_ids[r], &out, r);
  }
  return out;
}

core::StatusOr<la::Matrix> QueryChannel::QueryAll() {
  std::vector<std::size_t> ids(num_samples());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return Query(ids);
}

core::StatusOr<AdversaryView> QueryChannel::CollectView() {
  VFL_ASSIGN_OR_RETURN(la::Matrix confidences, QueryAll());
  AdversaryView view;
  view.x_adv = x_adv_;
  view.confidences = std::move(confidences);
  view.model = model_;
  view.split = split_;
  return view;
}

// --- OfflineChannel ---------------------------------------------------------

OfflineChannel::OfflineChannel(AdversaryView view, ChannelOptions options)
    : QueryChannel(view.split, std::move(view.x_adv),
                   view.confidences.cols(), view.model, std::move(options)),
      table_(std::move(view.confidences)) {
  CHECK_EQ(table_.rows(), num_samples());
}

core::StatusOr<la::Matrix> OfflineChannel::Fetch(
    const std::vector<std::size_t>& sample_ids) {
  la::Matrix out;
  table_.GatherRowsInto(sample_ids, &out);
  return out;
}

}  // namespace vfl::fed
