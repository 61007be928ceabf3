// net_open: an open-loop schedule over loopback TCP against net::NetServer.
// One poll-driven generator thread sends on 4 connections at a fixed rate;
// 90% of requests carry 1 sample id and 10% carry 64, drawn from a seeded
// Zipf distribution over the sample ids, against MLP on `synthetic1` with a
// result cache smaller than the id space and a rounding (d=3) output
// defense. Every request is timed from the moment it was due, so a stall
// also charges the requests queued behind it.
//
// Phases: a low fixed rate and a high fixed rate. The traced run repeats the
// low rate with a CapturingTraceSink on the server, reading the per-stage
// times of every 1-row request, and then climbs a fixed rate ladder: its
// highest step meeting the latency limit (p99 <= 1 ms, failures count as
// misses) without a growing backlog is net_max_rps, a per-layer metric
// because it is too unsteady on a shared VM to carry a regression bound.
#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench.h"
#include "core/rng.h"
#include "defense/rounding.h"
#include "exp/experiment.h"
#include "exp/model_registry.h"
#include "exp/workload.h"
#include "fed/scenario.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/adversary_client.h"

namespace vflbench {

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kWideRows = 64;
constexpr double kWideShare = 0.10;
constexpr double kZipfExponent = 1.1;
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kLowRate = 4000.0;
constexpr double kHighRate = 16000.0;
/// Fixed rate ladder: 2000 req/s growing 8% per step, up to ~140K req/s.
constexpr std::size_t kLadderSteps = 56;
double LadderRate(std::size_t step) {
  return 2000.0 * std::pow(1.08, static_cast<double>(step));
}

struct Request {
  std::uint64_t due_ns = 0;  // offset from the step start
  std::uint64_t request_id = 0;
  std::vector<std::size_t> ids;
  std::string frame;
};

/// One fixed-rate step's outcome. Latencies are from the due time; a failed
/// request counts as an infinite latency (it misses any limit).
struct StepResult {
  std::vector<double> latency_us;
  std::vector<double> latency_1row_us;
  std::vector<double> lag_us;
  std::size_t rows_1 = 0;
  std::size_t rows_64 = 0;
  double achieved_rps = 0.0;
  /// Time from the last due instant to the last response.
  double drain_us = 0.0;
  std::size_t mismatches = 0;
};

struct Connection {
  vfl::net::Socket socket;
  std::uint64_t client_id = 0;
  std::deque<std::size_t> inflight;  // request indices, in send order
};

/// Seeded Zipf sampler over [0, n) with a seeded id permutation, so the hot
/// ids differ per seed.
class ZipfIds {
 public:
  ZipfIds(std::size_t n, vfl::core::Rng& rng) : ids_(rng.Permutation(n)) {
    double total = 0.0;
    cdf_.reserve(n);
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Draw(vfl::core::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform());
    return ids_[std::min<std::size_t>(it - cdf_.begin(), ids_.size() - 1)];
  }

 private:
  std::vector<std::size_t> ids_;
  std::vector<double> cdf_;
};

std::vector<Request> MakeSchedule(double rate, double seconds,
                                  std::uint64_t client_id, const ZipfIds& zipf,
                                  vfl::core::Rng& rng,
                                  std::uint64_t* next_request_id) {
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  std::vector<Request> schedule(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request& r = schedule[i];
    r.due_ns = static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / rate);
    const std::size_t rows = rng.Bernoulli(kWideShare) ? kWideRows : 1;
    vfl::net::PredictRequest predict;
    predict.request_id = r.request_id = (*next_request_id)++;
    predict.client_id = client_id;
    for (std::size_t k = 0; k < rows; ++k) {
      r.ids.push_back(zipf.Draw(rng));
      predict.sample_ids.push_back(r.ids.back());
    }
    r.frame = vfl::net::EncodePredict(predict);
  }
  return schedule;
}

/// Sends `schedule` open loop over `conns` (least-loaded connection first)
/// and checks every response against `reference` bit for bit.
StepResult RunStep(std::vector<Connection>& conns,
                   const std::vector<Request>& schedule,
                   const vfl::la::Matrix& reference, Tally* tally) {
  // The default 50 us timer slack would show up as generator lag; only this
  // thread changes it, the server's threads already exist and keep theirs.
  const int slack_ns = ::prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL);
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  StepResult step;
  step.latency_us.reserve(schedule.size());
  step.lag_us.reserve(schedule.size());
  std::vector<pollfd> fds(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    fds[c].fd = conns[c].socket.fd();
    fds[c].events = POLLIN;
  }
  const double failed = std::numeric_limits<double>::infinity();
  const std::uint64_t start = vfl::obs::NowNanos() + 1000000;  // 1 ms lead
  const std::uint64_t last_due = start + schedule.back().due_ns;
  const std::uint64_t give_up = last_due + 2000000000ull;
  std::size_t next = 0;
  std::size_t done = 0;
  std::uint64_t last_response = start;

  const auto fail = [&](std::size_t index, const vfl::core::Status& status) {
    tally->Fail(status);
    step.latency_us.push_back(failed);
    if (schedule[index].ids.size() == 1) step.latency_1row_us.push_back(failed);
    ++done;
  };

  while (done < schedule.size()) {
    std::uint64_t now = vfl::obs::NowNanos();
    while (next < schedule.size() && start + schedule[next].due_ns <= now) {
      Connection* conn = &conns[0];
      for (Connection& c : conns) {
        if (c.inflight.size() < conn->inflight.size()) conn = &c;
      }
      const vfl::core::Status sent = conn->socket.SendAll(schedule[next].frame);
      now = vfl::obs::NowNanos();
      step.lag_us.push_back(
          static_cast<double>(now - (start + schedule[next].due_ns)) * 1e-3);
      if (sent.ok()) {
        conn->inflight.push_back(next);
      } else {
        fail(next, sent);
      }
      ++next;
    }
    if (now > give_up) {
      for (Connection& c : conns) {
        for (const std::size_t index : c.inflight) {
          fail(index, vfl::core::Status::DeadlineExceeded("no response"));
        }
        c.inflight.clear();
      }
      for (; next < schedule.size(); ++next) {
        fail(next, vfl::core::Status::DeadlineExceeded("never sent"));
      }
      break;
    }
    // Sleep until a reply arrives or the next request is due.
    const std::uint64_t wake =
        next < schedule.size() ? start + schedule[next].due_ns : now + 1000000;
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000ull),
                           static_cast<long>(wait_ns % 1000000000ull)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = conns[c];
      vfl::core::StatusOr<std::vector<std::uint8_t>> frame =
          conn.socket.RecvFrame(vfl::net::kDefaultMaxFrameBytes);
      if (conn.inflight.empty()) continue;
      const std::size_t index = conn.inflight.front();
      conn.inflight.pop_front();
      if (!frame.ok()) {
        fail(index, frame.status());
        continue;
      }
      vfl::core::StatusOr<vfl::net::Message> message =
          vfl::net::DecodeFrame(frame->data(), frame->size());
      const std::uint64_t received = vfl::obs::NowNanos();
      if (!message.ok()) {
        fail(index, message.status());
        continue;
      }
      if (const auto* status =
              std::get_if<vfl::net::StatusResponse>(&*message)) {
        fail(index, status->status);
        continue;
      }
      const auto* scores = std::get_if<vfl::net::ScoresResponse>(&*message);
      const Request& request = schedule[index];
      if (scores == nullptr || scores->request_id != request.request_id ||
          scores->scores.rows() != request.ids.size() ||
          scores->scores.cols() != reference.cols()) {
        fail(index, vfl::core::Status::Internal("malformed scores response"));
        continue;
      }
      for (std::size_t r = 0; r < request.ids.size(); ++r) {
        if (std::memcmp(scores->scores.RowPtr(r),
                        reference.RowPtr(request.ids[r]),
                        reference.cols() * sizeof(double)) != 0) {
          ++step.mismatches;
        }
      }
      tally->Ok();
      const double us =
          static_cast<double>(received - (start + request.due_ns)) * 1e-3;
      step.latency_us.push_back(us);
      if (request.ids.size() == 1) {
        step.latency_1row_us.push_back(us);
        ++step.rows_1;
      } else {
        ++step.rows_64;
      }
      last_response = std::max(last_response, received);
      ++done;
    }
  }
  ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack_ns), 0UL, 0UL,
          0UL);
  step.achieved_rps = static_cast<double>(schedule.size()) /
                      (static_cast<double>(last_response - start) * 1e-9);
  step.drain_us = last_response > last_due
                      ? static_cast<double>(last_response - last_due) * 1e-3
                      : 0.0;
  return step;
}

bool StepMeetsLimit(const StepResult& step) {
  return Percentile(step.latency_us, 0.99) <= kLatencyLimitUs &&
         step.drain_us <= kLatencyLimitUs;
}

/// Opens the generator's connections and says hello on each.
vfl::core::StatusOr<std::vector<Connection>> Connect(std::uint16_t port) {
  std::vector<Connection> conns(kConnections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    VFL_ASSIGN_OR_RETURN(conns[c].socket, vfl::net::ConnectLoopback(port));
    vfl::net::HelloRequest hello;
    hello.request_id = c;
    hello.client_name = "open-loop-" + std::to_string(c);
    VFL_RETURN_IF_ERROR(conns[c].socket.SendAll(vfl::net::EncodeHello(hello)));
    VFL_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> frame,
        conns[c].socket.RecvFrame(vfl::net::kDefaultMaxFrameBytes));
    VFL_ASSIGN_OR_RETURN(const vfl::net::Message message,
                         vfl::net::DecodeFrame(frame.data(), frame.size()));
    const auto* ok = std::get_if<vfl::net::HelloResponse>(&message);
    if (ok == nullptr) {
      return vfl::core::Status::Internal("hello answered without HelloOk");
    }
    conns[c].client_id = ok->client_id;
  }
  return conns;
}

/// Reads stage `name` of a trace line's "stages_ns" object; 0 when absent.
double StageUs(const std::string& line, const std::string& name) {
  const std::size_t stages = line.find("\"stages_ns\":{");
  if (stages == std::string::npos) return 0.0;
  const std::size_t end = line.find('}', stages);
  const std::string key = "\"" + name + "\":";
  const std::size_t at = line.find(key, stages);
  if (at == std::string::npos || at > end) return 0.0;
  return std::strtod(line.c_str() + at + key.size(), nullptr) * 1e-3;
}

/// Mean time of one wire codec call, for the 1-row and the 64-row shape.
struct CodecCosts {
  double encode_1 = 0.0, encode_64 = 0.0, decode_1 = 0.0, decode_64 = 0.0;
};

CodecCosts MeasureCodec(const vfl::la::Matrix& reference) {
  CodecCosts costs;
  for (const std::size_t rows : {std::size_t{1}, kWideRows}) {
    vfl::net::PredictRequest predict;
    vfl::net::ScoresResponse scores;
    scores.scores = vfl::la::Matrix(rows, reference.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      predict.sample_ids.push_back(r % reference.rows());
      scores.scores.SetRow(r, reference.Row(r % reference.rows()));
    }
    const std::string frame = vfl::net::EncodeScores(scores);
    const auto* payload =
        reinterpret_cast<const std::uint8_t*>(frame.data()) +
        vfl::net::kLengthPrefixBytes;
    const std::size_t size = frame.size() - vfl::net::kLengthPrefixBytes;
    const double encode = MicrosPerCall(5, 2000, [&] {
      (void)vfl::net::EncodePredict(predict);
    });
    const double decode = MicrosPerCall(5, 2000, [&] {
      (void)vfl::net::DecodeFrame(payload, size);
    });
    (rows == 1 ? costs.encode_1 : costs.encode_64) = encode;
    (rows == 1 ? costs.decode_1 : costs.decode_64) = decode;
  }
  return costs;
}

}  // namespace

PhaseResult RunNetOpen(const PhaseOptions& options) {
  PhaseResult result;
  result.name = "net_open";
  vfl::exp::ScaleConfig scale;
  if (options.smoke) {
    scale.dataset_samples = 400;
    scale.prediction_samples = 100;
    scale.mlp_epochs = 2;
  }
  const std::uint64_t data_seed = vfl::core::DeriveSeed(options.seed, 21);
  vfl::core::Rng rng(vfl::core::DeriveSeed(options.seed, 22));

  // Set-up: generate `synthetic1`, train the MLP. Repeated in the full phase
  // so setup_s is a median; the last repetition is served.
  std::vector<double> setup_s, prepare_s, train_s;
  vfl::exp::PreparedData data;
  vfl::exp::ModelHandle model;
  for (std::size_t rep = 0; rep < (options.full ? 5u : 1u); ++rep) {
    const std::uint64_t start = vfl::obs::NowNanos();
    vfl::core::StatusOr<vfl::exp::PreparedData> prepared =
        vfl::exp::TryPrepareData("synthetic1", scale, 0.0, data_seed);
    const std::uint64_t generated = vfl::obs::NowNanos();
    if (!prepared.ok()) {
      result.tally.Fail(prepared.status());
      result.checks.push_back({"setup", false, prepared.status().ToString()});
      return result;
    }
    vfl::core::StatusOr<vfl::exp::ModelHandle> trained = vfl::exp::TrainModel(
        "mlp", prepared->train, vfl::exp::ConfigMap(), scale, data_seed);
    if (!trained.ok()) {
      result.tally.Fail(trained.status());
      result.checks.push_back({"setup", false, trained.status().ToString()});
      return result;
    }
    prepare_s.push_back(static_cast<double>(generated - start) * 1e-9);
    train_s.push_back(SecondsSince(generated));
    setup_s.push_back(SecondsSince(start));
    data = std::move(*prepared);
    model = std::move(*trained);
  }

  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::RandomFraction(
      data.train.num_features(), 0.3, rng);
  const vfl::fed::VflScenario scenario =
      vfl::fed::MakeTwoPartyScenario(data.x_pred, split, model.model.get());
  const std::size_t n = data.x_pred.rows();

  // Reference: a synchronous in-process server with the same defense; the
  // wire must return exactly its bits.
  vfl::obs::MetricsRegistry reference_registry;
  vfl::serve::PredictionServerConfig reference_config;
  reference_config.metrics = &reference_registry;
  reference_config.auditor.max_audit_events = 0;
  const std::unique_ptr<vfl::serve::PredictionServer> reference_server =
      vfl::serve::MakeScenarioServer(scenario, reference_config);
  reference_server->AddOutputDefense(
      std::make_unique<vfl::defense::RoundingDefense>(3));
  const vfl::core::StatusOr<vfl::la::Matrix> reference =
      reference_server->PredictAll(reference_server->RegisterClient("ref"));
  if (!reference.ok()) {
    result.tally.Fail(reference.status());
    result.checks.push_back({"reference", false, reference.status().ToString()});
    return result;
  }

  const vfl::exp::ServingSpec spec;
  vfl::obs::MetricsRegistry registry;
  vfl::serve::PredictionServerConfig server_config;
  server_config.num_threads = spec.threads;
  server_config.max_batch_size = kWideRows;
  server_config.max_batch_delay = std::chrono::microseconds(spec.batch_delay_us);
  server_config.cache_capacity = n / 4;  // below the id space
  server_config.auditor.max_audit_events = spec.audit_events;
  server_config.metrics = &registry;
  const std::unique_ptr<vfl::serve::PredictionServer> backend =
      vfl::serve::MakeScenarioServer(scenario, server_config);
  backend->AddOutputDefense(std::make_unique<vfl::defense::RoundingDefense>(3));

  vfl::net::NetServerConfig net_config;
  // One spare handler beyond the load connections, so a stats scrape never
  // waits behind a busy connection.
  net_config.connection_threads = kConnections + 1;
  net_config.metrics = &registry;
  vfl::net::NetServer server(backend.get(), net_config);
  vfl::obs::CapturingTraceSink trace_sink;
  net_config.trace_sink = &trace_sink;
  vfl::net::NetServer traced_server(backend.get(), net_config);
  vfl::core::Status started = server.Start();
  if (started.ok()) started = traced_server.Start();
  vfl::core::StatusOr<std::vector<Connection>> conns =
      started.ok() ? Connect(server.port()) : started;
  vfl::core::StatusOr<std::vector<Connection>> traced_conns =
      conns.ok() ? Connect(traced_server.port()) : conns.status();
  if (!traced_conns.ok()) {
    result.tally.Fail(traced_conns.status());
    result.checks.push_back({"connect", false,
                             traced_conns.status().ToString()});
    return result;
  }

  const ZipfIds zipf(n, rng);
  std::uint64_t request_id = 100;
  // Full phase: --seconds / 10 per unit; with 10 s, 2.5 s at the low rate,
  // 2 s at the high rate and 1 s per ladder step.
  const double scale_time =
      options.smoke ? 0.1 : options.full ? options.seconds / 10.0 : 0.6;
  const auto run = [&](std::vector<Connection>& on, double rate,
                       double seconds) {
    const std::vector<Request> schedule =
        MakeSchedule(rate, seconds, on.front().client_id, zipf, rng,
                     &request_id);
    return RunStep(on, schedule, *reference, &result.tally);
  };

  std::size_t mismatches = 0;
  // Warm-up (cache, threads); its responses are checked like the rest.
  mismatches += run(*conns, kLowRate, 0.2 * scale_time).mismatches;
  const StepResult low = run(*conns, kLowRate, 2.5 * scale_time);
  mismatches += low.mismatches;
  const vfl::obs::MetricsSnapshot before_high = registry.Snapshot();
  const StepResult high = run(*conns, kHighRate, 2.0 * scale_time);
  const vfl::obs::MetricsSnapshot after_high = registry.Snapshot();
  mismatches += high.mismatches;

  const auto report = [&](const char* name, double value, std::size_t n) {
    result.end_to_end[name] = {value, "us"};
    result.notes.push_back(Note(name, value, "us", n));
  };
  const double low_p50 = Percentile(low.latency_us, 0.50);
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.notes.push_back(Note("setup_s", Median(setup_s), "s", setup_s.size()));
  report("net_low_p50_us", low_p50, low.latency_us.size());
  report("net_low_p99_us", WindowedPercentile(low.latency_us, 0.99),
         low.latency_us.size());
  report("net_high_p50_us", Percentile(high.latency_us, 0.50),
         high.latency_us.size());
  report("net_high_p99_us", WindowedPercentile(high.latency_us, 0.99),
         high.latency_us.size());
  result.notes.push_back(Note("whole-window net_low_p99_us",
                              Percentile(low.latency_us, 0.99), "us",
                              low.latency_us.size()));
  result.notes.push_back(Note("whole-window net_high_p99_us",
                              Percentile(high.latency_us, 0.99), "us",
                              high.latency_us.size()));
  result.notes.push_back(Note("gen.lag_p99_us (low rate)",
                              Percentile(low.lag_us, 0.99), "us",
                              low.lag_us.size()));

  MetricSet& layer = result.per_layer;
  layer["data.prepare_s"] = {Median(prepare_s), "s"};
  layer["models.train_s"] = {Median(train_s), "s"};
  if (options.trace) {
    // The same low schedule through the traced front-end.
    const vfl::obs::MetricsSnapshot before_low = registry.Snapshot();
    const StepResult traced = run(*traced_conns, kLowRate, 2.5 * scale_time);
    const vfl::obs::MetricsSnapshot after_low = registry.Snapshot();
    mismatches += traced.mismatches;
    const char* stages[] = {"read",          "decode",  "queue_wait",
                            "model_forward", "defense", "write"};
    std::vector<double> stage_sums(std::size(stages), 0.0);
    std::size_t spans = 0;
    for (const std::string& line : trace_sink.lines()) {
      if (line.find("\"kind\":\"predict\"") == std::string::npos ||
          line.find("\"rows\":1,") == std::string::npos) {
        continue;
      }
      ++spans;
      for (std::size_t s = 0; s < std::size(stages); ++s) {
        stage_sums[s] += StageUs(line, stages[s]);
      }
    }
    for (std::size_t s = 0; s < std::size(stages); ++s) {
      layer[std::string("trace.") + stages[s] + "_us"] = {
          spans == 0 ? 0.0 : stage_sums[s] / static_cast<double>(spans), "us"};
    }
    const CodecCosts codec = MeasureCodec(*reference);
    layer["net.encode_predict_us"] = {codec.encode_1, "us"};
    layer["net.encode_predict_64_us"] = {codec.encode_64, "us"};
    layer["net.decode_scores_us"] = {codec.decode_1, "us"};
    layer["net.decode_scores_64_us"] = {codec.decode_64, "us"};

    // Transport: client latency minus the server's own handling time
    // (net.predict_ns: decode-complete to response written) and the client's
    // codec calls, over the traced low schedule.
    const double wide = static_cast<double>(traced.rows_64) /
                        std::max<double>(1, traced.rows_1 + traced.rows_64);
    const double codec_us = (1 - wide) * (codec.encode_1 + codec.decode_1) +
                            wide * (codec.encode_64 + codec.decode_64);
    const double server_us =
        HistogramDelta(before_low, after_low, "net.predict_ns").Mean() * 1e-3 +
        layer["trace.decode_us"].value;
    layer["net.transport_us"] = {Mean(traced.latency_us) - server_us - codec_us,
                                 "us"};

    // Stage sum for 1-row requests (their spans carry one row's share of
    // every stage), idle socket read excluded.
    double stage_sum = codec.encode_1 + codec.decode_1;
    for (std::size_t s = 1; s < std::size(stages); ++s) {
      stage_sum += layer[std::string("trace.") + stages[s] + "_us"].value;
    }
    const double mean_1row = Mean(traced.latency_1row_us);
    layer["net.stage_sum_us"] = {stage_sum, "us"};
    layer["net.unaccounted_pct"] = {100.0 * (mean_1row - stage_sum) / mean_1row,
                                    "%"};
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  "timed stages %.1f us vs 1-row mean %.1f us over %zu spans "
                  "(tolerance +%.0f%%)",
                  stage_sum, mean_1row, spans, kStageTolerance * 100.0);
    result.checks.push_back(
        {"net_stage_sum",
         spans > 0 && stage_sum <= mean_1row * (1.0 + kStageTolerance),
         detail});

    const double traced_p50 = Percentile(traced.latency_us, 0.50);
    layer["trace_overhead_pct"] = {100.0 * (traced_p50 / low_p50 - 1.0), "%"};
    result.notes.push_back(Note("traced net_low_p50_us", traced_p50, "us",
                                traced.latency_us.size()));

    const vfl::obs::HistogramSnapshot server_predict =
        HistogramDelta(before_high, after_high, "net.predict_ns");
    const vfl::obs::HistogramSnapshot queue_wait =
        HistogramDelta(before_high, after_high, "serve.queue_wait_ns");
    const double hits =
        CounterDelta(before_high, after_high, "serve.cache_hits");
    const double misses =
        CounterDelta(before_high, after_high, "serve.cache_misses");
    layer["net.server_predict_p50_us"] = {
        static_cast<double>(server_predict.Percentile(0.50)) * 1e-3, "us"};
    layer["net.server_predict_p99_us"] = {
        static_cast<double>(server_predict.Percentile(0.99)) * 1e-3, "us"};
    layer["net_open.serve.queue_wait_p50_us"] = {
        static_cast<double>(queue_wait.Percentile(0.50)) * 1e-3, "us"};
    layer["net_open.serve.queue_wait_p99_us"] = {
        static_cast<double>(queue_wait.Percentile(0.99)) * 1e-3, "us"};
    layer["net_open.serve.forward_us"] = {
        HistogramDelta(before_high, after_high, "serve.forward_ns").Mean() *
            1e-3,
        "us"};
    layer["net_open.serve.defense_us"] = {
        HistogramDelta(before_high, after_high, "serve.defense_ns").Mean() *
            1e-3,
        "us"};
    layer["net_open.serve.batch_rows_mean"] = {
        HistogramDelta(before_high, after_high, "serve.batch_rows").Mean(),
        "rows"};
    layer["net_open.serve.cache_hit_ratio"] = {
        hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio"};
    layer["gen.lag_p99_us"] = {Percentile(high.lag_us, 0.99), "us"};
    result.notes.push_back(Note("gen.lag_p99_us (high rate)",
                                Percentile(high.lag_us, 0.99), "us",
                                high.lag_us.size()));
  }

  if (options.trace) {
    // Last, because it saturates every CPU. Binary search over the fixed
    // ladder (throughput is monotone in the offered rate until the limit is
    // missed). A step meets the limit when at least three of its five
    // windows do; a step that misses is tried once more, so one burst of
    // stolen CPU time cannot send the search down.
    const auto meets = [&](double rate, double* achieved_rps) {
      std::vector<double> achieved;
      for (std::size_t w = 0; w < 5; ++w) {
        const StepResult window = run(*conns, rate, 0.2 * scale_time);
        mismatches += window.mismatches;
        const bool ok = StepMeetsLimit(window);
        if (ok) achieved.push_back(window.achieved_rps);
        char line[160];
        std::snprintf(line, sizeof(line),
                      "ladder %.0f req/s window %zu: p99 %.1f us drain %.1f us "
                      "%s (n=%zu)",
                      rate, w, Percentile(window.latency_us, 0.99),
                      window.drain_us, ok ? "meets" : "misses",
                      window.latency_us.size());
        result.notes.push_back(line);
      }
      *achieved_rps = Mean(achieved);
      return achieved.size() >= 3;
    };
    std::size_t lo = 0;  // ladder steps known to meet: [0, lo)
    std::size_t hi = kLadderSteps;
    double max_rps = 0.0;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      double achieved = 0.0;
      if (meets(LadderRate(mid), &achieved) ||
          meets(LadderRate(mid), &achieved)) {
        lo = mid + 1;
        max_rps = achieved;
      } else {
        hi = mid;
      }
    }
    result.per_layer["net_max_rps"] = {max_rps, "1/s"};
    result.notes.push_back(Note("net_max_rps", max_rps, "1/s", 5));
  }

  // Failure accounting as the server reports it, over the wire.
  const vfl::core::StatusOr<vfl::obs::MetricsSnapshot> scraped =
      vfl::net::ScrapeStats(server.port());
  if (scraped.ok()) {
    const double failed = static_cast<double>(
        scraped->ValueOf("net.requests_failed"));
    const double rejects = static_cast<double>(
        scraped->ValueOf("net.decode_rejects"));
    layer["net.requests_failed"] = {failed, "count"};
    layer["net.decode_rejects"] = {rejects, "count"};
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "net.requests_failed=%.0f net.decode_rejects=%.0f", failed,
                  rejects);
    result.checks.push_back(
        {"net_scrape_clean", failed == 0 && rejects == 0, detail});
  } else {
    result.checks.push_back({"net_scrape", false, scraped.status().ToString()});
  }
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "%zu score rows differ from in-process PredictBatch",
                mismatches);
  result.checks.push_back({"net_bit_equal", mismatches == 0, detail});

  conns->clear();
  traced_conns->clear();
  traced_server.Stop();
  server.Stop();
  return result;
}

}  // namespace vflbench
