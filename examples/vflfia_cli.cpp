// Command-line driver: run any registered (dataset, model, attack, defense)
// combination without writing code — a thin front-end over the src/exp
// registries and ExperimentRunner. New scenarios need zero new code: any
// combo of registered components is one command line away.
//
// Usage:
//   vflfia_cli [--dataset=bank|credit|drive|news|synthetic1|synthetic2]
//              [--csv=path.csv]             (attack your own data; label = last column)
//              [--model=KIND[:k=v,...]]     (lr|mlp|nn|dt|rf|gbdt; default lr)
//              [--attack=KIND[:k=v,...]]    (default picked per model; repeatable)
//              [--defense=KIND[:k=v,...]]   (rounding|noise|dropout|preprocess|none;
//                                            repeatable, stacks)
//              [--defense-chain=SPEC]       (one-flag stack, short aliases:
//                                            round:d=2,noise:sigma=0.1)
//              [--channel=KIND[:k=v,...]]   (offline|service|server|net - how
//                                            the adversary obtains predictions;
//                                            repeatable to grid over kinds.
//                                            net speaks the framed TCP wire
//                                            protocol against a per-trial
//                                            loopback server, e.g.
//                                            --channel=net:port=0,clients=8.
//                                            default: server, or offline when
//                                            --serve-threads=0)
//              [--sim[=PROFILE[:k=v,...]]]  (traffic-simulation profile grid:
//                                            poisson|bursty|diurnal; bare
//                                            --sim means poisson. Repeatable.
//                                            With no --attack the detect
//                                            pseudo-attack is picked, which
//                                            replays the model's natural
//                                            attack inside simulated benign
//                                            traffic and scores the auditor)
//              [--sim-csv=PATH]             (append per-trial detection rows
//                                            - precision/recall/fpr/ttd - as
//                                            CSV; requires a detect attack)
//              [--metric=mse|cbr]           (default mse; pra always reports cbr)
//              [--target-fraction=0.3]      (fraction of columns held by the target)
//              [--samples=2000]             (generated dataset size)
//              [--trials=1] [--seed=42]
//              [--threads=1]                (parallel {fraction x trial} grid workers;
//                                            results identical for any value)
//              [--format=table|csv|jsonl]   (default table)
//              [--serve-threads=4]          (helper workers per server; 0 = none,
//                                            callers run every batch)
//              [--serve-batch=16]           (rows per fused forward; 0 = no cap)
//              [--clients=4]                (server channel: concurrent
//                                            submitter threads per fetch)
//              [--cache=1024]               (result-cache entries; 0 disables)
//              [--query-budget=0]           (adversary protocol-query budget;
//                                            0 = unlimited)
//              [--audit-log=4096]           (query-auditor audit-event ring
//                                            buffer cap; 0 disables)
//              [--metrics[=text|json]]      (dump the process metrics registry
//                                            to stderr after the run; stdout
//                                            stays pure result rows)
//              [--trace=PATH]               (net channel: append one JSONL
//                                            trace line per wire request,
//                                            with per-stage timings)
//              [--resume=DIR]               (checkpoint completed grid cells
//                                            to DIR and skip cells finished
//                                            by a previous run; the final
//                                            output is byte-identical to an
//                                            uninterrupted run)
//              [--audit-wal=DIR]            (persist each server/net trial's
//                                            audit-event ring to a per-trial
//                                            write-ahead log under DIR)
//              [--list]                     (print registered components + config keys)
//              [--help]
//
// Examples:
//   vflfia_cli --model=lr --attack=esa --defense=rounding:digits=2
//   vflfia_cli --channel=server --query-budget=400 --defense-chain=round:d=2
//   vflfia_cli --channel=net:port=0,clients=8 --model=lr --attack=esa
//   vflfia_cli --model=rf --attack=grna:epochs=30 --dataset=credit
//   vflfia_cli --model=dt --attack=pra --attack=pra_random
//
// Every attack obtains its predictions through a fed::QueryChannel — by
// default realistic traffic against the concurrent serve::PredictionServer —
// with the defense chain applied to each returned confidence vector and the
// server's per-client audit log printed afterwards. A --query-budget smaller
// than the prediction set demonstrates the countermeasure: the attack's
// accumulation is denied with a typed resource_exhausted error on every
// channel kind.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"
#include "defense/preprocess.h"
#include "exp/alert_spec.h"
#include "exp/attack_registry.h"
#include "exp/channel_registry.h"
#include "exp/config_map.h"
#include "exp/defense_registry.h"
#include "exp/experiment.h"
#include "exp/model_registry.h"
#include "exp/detect_attack.h"
#include "exp/result_sink.h"
#include "exp/runner.h"
#include "exp/sim_registry.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "models/model.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/alert.h"
#include "obs/metrics.h"
#include "obs/snapshot_io.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/adversary_client.h"
#include "serve/query_auditor.h"

namespace {

using vfl::core::Status;
using vfl::core::StatusOr;

struct ComponentArg {
  std::string kind;
  vfl::exp::ConfigMap config;
};

struct Options {
  std::string dataset = "bank";
  ComponentArg model{"lr", {}};
  std::vector<ComponentArg> attacks;
  std::vector<ComponentArg> defenses;
  /// Channel kinds to grid over; empty = pick from --serve-threads.
  std::vector<std::string> channels;
  /// Traffic-simulation profiles to grid over; empty = no sims axis.
  std::vector<std::string> sims;
  /// Per-trial detection CSV destination; empty disables.
  std::string sim_csv_path;
  std::string defense_chain;
  std::string metric = "mse";
  std::string format = "table";
  double target_fraction = 0.3;
  std::size_t samples = 2000;
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  std::size_t serve_threads = 4;
  std::size_t serve_batch = 16;
  std::size_t clients = 4;
  std::size_t cache_entries = 1024;
  std::uint64_t query_budget = 0;
  std::size_t audit_events = 4096;
  /// "", "text", or "json" — non-empty dumps the metrics registry to stderr.
  std::string metrics_format;
  /// JSONL request-trace destination for the net channel; empty disables.
  std::string trace_path;
  /// Grid-checkpoint directory (--resume); empty disables checkpointing.
  std::string resume_dir;
  /// Audit-trail WAL root for server/net trials; empty disables persistence.
  std::string audit_wal_dir;
  /// --watch live dashboard mode (replaces the experiment run).
  bool watch = false;
  double watch_period_s = 2.0;
  /// 0 = self-host a demo serving stack; else scrape an existing server.
  std::uint16_t watch_port = 0;
  /// Dashboard refreshes before exiting; 0 = run until interrupted.
  std::size_t watch_ticks = 0;
  /// Alert-rule spec (exp::ParseAlertRules grammar); empty = no rules.
  std::string alerts_spec;
  bool list = false;
  bool help = false;
};

/// Parses "KIND" or "KIND:k=v,k=v" into a component reference.
StatusOr<ComponentArg> ParseComponent(std::string_view text) {
  ComponentArg component;
  const std::size_t colon = text.find(':');
  component.kind = std::string(text.substr(0, colon));
  if (component.kind.empty()) {
    return Status::InvalidArgument("empty component name in '" +
                                   std::string(text) + "'");
  }
  if (colon != std::string_view::npos) {
    VFL_ASSIGN_OR_RETURN(component.config,
                         vfl::exp::ConfigMap::Parse(text.substr(colon + 1)));
  }
  return component;
}

bool MatchFlag(const char* arg, const char* name, std::string_view* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

StatusOr<std::size_t> ParseSizeFlag(std::string_view value,
                                    const char* flag) {
  double parsed = 0.0;
  if (!vfl::core::ParseDouble(value, &parsed) || parsed < 0 ||
      parsed != static_cast<double>(static_cast<std::size_t>(parsed))) {
    return Status::InvalidArgument(std::string(flag) +
                                   " expects a non-negative integer, got '" +
                                   std::string(value) + "'");
  }
  return static_cast<std::size_t>(parsed);
}

StatusOr<Options> ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string_view value;
    if (std::strcmp(argv[i], "--list") == 0) {
      options.list = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      options.help = true;
    } else if (MatchFlag(argv[i], "--dataset=", &value)) {
      options.dataset = std::string(value);
    } else if (MatchFlag(argv[i], "--csv=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument("--csv expects a file path");
      }
      options.dataset = "csv:" + std::string(value);
    } else if (MatchFlag(argv[i], "--model=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.model, ParseComponent(value));
    } else if (MatchFlag(argv[i], "--attack=", &value)) {
      VFL_ASSIGN_OR_RETURN(ComponentArg attack, ParseComponent(value));
      options.attacks.push_back(std::move(attack));
    } else if (MatchFlag(argv[i], "--defense=", &value)) {
      VFL_ASSIGN_OR_RETURN(ComponentArg defense, ParseComponent(value));
      options.defenses.push_back(std::move(defense));
    } else if (MatchFlag(argv[i], "--defense-chain=", &value)) {
      options.defense_chain = std::string(value);
      if (options.defense_chain.empty()) {
        return Status::InvalidArgument(
            "--defense-chain expects e.g. round:d=2,noise:sigma=0.1");
      }
    } else if (MatchFlag(argv[i], "--channel=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument(
            "--channel must be offline, service, server, or net[:k=v,...]");
      }
      options.channels.emplace_back(value);
    } else if (std::strcmp(argv[i], "--sim") == 0) {
      options.sims.emplace_back("poisson");
    } else if (MatchFlag(argv[i], "--sim=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument(
            "--sim must be poisson, bursty, or diurnal[:k=v,...]");
      }
      options.sims.emplace_back(value);
    } else if (MatchFlag(argv[i], "--sim-csv=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument("--sim-csv expects a file path");
      }
      options.sim_csv_path = std::string(value);
    } else if (MatchFlag(argv[i], "--metric=", &value)) {
      options.metric = std::string(value);
      if (options.metric != "mse" && options.metric != "cbr") {
        return Status::InvalidArgument("--metric must be mse or cbr");
      }
    } else if (MatchFlag(argv[i], "--format=", &value)) {
      options.format = std::string(value);
      if (options.format != "table" && options.format != "csv" &&
          options.format != "jsonl") {
        return Status::InvalidArgument("--format must be table, csv, or jsonl");
      }
    } else if (MatchFlag(argv[i], "--target-fraction=", &value)) {
      double fraction = 0.0;
      if (!vfl::core::ParseDouble(value, &fraction) || fraction <= 0.0 ||
          fraction >= 1.0) {
        return Status::InvalidArgument(
            "--target-fraction expects a number in (0, 1)");
      }
      options.target_fraction = fraction;
    } else if (MatchFlag(argv[i], "--samples=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.samples, ParseSizeFlag(value, "--samples"));
    } else if (MatchFlag(argv[i], "--trials=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.trials, ParseSizeFlag(value, "--trials"));
    } else if (MatchFlag(argv[i], "--seed=", &value)) {
      VFL_ASSIGN_OR_RETURN(const std::size_t seed,
                           ParseSizeFlag(value, "--seed"));
      options.seed = seed;
    } else if (MatchFlag(argv[i], "--threads=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.threads, ParseSizeFlag(value, "--threads"));
    } else if (MatchFlag(argv[i], "--serve-threads=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.serve_threads,
                           ParseSizeFlag(value, "--serve-threads"));
    } else if (MatchFlag(argv[i], "--serve-batch=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.serve_batch,
                           ParseSizeFlag(value, "--serve-batch"));
    } else if (MatchFlag(argv[i], "--clients=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.clients, ParseSizeFlag(value, "--clients"));
    } else if (MatchFlag(argv[i], "--cache=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.cache_entries,
                           ParseSizeFlag(value, "--cache"));
    } else if (MatchFlag(argv[i], "--query-budget=", &value)) {
      VFL_ASSIGN_OR_RETURN(const std::size_t budget,
                           ParseSizeFlag(value, "--query-budget"));
      options.query_budget = budget;
    } else if (MatchFlag(argv[i], "--audit-log=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.audit_events,
                           ParseSizeFlag(value, "--audit-log"));
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      options.metrics_format = "text";
    } else if (MatchFlag(argv[i], "--metrics=", &value)) {
      options.metrics_format = std::string(value);
      if (options.metrics_format != "text" &&
          options.metrics_format != "json") {
        return Status::InvalidArgument("--metrics must be text or json");
      }
    } else if (MatchFlag(argv[i], "--trace=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument("--trace expects a file path");
      }
      options.trace_path = std::string(value);
    } else if (MatchFlag(argv[i], "--resume=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument("--resume expects a directory path");
      }
      options.resume_dir = std::string(value);
    } else if (MatchFlag(argv[i], "--audit-wal=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument("--audit-wal expects a directory path");
      }
      options.audit_wal_dir = std::string(value);
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      options.watch = true;
    } else if (MatchFlag(argv[i], "--watch=", &value)) {
      double period = 0.0;
      if (!vfl::core::ParseDouble(value, &period) || period <= 0.0) {
        return Status::InvalidArgument(
            "--watch expects a positive refresh period in seconds");
      }
      options.watch = true;
      options.watch_period_s = period;
    } else if (MatchFlag(argv[i], "--watch-port=", &value)) {
      VFL_ASSIGN_OR_RETURN(const std::size_t port,
                           ParseSizeFlag(value, "--watch-port"));
      if (port > 65535) {
        return Status::InvalidArgument("--watch-port must be <= 65535");
      }
      options.watch_port = static_cast<std::uint16_t>(port);
    } else if (MatchFlag(argv[i], "--watch-ticks=", &value)) {
      VFL_ASSIGN_OR_RETURN(options.watch_ticks,
                           ParseSizeFlag(value, "--watch-ticks"));
    } else if (MatchFlag(argv[i], "--alerts=", &value)) {
      if (value.empty()) {
        return Status::InvalidArgument(
            "--alerts expects e.g. threshold:metric=net.predict_ns,"
            "p=0.99,above=5000000,for=3");
      }
      options.alerts_spec = std::string(value);
    } else {
      return Status::InvalidArgument(
          std::string("unknown flag: ") + argv[i] + " (try --help)");
    }
  }
  if (options.trials == 0) {
    return Status::InvalidArgument("--trials must be >= 1");
  }
  if (!options.watch &&
      (options.watch_port != 0 || options.watch_ticks != 0 ||
       !options.alerts_spec.empty())) {
    return Status::InvalidArgument(
        "--watch-port, --watch-ticks, and --alerts need --watch");
  }
  return options;
}

void PrintHelp() {
  std::printf(
      "usage: vflfia_cli [--dataset=NAME|--csv=PATH] "
      "[--model=KIND[:k=v,...]]\n"
      "                  [--attack=KIND[:k=v,...]]... "
      "[--defense=KIND[:k=v,...]]...\n"
      "                  [--defense-chain=round:d=2,noise:sigma=0.1]\n"
      "                  [--channel=offline|service|server|net[:k=v,...]]...\n"
      "                  [--sim[=poisson|bursty|diurnal[:k=v,...]]]... "
      "[--sim-csv=PATH]\n"
      "                  [--metric=mse|cbr] [--target-fraction=F] "
      "[--samples=N]\n"
      "                  [--trials=N] [--seed=S] [--threads=T]\n"
      "                  [--format=table|csv|jsonl]\n"
      "                  [--serve-threads=T] [--serve-batch=B] [--clients=C]\n"
      "                  [--cache=E] [--query-budget=Q] [--audit-log=N]\n"
      "                  [--metrics[=text|json]] [--trace=PATH]\n"
      "                  [--resume=DIR] [--audit-wal=DIR]\n"
      "                  [--watch[=PERIOD_S]] [--watch-port=PORT] "
      "[--watch-ticks=N]\n"
      "                  [--alerts=RULESPEC]\n"
      "                  [--list] [--help]\n"
      "\n"
      "--watch renders a live telemetry dashboard (QPS, latency percentiles,\n"
      "cache hit ratio, auditor flags, ASCII sparklines) by scraping a\n"
      "NetServer's time-series ring over the wire every PERIOD_S seconds\n"
      "(default 2). --watch-port=0 (the default) self-hosts a demo serving\n"
      "stack with synthetic load; point it at any live server otherwise.\n"
      "--watch-ticks bounds the refresh count (0 = until interrupted).\n"
      "--alerts evaluates threshold/rate/SLO-burn rules against each scraped\n"
      "frame and reports pending/firing state per rule, e.g.\n"
      "  --alerts='threshold:metric=net.predict_ns,p=0.99,above=5000000,"
      "for=3'\n"
      "\n"
      "--resume=DIR journals every completed {fraction x trial} cell to a\n"
      "crash-recoverable checkpoint in DIR and skips cells a previous run\n"
      "already finished; the final output is byte-identical to an\n"
      "uninterrupted run. --audit-wal=DIR persists each server/net trial's\n"
      "audit-event ring to a per-trial write-ahead log under DIR.\n"
      "\n"
      "Any registered (model, attack, defense, channel) combination runs end\n"
      "to end; --list shows the registries with their config keys. Examples:\n"
      "  vflfia_cli --model=lr --attack=esa --defense=rounding:digits=2\n"
      "  vflfia_cli --channel=server --query-budget=400 "
      "--defense-chain=round:d=2\n"
      "  vflfia_cli --channel=net:port=0,clients=8 --model=lr --attack=esa\n"
      "  vflfia_cli --model=rf --attack=grna:epochs=30 --dataset=credit\n"
      "  vflfia_cli --model=dt --attack=pra --attack=pra_random\n"
      "  vflfia_cli --sim=bursty:factor=12 --sim-csv=detect.csv "
      "--attack=detect:attack=esa,flag_qps=10\n");
}

template <typename RegistryT>
void PrintRegistry(const RegistryT& registry) {
  std::printf("%ss:\n", registry.kind().c_str());
  for (const auto& entry : registry.entries()) {
    std::printf("  %-16s %s\n", entry.name.c_str(), entry.summary.c_str());
    if (!entry.config_help.empty()) {
      std::printf("  %-16s   keys: %s\n", "", entry.config_help.c_str());
    }
  }
}

void PrintList() {
  PrintRegistry(vfl::exp::GlobalModelRegistry());
  std::printf("\n");
  PrintRegistry(vfl::exp::GlobalAttackRegistry());
  std::printf("\n");
  PrintRegistry(vfl::exp::GlobalDefenseRegistry());
  std::printf("\n");
  PrintRegistry(vfl::exp::GlobalChannelRegistry());
  std::printf("\n");
  PrintRegistry(vfl::exp::GlobalSimRegistry());
  std::printf(
      "\ndatasets: bank, credit, drive, news, synthetic1, synthetic2, "
      "csv:PATH (or --csv=PATH)\n");
}

/// The model families' natural attack when none was requested.
std::string DefaultAttackFor(const std::string& model_kind) {
  if (model_kind == "dt") return "pra";
  if (model_kind == "lr") return "esa";
  return "grna";
}

// ---------------------------------------------------------------------------
// --watch: live telemetry dashboard over the kGetTimeseries wire pair.
// ---------------------------------------------------------------------------

/// A self-hosted demo serving stack for `--watch` without --watch-port: a
/// tiny synthetic scenario behind the full PredictionServer + NetServer
/// pipeline, a TimeseriesCollector journaling the process registry, and one
/// background client generating steady predict traffic to look at.
struct WatchStack {
  vfl::models::LogisticRegression lr;
  vfl::fed::FeatureSplit split;
  vfl::fed::VflScenario scenario;
  std::unique_ptr<vfl::serve::PredictionServer> backend;
  std::unique_ptr<vfl::obs::TimeseriesCollector> collector;
  std::unique_ptr<vfl::net::NetServer> server;
  std::atomic<bool> stop_load{false};
  std::thread load;

  ~WatchStack() {
    stop_load.store(true);
    if (load.joinable()) load.join();
    if (server != nullptr) server->Stop();
    if (collector != nullptr) collector->Stop();
  }
};

constexpr std::size_t kWatchSamples = 64;

StatusOr<std::unique_ptr<WatchStack>> StartWatchStack(const Options& options) {
  auto stack = std::make_unique<WatchStack>();
  vfl::core::Rng rng(options.seed);
  vfl::la::Matrix weights(6, 3);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights.data()[i] = rng.Gaussian();
  }
  stack->lr.SetParameters(std::move(weights), std::vector<double>(3, 0.0));
  vfl::la::Matrix x(kWatchSamples, 6);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  stack->split = vfl::fed::FeatureSplit::TailFraction(6, 0.5);
  stack->scenario = vfl::fed::MakeTwoPartyScenario(x, stack->split, &stack->lr);

  vfl::serve::PredictionServerConfig server_config;
  server_config.num_threads = 2;
  server_config.cache_capacity = options.cache_entries;
  server_config.auditor.default_query_budget = options.query_budget;
  server_config.metrics = &vfl::obs::MetricsRegistry::Global();
  stack->backend = vfl::serve::MakeScenarioServer(stack->scenario, server_config);

  // Sample faster than the dashboard refreshes so sparklines have texture.
  vfl::obs::TimeseriesCollectorOptions collect;
  collect.period = std::chrono::milliseconds(std::max(
      50, static_cast<int>(options.watch_period_s * 1000.0 / 2.0)));
  collect.ring_capacity = 512;
  collect.registry = &vfl::obs::MetricsRegistry::Global();
  stack->collector =
      std::make_unique<vfl::obs::TimeseriesCollector>(collect);
  VFL_RETURN_IF_ERROR(stack->collector->Start());

  vfl::net::NetServerConfig net_config;
  net_config.metrics = &vfl::obs::MetricsRegistry::Global();
  net_config.timeseries = &stack->collector->ring();
  stack->server = std::make_unique<vfl::net::NetServer>(stack->backend.get(),
                                                        net_config);
  VFL_RETURN_IF_ERROR(stack->server->Start());

  // Steady synthetic load: one wire client doing small predict round trips.
  const std::uint16_t port = stack->server->port();
  stack->load = std::thread([stop = &stack->stop_load, port] {
    StatusOr<vfl::net::Socket> conn = vfl::net::ConnectLoopback(port);
    if (!conn.ok()) return;
    vfl::net::HelloRequest hello;
    hello.request_id = 1;
    hello.client_name = "watch-load";
    if (!conn->SendAll(vfl::net::EncodeHello(hello)).ok()) return;
    auto frame = conn->RecvFrame(vfl::net::kDefaultMaxFrameBytes);
    if (!frame.ok()) return;
    auto message = vfl::net::DecodeFrame(frame->data(), frame->size());
    if (!message.ok()) return;
    const auto* ok = std::get_if<vfl::net::HelloResponse>(&*message);
    if (ok == nullptr) return;
    const std::uint64_t client_id = ok->client_id;

    std::uint64_t request_id = 2;
    while (!stop->load()) {
      vfl::net::PredictRequest request;
      request.request_id = request_id;
      request.client_id = client_id;
      for (std::size_t i = 0; i < 4; ++i) {
        request.sample_ids.push_back((request_id + i * 7) % kWatchSamples);
      }
      if (!conn->SendAll(vfl::net::EncodePredict(request)).ok()) return;
      auto reply = conn->RecvFrame(vfl::net::kDefaultMaxFrameBytes);
      if (!reply.ok()) return;
      ++request_id;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  return stack;
}

/// Renders `values` as a fixed-width ASCII sparkline, min..max scaled.
std::string Sparkline(const std::vector<double>& values, std::size_t width) {
  static constexpr std::string_view kLevels = " .:-=+*#%@";
  if (values.empty()) return std::string(width, ' ');
  const std::size_t n = std::min(values.size(), width);
  const auto begin = values.end() - static_cast<std::ptrdiff_t>(n);
  double lo = *begin, hi = *begin;
  for (auto it = begin; it != values.end(); ++it) {
    lo = std::min(lo, *it);
    hi = std::max(hi, *it);
  }
  std::string out(width - n, ' ');
  for (auto it = begin; it != values.end(); ++it) {
    const double unit = hi > lo ? (*it - lo) / (hi - lo) : 0.0;
    const std::size_t level = std::min(
        kLevels.size() - 1,
        static_cast<std::size_t>(unit * static_cast<double>(kLevels.size())));
    out += kLevels[level];
  }
  return out;
}

void RenderDashboard(const std::vector<vfl::obs::TimeseriesFrame>& frames,
                     const vfl::obs::MetricsSnapshot& stats,
                     const vfl::obs::AlertEngine* engine, std::size_t tick,
                     bool scrape_ok) {
  constexpr std::size_t kSparkWidth = 32;
  if (isatty(1)) std::printf("\x1b[2J\x1b[H");

  std::vector<double> qps, p99_ms;
  for (const vfl::obs::TimeseriesFrame& frame : frames) {
    qps.push_back(frame.RatePerSec("net.requests_served"));
    p99_ms.push_back(frame.HistogramPercentile("net.predict_ns", 0.99) / 1e6);
  }
  const vfl::obs::TimeseriesFrame* latest =
      frames.empty() ? nullptr : &frames.back();

  std::printf("vflfia --watch  refresh #%zu  frames=%zu%s\n", tick,
              frames.size(), scrape_ok ? "" : "  [scrape FAILED]");
  if (latest != nullptr) {
    std::printf(
        "qps       %9.1f  |%s|\n", latest->RatePerSec("net.requests_served"),
        Sparkline(qps, kSparkWidth).c_str());
    std::printf(
        "p99 ms    %9.3f  |%s|\n",
        latest->HistogramPercentile("net.predict_ns", 0.99) / 1e6,
        Sparkline(p99_ms, kSparkWidth).c_str());
    std::printf("p50/p999  %9.3f / %.3f ms\n",
                latest->HistogramPercentile("net.predict_ns", 0.50) / 1e6,
                latest->HistogramPercentile("net.predict_ns", 0.999) / 1e6);
  }
  const double hits = static_cast<double>(stats.ValueOf("serve.cache_hits"));
  const double misses =
      static_cast<double>(stats.ValueOf("serve.cache_misses"));
  std::printf("cache     %8.1f%%  (%.0f hits / %.0f misses)\n",
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, hits,
              misses);
  std::printf("auditor   flagged=%lld denied=%lld served=%lld\n",
              static_cast<long long>(
                  stats.ValueOf("serve.auditor.flagged_clients")),
              static_cast<long long>(stats.ValueOf("serve.auditor.denied")),
              static_cast<long long>(stats.ValueOf("serve.auditor.served")));
  if (engine != nullptr) {
    for (const vfl::obs::AlertRuleStatus& status : engine->Status()) {
      std::printf("alert     %-28s %-8s value=%.4g threshold=%.4g "
                  "fired=%llu\n",
                  std::string(status.rule.label()).c_str(),
                  std::string(vfl::obs::AlertStateName(status.state)).c_str(),
                  status.has_value ? status.last_value : 0.0,
                  status.rule.threshold,
                  static_cast<unsigned long long>(status.fired));
    }
  }
  std::fflush(stdout);
}

Status RunWatch(const Options& options) {
  VFL_ASSIGN_OR_RETURN(const std::vector<vfl::obs::AlertRule> rules,
                       vfl::exp::ParseAlertRules(options.alerts_spec));
  std::unique_ptr<vfl::obs::AlertEngine> engine;
  if (!rules.empty()) {
    engine = std::make_unique<vfl::obs::AlertEngine>(
        rules, vfl::obs::AlertEngineOptions{
                   &vfl::obs::MetricsRegistry::Global(), nullptr, nullptr});
  }

  std::unique_ptr<WatchStack> stack;
  std::uint16_t port = options.watch_port;
  if (port == 0) {
    VFL_ASSIGN_OR_RETURN(stack, StartWatchStack(options));
    port = stack->server->port();
    std::fprintf(stderr, "watch: self-hosted demo stack on port %u\n", port);
  }

  vfl::net::ScrapeOptions scrape;
  scrape.timeout = std::chrono::milliseconds(2000);
  const auto period = std::chrono::duration<double>(options.watch_period_s);
  std::uint64_t last_seq = 0;
  for (std::size_t tick = 1;
       options.watch_ticks == 0 || tick <= options.watch_ticks; ++tick) {
    std::this_thread::sleep_for(period);
    const StatusOr<std::vector<vfl::obs::TimeseriesFrame>> frames =
        vfl::net::ScrapeTimeseries(port, 0, scrape);
    const StatusOr<vfl::obs::MetricsSnapshot> stats =
        vfl::net::ScrapeStats(port, scrape);
    if (!frames.ok() || !stats.ok()) {
      std::fprintf(stderr, "watch: scrape failed: %s\n",
                   (!frames.ok() ? frames.status() : stats.status())
                       .ToString()
                       .c_str());
      RenderDashboard({}, vfl::obs::MetricsSnapshot{}, engine.get(), tick,
                      /*scrape_ok=*/false);
      continue;
    }
    if (engine != nullptr) {
      for (const vfl::obs::TimeseriesFrame& frame : *frames) {
        if (frame.seq <= last_seq) continue;  // already evaluated last tick
        last_seq = frame.seq;
        for (const vfl::obs::AlertTransition& transition :
             engine->Observe(frame)) {
          std::fprintf(stderr, "watch: alert '%s' %s -> %s (value %.4g)\n",
                       transition.rule_name.c_str(),
                       std::string(vfl::obs::AlertStateName(transition.from))
                           .c_str(),
                       std::string(vfl::obs::AlertStateName(transition.to))
                           .c_str(),
                       transition.value);
        }
      }
    }
    RenderDashboard(*frames, *stats, engine.get(), tick, /*scrape_ok=*/true);
  }
  return Status::Ok();
}

Status RunCli(const Options& options) {
  vfl::exp::ScaleConfig scale = vfl::exp::GetScale();
  scale.dataset_samples = options.samples;
  scale.prediction_samples = 0;  // the CLI uses the whole held-out half

  vfl::exp::ExperimentSpecBuilder builder("cli");
  builder.Dataset(options.dataset)
      .Model(options.model.kind, options.model.config)
      .TargetFraction(options.target_fraction)
      .Trials(options.trials)
      .Threads(options.threads)
      .Seed(options.seed)
      .SplitSeed(options.seed + 1)
      .Metric(options.metric == "cbr" ? vfl::exp::MetricKind::kCbr
                                      : vfl::exp::MetricKind::kMsePerFeature);

  std::vector<ComponentArg> attacks = options.attacks;
  if (attacks.empty()) {
    if (!options.sims.empty()) {
      // --sim without --attack: score detection of the model's natural
      // attack embedded in the simulated benign population.
      attacks.push_back(
          {"detect", vfl::exp::ConfigMap::MustParse(
                         "attack=" + DefaultAttackFor(options.model.kind))});
    } else {
      attacks.push_back({DefaultAttackFor(options.model.kind), {}});
    }
  }
  for (const ComponentArg& attack : attacks) {
    builder.Attack(attack.kind, attack.config);
  }
  // Always report the no-information reference alongside.
  builder.Attack("random_uniform",
                 vfl::exp::ConfigMap::MustParse(
                     "seed=" + std::to_string(options.seed)),
                 "RG(reference)");
  for (const ComponentArg& defense : options.defenses) {
    builder.Defense(defense.kind, defense.config);
  }
  if (!options.defense_chain.empty()) {
    VFL_ASSIGN_OR_RETURN(const auto chain,
                         vfl::exp::ParseDefenseChain(options.defense_chain));
    for (const auto& [kind, config] : chain) builder.Defense(kind, config);
  }

  // The trace sink outlives the runner (per-trial servers borrow it) and is
  // only wired for the net channel, where requests actually cross the wire.
  std::unique_ptr<vfl::obs::JsonlTraceSink> trace_sink;
  if (!options.trace_path.empty()) {
    trace_sink = std::make_unique<vfl::obs::JsonlTraceSink>(options.trace_path);
    if (!trace_sink->ok()) {
      return Status::Internal("cannot open --trace file: " +
                              options.trace_path);
    }
  }

  vfl::exp::ServingSpec serving;
  serving.threads = options.serve_threads;
  serving.batch = options.serve_batch;
  serving.clients = options.clients;
  serving.cache_entries = options.cache_entries;
  serving.query_budget = options.query_budget;
  serving.audit_events = options.audit_events;
  serving.trace_sink = trace_sink.get();
  serving.audit_wal_dir = options.audit_wal_dir;
  builder.Serving(serving);
  if (!options.resume_dir.empty()) builder.Checkpoint(options.resume_dir);
  // --channel wins; otherwise the legacy --serve-threads switch picks the
  // kind (0 = the synchronous offline path, else the concurrent server).
  if (!options.channels.empty()) {
    builder.Channels(options.channels);
  } else {
    builder.Channel(options.serve_threads == 0 ? "offline" : "server");
  }
  if (!options.sims.empty()) builder.Sims(options.sims);

  VFL_ASSIGN_OR_RETURN(const vfl::exp::ExperimentSpec spec, builder.Build());

  // --sim-csv: one detection row per scored detect execution. on_attack
  // fires serialized and rows are virtual-time deterministic, so the file is
  // byte-identical across --threads values.
  std::FILE* sim_csv = nullptr;
  if (!options.sim_csv_path.empty()) {
    sim_csv = std::fopen(options.sim_csv_path.c_str(), "w");
    if (sim_csv == nullptr) {
      return Status::Internal("cannot open --sim-csv file: " +
                              options.sim_csv_path);
    }
    std::fprintf(sim_csv, "%s\n", vfl::exp::DetectionCsvHeader().c_str());
  }

  vfl::exp::RunOptions hooks;
  hooks.on_attack = [&](const vfl::exp::AttackObservation& attack) {
    if (sim_csv == nullptr) return;
    const std::string row = vfl::exp::DetectionCsvRow(attack);
    if (!row.empty()) std::fprintf(sim_csv, "%s\n", row.c_str());
  };
  hooks.on_trial = [&](const vfl::exp::TrialObservation& trial) {
    if (trial.trial != 0) return;
    const vfl::fed::VflScenario& scenario = *trial.scenario;
    std::fprintf(stderr, "model: %s trained on %s (%zu features, %zu classes); "
                "adversary %zu / target %zu features, %zu prediction "
                "samples\n",
                spec.model.c_str(), trial.dataset.c_str(),
                scenario.model->num_features(), scenario.model->num_classes(),
                scenario.split.num_adv_features(),
                scenario.split.num_target_features(), scenario.x_adv.rows());
    if (trial.channel != nullptr) {
      const vfl::fed::ChannelStats cs = trial.channel->stats();
      // --query-budget is channel-enforced on offline and auditor-enforced
      // on service/server/net; either way it is the effective value.
      std::fprintf(stderr, "channel: %s (budget %llu) -> %llu protocol "
                  "queries, %llu notebook hits, %llu denied\n",
                  trial.channel_kind.c_str(),
                  static_cast<unsigned long long>(options.query_budget),
                  static_cast<unsigned long long>(cs.protocol_queries),
                  static_cast<unsigned long long>(cs.notebook_hits),
                  static_cast<unsigned long long>(cs.queries_denied));
    }
    for (const vfl::defense::PreprocessReport& report :
         trial.preprocess_reports) {
      std::fprintf(stderr, "preprocess: ESA threshold %s; %zu high-correlation "
                  "target column(s)\n",
                  report.esa_threshold_violated ? "VIOLATED (d_target <= c-1)"
                                                : "ok",
                  report.high_correlation_target_columns.size());
    }
    if (trial.server != nullptr) {
      const vfl::serve::PredictionServerStats stats = trial.server->stats();
      std::fprintf(stderr, "serving: %zu threads, batch<=%zu -> %llu vectors "
                  "revealed, mean fused batch %.1f, %llu cache hits\n",
                  trial.server->config().num_threads,
                  trial.server->config().max_batch_size,
                  static_cast<unsigned long long>(stats.predictions_served),
                  stats.mean_batch_size,
                  static_cast<unsigned long long>(stats.cache_hits));
      std::fprintf(stderr, "audit log (per-client prediction volume):\n");
      for (const vfl::serve::ClientAuditRecord& record :
           trial.server->auditor().AuditLog()) {
        std::fprintf(stderr, "  %-12s served=%-6llu denied=%-6llu window_qps=%.0f\n",
                    record.name.c_str(),
                    static_cast<unsigned long long>(record.served),
                    static_cast<unsigned long long>(record.denied),
                    record.window_qps);
      }
    }
    if (!trial.view_status.ok()) {
      std::fprintf(stderr,
                   "adversary flood rejected by the server: %s\n"
                   "(raise --query-budget or lower --samples to let the "
                   "attack accumulate its prediction set)\n",
                   trial.view_status.ToString().c_str());
    }
    std::fprintf(stderr, "\n");
  };

  // Result rows go to stdout; the metrics dump goes to stderr afterwards, so
  // piping stdout still yields pure CSV/JSONL. The dump covers everything the
  // run registered in the process-global registry (instruments of torn-down
  // per-trial servers fold into retained totals on deregistration).
  const auto dump_metrics = [&options] {
    if (options.metrics_format.empty()) return;
    const vfl::obs::MetricsSnapshot snapshot =
        vfl::obs::MetricsRegistry::Global().Snapshot();
    const std::string rendered = options.metrics_format == "json"
                                     ? vfl::obs::RenderJson(snapshot)
                                     : vfl::obs::RenderText(snapshot);
    std::fprintf(stderr, "%s", rendered.c_str());
  };

  vfl::exp::ExperimentRunner runner(scale);
  Status run_status;
  if (options.format == "csv") {
    vfl::exp::CsvRowSink sink;
    run_status = runner.Run(spec, sink, hooks);
  } else if (options.format == "jsonl") {
    vfl::exp::JsonLinesSink sink;
    run_status = runner.Run(spec, sink, hooks);
  } else {
    vfl::exp::HumanTableSink sink;
    run_status = runner.Run(spec, sink, hooks);
  }
  if (sim_csv != nullptr) std::fclose(sim_csv);
  dump_metrics();
  return run_status;
}

}  // namespace

int main(int argc, char** argv) {
  const StatusOr<Options> options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  if (options->help) {
    PrintHelp();
    return 0;
  }
  if (options->list) {
    PrintList();
    return 0;
  }
  const Status status = options->watch ? RunWatch(*options) : RunCli(*options);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
