#include "obs/trace.h"

#include <cinttypes>

#include "obs/snapshot_io.h"

namespace vfl::obs {

namespace {

void AppendPairs(
    std::string& out, std::string_view key,
    const std::vector<std::pair<std::string, std::uint64_t>>& pairs) {
  AppendJsonString(&out, key);
  out += ":{";
  char buffer[32];
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i != 0) out += ',';
    AppendJsonString(&out, pairs[i].first);
    std::snprintf(buffer, sizeof(buffer), ":%" PRIu64, pairs[i].second);
    out += buffer;
  }
  out += '}';
}

}  // namespace

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : stream_(std::fopen(path.c_str(), "a")), owns_stream_(true) {}

JsonlTraceSink::JsonlTraceSink(std::FILE* stream)
    : stream_(stream), owns_stream_(false) {}

JsonlTraceSink::~JsonlTraceSink() {
  if (stream_ != nullptr && owns_stream_) std::fclose(stream_);
}

void JsonlTraceSink::Emit(const std::string& line) {
  if (stream_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fputc('\n', stream_);
  std::fflush(stream_);
}

TraceSpan::TraceSpan(TraceSink* sink, std::string_view kind,
                     std::uint64_t request_id, std::uint64_t client_id)
    : sink_(sink),
      kind_(kind),
      request_id_(request_id),
      client_id_(client_id),
      start_ns_(sink == nullptr ? 0 : NowNanos()) {}

void TraceSpan::AddStageNs(std::string_view stage, std::uint64_t ns) {
  if (sink_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, total] : stages_) {
    if (name == stage) {
      total += ns;
      return;
    }
  }
  stages_.emplace_back(std::string(stage), ns);
}

void TraceSpan::SetAttr(std::string_view key, std::uint64_t value) {
  if (sink_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, stored] : attrs_) {
    if (name == key) {
      stored = value;
      return;
    }
  }
  attrs_.emplace_back(std::string(key), value);
}

void TraceSpan::Finish() {
  TraceSink* sink = sink_;
  if (sink == nullptr) return;
  sink_ = nullptr;  // Emit exactly once.

  std::string line;
  line.reserve(192);
  char buffer[96];
  line += '{';
  std::snprintf(buffer, sizeof(buffer),
                "\"ts_ns\":%" PRIu64 ",\"total_ns\":%" PRIu64 ",", start_ns_,
                NowNanos() - start_ns_);
  line += buffer;
  line += "\"kind\":";
  AppendJsonString(&line, kind_);
  std::snprintf(buffer, sizeof(buffer),
                ",\"request_id\":%" PRIu64 ",\"client_id\":%" PRIu64 ",",
                request_id_, client_id_);
  line += buffer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AppendPairs(line, "stages_ns", stages_);
    line += ',';
    AppendPairs(line, "attrs", attrs_);
  }
  line += '}';
  sink->Emit(line);
}

}  // namespace vfl::obs
