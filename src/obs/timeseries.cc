#include "obs/timeseries.h"

#include <algorithm>
#include <utility>

#include "obs/clock.h"
#include "obs/telemetry_log.h"
#include "store/coding.h"

namespace vfl::obs {

namespace {

/// "VTS1" on the wire (little-endian fixed32).
constexpr std::uint32_t kFrameMagic = 0x31535456u;
constexpr std::uint8_t kFrameVersion = 1;

constexpr std::uint8_t kPointCounter = 0;
constexpr std::uint8_t kPointGauge = 1;
constexpr std::uint8_t kPointHistogram = 2;

core::Status Corrupt(const char* what) {
  return core::Status::InvalidArgument(std::string("timeseries frame: ") +
                                       what);
}

}  // namespace

const TimeseriesPoint* TimeseriesFrame::Find(std::string_view name) const {
  for (const TimeseriesPoint& point : points) {
    if (point.name == name) return &point;
  }
  return nullptr;
}

double TimeseriesFrame::RatePerSec(std::string_view name) const {
  if (period_ns == 0) return 0.0;
  const TimeseriesPoint* point = Find(name);
  if (point == nullptr) return 0.0;
  const double delta = point->type == InstrumentType::kHistogram
                           ? static_cast<double>(point->hist_count)
                           : static_cast<double>(point->value);
  return delta * 1e9 / static_cast<double>(period_ns);
}

double TimeseriesFrame::HistogramPercentile(std::string_view name,
                                            double q) const {
  const TimeseriesPoint* point = Find(name);
  if (point == nullptr || point->type != InstrumentType::kHistogram ||
      point->hist_count == 0) {
    return 0.0;
  }
  HistogramSnapshot hist;
  for (const auto& [index, delta] : point->hist_buckets) {
    hist.buckets[index] = delta;
  }
  hist.count = point->hist_count;
  hist.sum = point->hist_sum;
  return static_cast<double>(hist.Percentile(q));
}

std::string EncodeTimeseriesFrame(const TimeseriesFrame& frame) {
  std::string out;
  store::PutFixed32(&out, kFrameMagic);
  out.push_back(static_cast<char>(kFrameVersion));
  store::PutVarint64(&out, frame.seq);
  store::PutVarint64(&out, frame.t_ns);
  store::PutVarint64(&out, frame.period_ns);
  store::PutVarint32(&out, static_cast<std::uint32_t>(frame.points.size()));
  for (const TimeseriesPoint& point : frame.points) {
    store::PutVarint32(&out, static_cast<std::uint32_t>(point.name.size()));
    out.append(point.name);
    switch (point.type) {
      case InstrumentType::kCounter:
        out.push_back(static_cast<char>(kPointCounter));
        store::PutVarint64(&out, store::ZigZagEncode64(point.value));
        break;
      case InstrumentType::kGauge:
        out.push_back(static_cast<char>(kPointGauge));
        store::PutVarint64(&out, store::ZigZagEncode64(point.value));
        break;
      case InstrumentType::kHistogram: {
        out.push_back(static_cast<char>(kPointHistogram));
        store::PutVarint64(&out, point.hist_count);
        store::PutVarint64(&out, point.hist_sum);
        store::PutVarint32(&out,
                           static_cast<std::uint32_t>(point.hist_buckets.size()));
        std::uint32_t prev_index = 0;
        bool first = true;
        for (const auto& [index, delta] : point.hist_buckets) {
          // First index absolute, later ones as gaps from the previous —
          // dense runs of hot buckets encode in one byte each.
          store::PutVarint32(&out, first ? index : index - prev_index);
          store::PutVarint64(&out, delta);
          prev_index = index;
          first = false;
        }
        break;
      }
    }
  }
  return out;
}

core::StatusOr<TimeseriesFrame> DecodeTimeseriesFrame(std::string_view bytes) {
  const char* p = bytes.data();
  const char* limit = p + bytes.size();
  if (bytes.size() < 5) return Corrupt("truncated header");
  if (store::DecodeFixed32(p) != kFrameMagic) return Corrupt("bad magic");
  p += 4;
  const auto version = static_cast<std::uint8_t>(*p++);
  if (version != kFrameVersion) return Corrupt("unsupported version");

  TimeseriesFrame frame;
  if (!store::GetVarint64(&p, limit, &frame.seq) ||
      !store::GetVarint64(&p, limit, &frame.t_ns) ||
      !store::GetVarint64(&p, limit, &frame.period_ns)) {
    return Corrupt("truncated frame header");
  }
  std::uint32_t num_points = 0;
  if (!store::GetVarint32(&p, limit, &num_points)) {
    return Corrupt("truncated point count");
  }
  // Every point costs at least 3 bytes (empty name + type + one value byte),
  // so an inflated count is rejected before any allocation.
  if (num_points > static_cast<std::uint64_t>(limit - p) / 3) {
    return Corrupt("point count exceeds frame size");
  }
  frame.points.reserve(num_points);
  for (std::uint32_t i = 0; i < num_points; ++i) {
    TimeseriesPoint point;
    std::uint32_t name_len = 0;
    if (!store::GetVarint32(&p, limit, &name_len)) {
      return Corrupt("truncated name length");
    }
    if (name_len > static_cast<std::uint64_t>(limit - p)) {
      return Corrupt("name length exceeds frame size");
    }
    point.name.assign(p, name_len);
    p += name_len;
    if (p >= limit) return Corrupt("truncated point type");
    const auto type = static_cast<std::uint8_t>(*p++);
    switch (type) {
      case kPointCounter:
      case kPointGauge: {
        point.type = type == kPointCounter ? InstrumentType::kCounter
                                           : InstrumentType::kGauge;
        std::uint64_t zigzag = 0;
        if (!store::GetVarint64(&p, limit, &zigzag)) {
          return Corrupt("truncated point value");
        }
        point.value = store::ZigZagDecode64(zigzag);
        break;
      }
      case kPointHistogram: {
        point.type = InstrumentType::kHistogram;
        if (!store::GetVarint64(&p, limit, &point.hist_count) ||
            !store::GetVarint64(&p, limit, &point.hist_sum)) {
          return Corrupt("truncated histogram totals");
        }
        std::uint32_t num_buckets = 0;
        if (!store::GetVarint32(&p, limit, &num_buckets)) {
          return Corrupt("truncated bucket count");
        }
        if (num_buckets > kHistogramBuckets) {
          return Corrupt("bucket count exceeds histogram size");
        }
        point.hist_buckets.reserve(num_buckets);
        std::uint64_t bucket_total = 0;
        std::uint32_t index = 0;
        for (std::uint32_t b = 0; b < num_buckets; ++b) {
          std::uint32_t gap = 0;
          std::uint64_t delta = 0;
          if (!store::GetVarint32(&p, limit, &gap) ||
              !store::GetVarint64(&p, limit, &delta)) {
            return Corrupt("truncated bucket entry");
          }
          if (b == 0) {
            index = gap;
          } else {
            if (gap == 0) return Corrupt("non-ascending bucket index");
            if (gap > kHistogramBuckets - index) {
              return Corrupt("bucket index out of range");
            }
            index += gap;
          }
          if (index >= kHistogramBuckets) {
            return Corrupt("bucket index out of range");
          }
          if (delta == 0) return Corrupt("zero bucket delta");
          if (delta > point.hist_count - bucket_total) {
            return Corrupt("bucket deltas exceed histogram count");
          }
          bucket_total += delta;
          point.hist_buckets.emplace_back(index, delta);
        }
        if (bucket_total != point.hist_count) {
          return Corrupt("histogram count does not match bucket deltas");
        }
        break;
      }
      default:
        return Corrupt("unknown point type");
    }
    frame.points.push_back(std::move(point));
  }
  if (p != limit) return Corrupt("trailing bytes");
  return frame;
}

TimeseriesRing::TimeseriesRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeseriesRing::Push(TimeseriesFrame frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  frames_.push_back(std::move(frame));
  if (frames_.size() > capacity_) frames_.pop_front();
  ++total_;
}

std::vector<TimeseriesFrame> TimeseriesRing::Frames(
    std::size_t max_frames) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = frames_.size();
  if (max_frames != 0 && max_frames < count) count = max_frames;
  std::vector<TimeseriesFrame> out;
  out.reserve(count);
  for (std::size_t i = frames_.size() - count; i < frames_.size(); ++i) {
    out.push_back(frames_[i]);
  }
  return out;
}

std::uint64_t TimeseriesRing::total_frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::size_t TimeseriesRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_.size();
}

TimeseriesCollector::TimeseriesCollector(TimeseriesCollectorOptions options)
    : options_(options),
      registry_(RegistryOr(options.registry)),
      ring_(options.ring_capacity) {
  prev_t_ns_ = NowNanos();
  registrations_.push_back(
      registry_.RegisterCounter("ts.frames_sampled", "frames",
                                &frames_sampled_));
  registrations_.push_back(registry_.RegisterCounter(
      "ts.frames_journaled", "frames", &frames_journaled_));
  registrations_.push_back(
      registry_.RegisterCounter("ts.journal_errors", "errors",
                                &journal_errors_));
  registrations_.push_back(
      registry_.RegisterHistogram("ts.sample_ns", "ns", &sample_ns_));
}

TimeseriesCollector::~TimeseriesCollector() { Stop(); }

core::Status TimeseriesCollector::Start() {
  if (!kMetricsEnabled) return core::Status::Ok();
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (running_) return core::Status::Ok();
  if (options_.period.count() <= 0) {
    return core::Status::InvalidArgument("collector period must be positive");
  }
  stop_requested_ = false;
  sampler_ = std::thread([this] { RunSampler(); });
  running_ = true;
  return core::Status::Ok();
}

void TimeseriesCollector::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  sampler_.join();
  std::lock_guard<std::mutex> lock(thread_mutex_);
  running_ = false;
}

void TimeseriesCollector::RunSampler() {
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, options_.period,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

TimeseriesFrame TimeseriesCollector::SampleNow() {
  return SampleAt(NowNanos());
}

TimeseriesFrame TimeseriesCollector::SampleAt(std::uint64_t t_ns) {
  const std::uint64_t sample_start = MetricsNowNanos();
  std::lock_guard<std::mutex> lock(sample_mutex_);
  MetricsSnapshot cur = registry_.Snapshot();

  TimeseriesFrame frame;
  frame.seq = next_seq_++;
  frame.t_ns = t_ns;
  frame.period_ns = t_ns > prev_t_ns_ ? t_ns - prev_t_ns_ : 0;
  frame.points.reserve(cur.points.size());

  // Both snapshots are name-ordered: one merge walk pairs each current point
  // with its predecessor (absent predecessor = everything is new delta).
  std::size_t j = 0;
  for (const MetricPoint& point : cur.points) {
    while (j < prev_.points.size() && prev_.points[j].name < point.name) ++j;
    const MetricPoint* prev_point =
        (j < prev_.points.size() && prev_.points[j].name == point.name &&
         prev_.points[j].type == point.type)
            ? &prev_.points[j]
            : nullptr;

    TimeseriesPoint out;
    out.name = point.name;
    out.type = point.type;
    switch (point.type) {
      case InstrumentType::kCounter: {
        const std::int64_t prev_value =
            prev_point != nullptr ? prev_point->value : 0;
        // Registry counters are monotonic (deregistration folds into the
        // retained total); clamp anyway so a rewound counter can never
        // produce a negative rate.
        out.value = point.value > prev_value ? point.value - prev_value : 0;
        break;
      }
      case InstrumentType::kGauge:
        out.value = point.value;
        break;
      case InstrumentType::kHistogram: {
        for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
          const std::uint64_t prev_count =
              prev_point != nullptr ? prev_point->hist.buckets[b] : 0;
          const std::uint64_t cur_count = point.hist.buckets[b];
          if (cur_count > prev_count) {
            const std::uint64_t delta = cur_count - prev_count;
            out.hist_buckets.emplace_back(b, delta);
            out.hist_count += delta;
          }
        }
        const std::uint64_t prev_sum =
            prev_point != nullptr ? prev_point->hist.sum : 0;
        out.hist_sum = point.hist.sum > prev_sum ? point.hist.sum - prev_sum
                                                 : 0;
        break;
      }
    }
    frame.points.push_back(std::move(out));
  }

  prev_ = std::move(cur);
  prev_t_ns_ = t_ns;

  ring_.Push(frame);
  frames_sampled_.Add(1);
  if (options_.log != nullptr) {
    const core::Status journaled = options_.log->AppendFrame(frame);
    if (journaled.ok()) {
      frames_journaled_.Add(1);
    } else {
      journal_errors_.Add(1);
      if (journal_status_.ok()) journal_status_ = journaled;
    }
  }
  if (kMetricsEnabled) {
    sample_ns_.Record(MetricsNowNanos() - sample_start);
  }
  return frame;
}

core::Status TimeseriesCollector::journal_status() const {
  std::lock_guard<std::mutex> lock(sample_mutex_);
  return journal_status_;
}

}  // namespace vfl::obs
