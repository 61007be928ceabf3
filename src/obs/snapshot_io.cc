#include "obs/snapshot_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <vector>

namespace vfl::obs {

namespace {

constexpr std::string_view kHeader = "vflobs 1";

/// Splits one line into whitespace-separated tokens.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos > start) tokens.push_back(line.substr(start, pos - start));
  }
  return tokens;
}

core::StatusOr<std::uint64_t> ParseU64(std::string_view token,
                                       const char* what) {
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      return core::Status::InvalidArgument(
          std::string("snapshot payload: ") + what + " '" +
          std::string(token) + "' is not an unsigned integer");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) {
      return core::Status::OutOfRange(std::string("snapshot payload: ") +
                                      what + " overflows u64");
    }
    value = value * 10 + digit;
  }
  if (token.empty()) {
    return core::Status::InvalidArgument(
        std::string("snapshot payload: empty ") + what);
  }
  return value;
}

core::StatusOr<std::int64_t> ParseI64(std::string_view token,
                                      const char* what) {
  const bool negative = !token.empty() && token.front() == '-';
  VFL_ASSIGN_OR_RETURN(
      const std::uint64_t magnitude,
      ParseU64(negative ? token.substr(1) : token, what));
  if (magnitude > static_cast<std::uint64_t>(
                      std::numeric_limits<std::int64_t>::max())) {
    return core::Status::OutOfRange(std::string("snapshot payload: ") + what +
                                    " overflows i64");
  }
  return negative ? -static_cast<std::int64_t>(magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

void AppendHistPercentiles(std::string& out, const HistogramSnapshot& hist) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "count=%" PRIu64 " mean=%.1f p50=%" PRIu64 " p99=%" PRIu64
                " p999=%" PRIu64,
                hist.count, hist.Mean(), hist.Percentile(0.50),
                hist.Percentile(0.99), hist.Percentile(0.999));
  out += buffer;
}

}  // namespace

std::string EncodeSnapshot(const MetricsSnapshot& snapshot) {
  std::string out(kHeader);
  out += '\n';
  char buffer[64];
  for (const MetricPoint& point : snapshot.points) {
    const std::string unit = point.unit.empty() ? "-" : point.unit;
    switch (point.type) {
      case InstrumentType::kCounter:
      case InstrumentType::kGauge:
        out += point.type == InstrumentType::kCounter ? "counter " : "gauge ";
        out += point.name;
        out += ' ';
        out += unit;
        std::snprintf(buffer, sizeof(buffer), " %" PRId64, point.value);
        out += buffer;
        break;
      case InstrumentType::kHistogram: {
        out += "hist ";
        out += point.name;
        out += ' ';
        out += unit;
        std::snprintf(buffer, sizeof(buffer), " %" PRIu64 " %" PRIu64,
                      point.hist.count, point.hist.sum);
        out += buffer;
        for (std::size_t i = 0; i < point.hist.buckets.size(); ++i) {
          if (point.hist.buckets[i] == 0) continue;
          std::snprintf(buffer, sizeof(buffer), " %zu:%" PRIu64, i,
                        point.hist.buckets[i]);
          out += buffer;
        }
        break;
      }
    }
    out += '\n';
  }
  return out;
}

core::StatusOr<MetricsSnapshot> DecodeSnapshot(std::string_view encoded) {
  MetricsSnapshot snapshot;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos <= encoded.size()) {
    const std::size_t eol = encoded.find('\n', pos);
    const std::string_view line =
        encoded.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                          : eol - pos);
    pos = eol == std::string_view::npos ? encoded.size() + 1 : eol + 1;
    if (line.empty()) continue;

    if (!saw_header) {
      if (line != kHeader) {
        return core::Status::InvalidArgument(
            "snapshot payload does not start with '" + std::string(kHeader) +
            "'");
      }
      saw_header = true;
      continue;
    }

    const std::vector<std::string_view> tokens = Tokenize(line);
    if (tokens.size() < 4) {
      return core::Status::InvalidArgument(
          "snapshot payload: short line '" + std::string(line) + "'");
    }
    MetricPoint point;
    point.name = std::string(tokens[1]);
    point.unit = tokens[2] == "-" ? "" : std::string(tokens[2]);
    if (tokens[0] == "counter" || tokens[0] == "gauge") {
      if (tokens.size() != 4) {
        return core::Status::InvalidArgument(
            "snapshot payload: malformed scalar line '" + std::string(line) +
            "'");
      }
      point.type = tokens[0] == "counter" ? InstrumentType::kCounter
                                          : InstrumentType::kGauge;
      VFL_ASSIGN_OR_RETURN(point.value, ParseI64(tokens[3], "scalar value"));
    } else if (tokens[0] == "hist") {
      if (tokens.size() < 5) {
        return core::Status::InvalidArgument(
            "snapshot payload: malformed hist line '" + std::string(line) +
            "'");
      }
      point.type = InstrumentType::kHistogram;
      VFL_ASSIGN_OR_RETURN(point.hist.count, ParseU64(tokens[3], "hist count"));
      VFL_ASSIGN_OR_RETURN(point.hist.sum, ParseU64(tokens[4], "hist sum"));
      std::uint64_t bucket_total = 0;
      for (std::size_t t = 5; t < tokens.size(); ++t) {
        const std::size_t colon = tokens[t].find(':');
        if (colon == std::string_view::npos) {
          return core::Status::InvalidArgument(
              "snapshot payload: bucket token '" + std::string(tokens[t]) +
              "' lacks ':'");
        }
        VFL_ASSIGN_OR_RETURN(const std::uint64_t index,
                             ParseU64(tokens[t].substr(0, colon),
                                      "bucket index"));
        if (index >= kHistogramBuckets) {
          return core::Status::OutOfRange(
              "snapshot payload: bucket index " + std::to_string(index) +
              " out of range");
        }
        VFL_ASSIGN_OR_RETURN(
            const std::uint64_t n,
            ParseU64(tokens[t].substr(colon + 1), "bucket count"));
        point.hist.buckets[static_cast<std::size_t>(index)] += n;
        bucket_total += n;
      }
      if (bucket_total != point.hist.count) {
        return core::Status::InvalidArgument(
            "snapshot payload: hist '" + point.name + "' bucket total " +
            std::to_string(bucket_total) + " != declared count " +
            std::to_string(point.hist.count));
      }
      point.value = static_cast<std::int64_t>(point.hist.count);
    } else {
      return core::Status::InvalidArgument(
          "snapshot payload: unknown instrument '" + std::string(tokens[0]) +
          "'");
    }
    snapshot.points.push_back(std::move(point));
  }
  if (!saw_header) {
    return core::Status::InvalidArgument("snapshot payload is empty");
  }
  return snapshot;
}

std::string RenderText(const MetricsSnapshot& snapshot) {
  std::size_t name_width = 4;
  for (const MetricPoint& point : snapshot.points) {
    name_width = std::max(name_width, point.name.size());
  }
  std::string out;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%-*s %-9s %-8s %s\n",
                static_cast<int>(name_width), "name", "type", "unit",
                "value");
  out += buffer;
  for (const MetricPoint& point : snapshot.points) {
    std::snprintf(buffer, sizeof(buffer), "%-*s %-9s %-8s ",
                  static_cast<int>(name_width), point.name.c_str(),
                  std::string(InstrumentTypeName(point.type)).c_str(),
                  point.unit.empty() ? "-" : point.unit.c_str());
    out += buffer;
    if (point.type == InstrumentType::kHistogram) {
      AppendHistPercentiles(out, point.hist);
    } else {
      std::snprintf(buffer, sizeof(buffer), "%" PRId64, point.value);
      out += buffer;
    }
    out += '\n';
  }
  return out;
}

std::string RenderJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const MetricPoint& point : snapshot.points) {
    if (!first) out << ",";
    first = false;
    out << "\n  " << JsonString(point.name) << ": {\"type\": \""
        << InstrumentTypeName(point.type)
        << "\", \"unit\": " << JsonString(point.unit) << ", ";
    if (point.type == InstrumentType::kHistogram) {
      out << "\"count\": " << point.hist.count << ", \"sum\": "
          << point.hist.sum << ", \"mean\": " << point.hist.Mean()
          << ", \"p50\": " << point.hist.Percentile(0.50)
          << ", \"p99\": " << point.hist.Percentile(0.99)
          << ", \"p999\": " << point.hist.Percentile(0.999) << "}";
    } else {
      out << "\"value\": " << point.value << "}";
    }
  }
  out << "\n}\n";
  return out.str();
}

void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  return out;
}

}  // namespace vfl::obs
