// `vflfia_cli --metrics=json` prints RenderJson verbatim, so the JSON it
// emits must be well-formed even for hostile metric names and units. A
// small strict RFC 8259 parser validates the whole document — no trailing
// commas, every string correctly escaped, every value a valid literal.
#include "obs/snapshot_io.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace vfl::obs {
namespace {

/// Minimal strict JSON validator: objects, strings, numbers. Rejects what
/// RFC 8259 rejects (bare control characters in strings, lone surrogates
/// aside — escapes must be \", \\, \/, \b, \f, \n, \r, \t or \uXXXX).
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '"':
        return String();
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // bare control character
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(RenderJsonTest, TypicalRegistrySnapshotIsValidJson) {
  MetricsRegistry registry;
  registry.GetCounter("net.requests_served", "requests")->Add(42);
  registry.GetGauge("serve.queue_depth", "items")->Set(-7);
  LatencyHistogram* hist = registry.GetHistogram("net.predict_ns", "ns");
  hist->Record(1000);
  hist->Record(250'000);
  const std::string json = RenderJson(registry.Snapshot());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"net.requests_served\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"value\": -7"), std::string::npos);
}

TEST(RenderJsonTest, EmptySnapshotIsValidJson) {
  const std::string json = RenderJson(MetricsSnapshot{});
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
}

TEST(RenderJsonTest, HostileNamesAndUnitsAreEscaped) {
  // Names a registry would never produce, but RenderJson must not be the
  // layer that assumes so: quotes, backslashes, newlines, tabs, raw control
  // bytes, and non-ASCII all have to survive as valid JSON.
  MetricsSnapshot snapshot;
  const char* names[] = {
      "quoted\"name",
      "back\\slash",
      "line\nbreak",
      "tab\there",
      "bell\x07metric",
      "utf8.\xc3\xa9tage",
  };
  for (const char* name : names) {
    MetricPoint point;
    point.name = name;
    point.unit = "weird\"unit\\\n";
    point.type = InstrumentType::kCounter;
    point.value = 1;
    snapshot.points.push_back(point);
  }
  const std::string json = RenderJson(snapshot);
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  // Spot checks: the escapes are the RFC ones, not raw bytes.
  EXPECT_NE(json.find("quoted\\\"name"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(json.find("bell\\u0007metric"), std::string::npos);
  EXPECT_EQ(json.find('\x07'), std::string::npos);
}

TEST(RenderJsonTest, HistogramPointsCarryPercentileFields) {
  MetricsRegistry registry;
  LatencyHistogram* hist = registry.GetHistogram("test.ns", "ns");
  for (int i = 0; i < 100; ++i) hist->Record(1000 + i * 10);
  const std::string json = RenderJson(registry.Snapshot());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  if (kMetricsEnabled) {
    EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
  }
}

TEST(JsonStringTest, EscapesWhatRfc8259Requires) {
  EXPECT_EQ(JsonString("plain.name"), "\"plain.name\"");
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonString("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonString("a\rb"), "\"a\\rb\"");
  EXPECT_EQ(JsonString("a\tb"), "\"a\\tb\"");
  EXPECT_EQ(JsonString("a\x01" "b"), "\"a\\u0001b\"");
  EXPECT_EQ(JsonString("a\x1f" "b"), "\"a\\u001fb\"");
  EXPECT_EQ(JsonString("utf8.\xc3\xa9"), "\"utf8.\xc3\xa9\"");
  const std::string every_control = [] {
    std::string s;
    for (char c = 1; c < 0x20; ++c) s += c;
    return s + "\"\\";
  }();
  EXPECT_TRUE(JsonValidator(JsonString(every_control)).Validate());
}

TEST(JsonStringTest, AppendsAfterExistingText) {
  std::string out = "{\"k\":";
  AppendJsonString(&out, "v\n");
  out += "}";
  EXPECT_EQ(out, "{\"k\":\"v\\n\"}");
  EXPECT_TRUE(JsonValidator(out).Validate());
}

}  // namespace
}  // namespace vfl::obs
