#ifndef VFLFIA_OBS_SNAPSHOT_IO_H_
#define VFLFIA_OBS_SNAPSHOT_IO_H_

#include <string>
#include <string_view>

#include "core/status.h"
#include "obs/metrics.h"

namespace vfl::obs {

/// Wire/disk codec and human renderers for MetricsSnapshot.
///
/// The encoded form is a line-oriented text format, chosen over binary so a
/// scraped payload is directly greppable and diff-stable:
///
///   vflobs 1
///   counter <name> <unit> <value>
///   gauge <name> <unit> <value>
///   hist <name> <unit> <count> <sum> <bucket>:<n> <bucket>:<n> ...
///
/// Names and units must not contain whitespace (instrument names in this
/// codebase are dotted identifiers; units are single words). Decode is fully
/// validated: a truncated, reordered, or garbage payload comes back as a
/// typed kInvalidArgument, never a bogus snapshot — the same contract the
/// binary wire layer holds, since this payload rides inside kStatsOk frames.
std::string EncodeSnapshot(const MetricsSnapshot& snapshot);
core::StatusOr<MetricsSnapshot> DecodeSnapshot(std::string_view encoded);

/// Aligned human-readable table (the `vflfia_cli --metrics=text` dump).
/// Histogram rows show count/mean/p50/p99/p999 computed from the buckets.
std::string RenderText(const MetricsSnapshot& snapshot);

/// One JSON object keyed by metric name (`--metrics=json`); histograms carry
/// count/sum/mean/p50/p99/p999.
std::string RenderJson(const MetricsSnapshot& snapshot);

/// Appends `s` to `out` as a JSON string literal, quotes included. Escapes
/// what RFC 8259 requires: the quote, the backslash, \n, \r and \t by name,
/// every other control character as \u00XX. Every JSON string this library
/// writes (metrics, trace lines, alert events, result rows) goes through it.
void AppendJsonString(std::string* out, std::string_view s);

/// AppendJsonString into a new string.
std::string JsonString(std::string_view s);

}  // namespace vfl::obs

#endif  // VFLFIA_OBS_SNAPSHOT_IO_H_
