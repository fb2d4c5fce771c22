// Per-layer measurements of the traced run.
//
// The benchmark replays, in its own process, what the daemon does for
// a cold place, a warm hit, an ECO edit, a session's first ECO after a
// hit, and a fork-isolated run, calling each module's public functions
// inside spans (trace.h). Self times of those spans, the counts the
// functions return, and the daemon's StatsReply counters give the
// per-layer metrics; the layer self times are then set against the
// client-observed medians of the same run (attribution).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "traffic.h"

namespace perfbench {

struct Metric {
  double value{0.0};
  std::string unit;
};

struct LayerReport {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable attribution report
};

/// Runs the replay with `tracer` (enabled for the traced repetitions),
/// writes the Chrome trace to `trace_path`, and derives every per-layer
/// metric. Throws if a replayed output disagrees with the served one.
[[nodiscard]] LayerReport measure_layers(const RunSpec& spec, const TrafficResult& traffic,
                                         Tracer& tracer, const std::string& trace_path);

}  // namespace perfbench
