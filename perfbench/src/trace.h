// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into
// the library's public functions (the library itself is not
// instrumented). Each span carries a name, its start and duration on
// the steady clock, the span that caused it (the innermost open span on
// the same thread), and a request id shared by the spans of one
// replayed request. Spans stay in memory; write_chrome_trace() exports
// them as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing) when the run ends, and self_times_ms() turns them
// into per-layer self times.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent{-1};           ///< index of the causing span, -1 for a root
  std::uint64_t request{0};  ///< shared by the spans of one request
  int tid{0};               ///< small per-thread id
  double start_us{0.0};     ///< since the tracer was constructed
  double dur_us{0.0};
};

class Tracer {
 public:
  Tracer();

  /// Disabled tracers record nothing; ScopedSpan then costs one branch.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// disabled). Spans must be closed in LIFO order per thread.
  int begin(const std::string& name, std::uint64_t request);
  void end(int index);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  [[nodiscard]] double now_us() const;

  bool enabled_{false};
  std::int64_t origin_ns_{0};
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span in ms, grouped by span name in recording
/// order: a span's duration minus the part of its interval that its
/// direct children cover (overlapping children are merged, so a
/// covered instant is subtracted once).
[[nodiscard]] std::map<std::string, std::vector<double>> self_times_ms(
    const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace-event JSON document ("X" events;
/// ts/dur in microseconds; request id and parent index under "args").
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os);

}  // namespace perfbench
