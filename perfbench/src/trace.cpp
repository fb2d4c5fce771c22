#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// Open spans of the calling thread (innermost last), for parent links.
std::vector<int>& open_stack() {
  thread_local std::vector<int> stack;
  return stack;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : origin_ns_(steady_ns()) {}

double Tracer::now_us() const { return static_cast<double>(steady_ns() - origin_ns_) / 1e3; }

int Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  std::vector<int>& stack = open_stack();
  Span s;
  s.name = name;
  s.parent = stack.empty() ? -1 : stack.back();
  s.request = request;
  s.tid = thread_id();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    s.start_us = now_us();
    spans_.push_back(std::move(s));
  }
  stack.push_back(index);
  return index;
}

void Tracer::end(int index) {
  const double t = now_us();
  std::vector<int>& stack = open_stack();
  if (!stack.empty() && stack.back() == index) stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.dur_us = t - s.start_us;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, std::vector<double>> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.start_us + s.dur_us);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double lo = s.start_us;
    const double hi = s.start_us + s.dur_us;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;  // empty run
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[s.name].push_back((s.dur_us - covered) / 1e3);
  }
  return out;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
       << json_escape(s.name.substr(0, s.name.find('.'))) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.tid << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
       << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i << ",\"parent\":"
       << s.parent << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
