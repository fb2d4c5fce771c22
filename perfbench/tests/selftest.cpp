// Self-tests of the benchmark's own arithmetic: the tail-percentile
// rule and the span self-time attribution. Plain asserts that stay on
// in every build; exits non-zero on the first failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "sample_stats.h"
#include "trace.h"

namespace {

int g_checks = 0;

#define CHECK(cond)                                                          \
  do {                                                                       \
    ++g_checks;                                                              \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      std::exit(1);                                                          \
    }                                                                        \
  } while (0)

bool near(double a, double b, double tol = 1e-9) { return std::abs(a - b) <= tol; }

void tail_needs_more_than_ten_samples() {
  CHECK(!perfbench::tail_of({}).has_value());
  CHECK(!perfbench::tail_of(std::vector<double>(10, 1.0)).has_value());
  const auto t = perfbench::tail_of({5, 4, 3, 2, 1, 11, 10, 9, 8, 7, 6});
  CHECK(t.has_value());
  CHECK(t->value == 1.0);  // the ten samples 2..11 lie beyond it
  CHECK(t->samples == 11 && t->beyond == 10 && t->blocks == 1);
  CHECK(near(t->percentile, 100.0 / 11.0));
}

void short_runs_are_one_block_with_ten_beyond() {
  std::mt19937 rng(7);
  for (const std::size_t n : {11u, 12u, 40u, 99u}) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), rng);
    const auto t = perfbench::tail_of(v);
    CHECK(t.has_value());
    CHECK(std::count_if(v.begin(), v.end(), [&](double x) { return x > t->value; }) == 10);
    CHECK(t->samples == n && t->blocks == 1);
    CHECK(near(t->percentile, 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)));
  }
}

void long_runs_take_the_median_block_tail() {
  // 1..100 in order: blocks 1..50 and 51..100, block tails 40 and 90.
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  const auto two = perfbench::tail_of(v);
  CHECK(two->blocks == 2 && two->value == 65.0);
  CHECK(near(two->percentile, 100.0 * (perfbench::kTailBlock - 10) / perfbench::kTailBlock));

  // Ten blocks, each a shuffle of 1..50, so every block tail is 40 with
  // exactly ten samples beyond it. A stall that slows 30 neighbouring
  // requests moves one block tail, not the median; the 23 leading
  // samples that do not fill a block are left out.
  std::mt19937 rng(11);
  std::vector<double> run(23, 1e6);
  for (int b = 0; b < 10; ++b) {
    std::vector<double> block(perfbench::kTailBlock);
    std::iota(block.begin(), block.end(), 1.0);
    std::shuffle(block.begin(), block.end(), rng);
    run.insert(run.end(), block.begin(), block.end());
  }
  const auto steady = perfbench::tail_of(run);
  CHECK(steady->samples == 523 && steady->blocks == 10 && steady->value == 40.0);
  std::fill(run.begin() + 23 + 3 * 50 + 10, run.begin() + 23 + 3 * 50 + 40, 1e3);
  CHECK(perfbench::tail_of(run)->value == 40.0);
}

void median_of_odd_and_even() {
  CHECK(perfbench::median({3, 1, 2}) == 2.0);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2.5);
  CHECK(perfbench::median({}) == 0.0);
}

perfbench::Span span(const char* name, int parent, double start, double dur) {
  perfbench::Span s;
  s.name = name;
  s.parent = parent;
  s.start_us = start;
  s.dur_us = dur;
  return s;
}

void self_times_sum_to_the_root() {
  // root [0,100] ⊃ a [10,40] ⊃ g [15,25];  root ⊃ b [50,80]
  const std::vector<perfbench::Span> spans = {
      span("root", -1, 0, 100), span("a", 0, 10, 30), span("g", 1, 15, 10),
      span("b", 0, 50, 30)};
  const auto self = perfbench::self_times_ms(spans);
  CHECK(near(self.at("root")[0], 0.040));
  CHECK(near(self.at("a")[0], 0.020));
  CHECK(near(self.at("g")[0], 0.010));
  CHECK(near(self.at("b")[0], 0.030));
  double sum = 0.0;
  for (const auto& [name, v] : self) sum += std::accumulate(v.begin(), v.end(), 0.0);
  CHECK(near(sum, 0.100));  // Σ self == the root's duration
}

void overlapping_children_are_subtracted_once() {
  // Children on other threads may overlap: [10,30] ∪ [20,50] covers 40.
  const std::vector<perfbench::Span> spans = {span("root", -1, 0, 100), span("c", 0, 10, 20),
                                              span("c", 0, 20, 30), span("c", 0, 90, 20)};
  const auto self = perfbench::self_times_ms(spans);
  CHECK(near(self.at("root")[0], 0.050));  // 100 − 40 − (clipped) 10
}

void tracer_links_nested_spans() {
  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan off(tracer, "ignored");
  }
  CHECK(tracer.spans().empty());
  tracer.set_enabled(true);
  {
    perfbench::ScopedSpan root(tracer, "root", 7);
    {
      perfbench::ScopedSpan a(tracer, "a", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    perfbench::ScopedSpan b(tracer, "b", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto spans = tracer.spans();
  CHECK(spans.size() == 3);
  CHECK(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0);
  CHECK(spans[1].request == 7);
  const auto self = perfbench::self_times_ms(spans);
  const double sum = self.at("root")[0] + self.at("a")[0] + self.at("b")[0];
  CHECK(near(sum, spans[0].dur_us / 1e3, 1e-9));
  CHECK(self.at("a")[0] >= 2.0);
}

}  // namespace

int main() {
  tail_needs_more_than_ten_samples();
  short_runs_are_one_block_with_ten_beyond();
  long_runs_take_the_median_block_tail();
  median_of_odd_and_even();
  self_times_sum_to_the_root();
  overlapping_children_are_subtracted_once();
  tracer_links_nested_spans();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
