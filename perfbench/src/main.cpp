// qgdp_perfbench: the repository's end-to-end benchmark.
//
//   qgdp_perfbench --workload W --seed N --seconds S --trace 0|1 --root DIR
//
// W is one of cold-1117, session-1117, mixed-1117, isolated-1117 (see
// perfbench/README.md). The run sets up a fresh qgdpd child process
// (several times, timing each), drives it with closed-loop client
// traffic generated from the seed for S seconds, checks every output
// against daemon-free references, and prints a report followed by one
// JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from a span-traced replay of each request path
// (Chrome trace JSON under DIR/.bench_build/traces/).
//
// `--serve [--fork] [--cache-dir D]` is the daemon child mode.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "daemon_process.h"
#include "layers.h"
#include "reference.h"
#include "sample_stats.h"
#include "traffic.h"

namespace {

using perfbench::Metric;

struct Args {
  std::map<std::string, std::string> values;
  bool serve{false};
  bool fork{false};
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      a.serve = true;
    } else if (arg == "--fork") {
      a.fork = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      a.values[arg.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("unexpected argument " + arg);
    }
  }
  return a;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Report line for one latency sample set, and its p50/tail metrics.
void latency_metrics(const std::string& name, const std::vector<double>& ms,
                     std::map<std::string, Metric>& metrics) {
  const auto tail = perfbench::tail_of(ms);
  const double p50 = perfbench::median(ms);
  metrics[name + "_p50_ms"] = {p50, "ms"};
  metrics[name + "_tail_ms"] = {tail ? tail->value : 0.0, "ms"};
  std::cout << "latency " << name << ": samples " << ms.size() << ", p50 " << p50 << " ms";
  if (tail) {
    std::cout << ", tail p" << tail->percentile << " = " << tail->value << " ms (median of "
              << tail->blocks << " block(s), " << tail->beyond << " samples beyond it in each)";
  }
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  std::cout << "; deciles";
  for (int d = 0; d <= 10 && !sorted.empty(); ++d) {
    std::cout << " " << sorted[std::min(sorted.size() - 1, sorted.size() * d / 10)];
  }
  std::cout << "\n";
}

int bench_main(const Args& args) {
  perfbench::RunSpec spec;
  spec.workload = args.values.count("workload") ? args.values.at("workload") : "";
  if (!perfbench::known_workload(spec.workload)) {
    std::cerr << "unknown --workload '" << spec.workload << "'\n";
    return 2;
  }
  spec.seed = std::stoull(args.values.count("seed") ? args.values.at("seed") : "1");
  spec.seconds = std::stod(args.values.count("seconds") ? args.values.at("seconds") : "10");
  const bool trace = args.values.count("trace") && args.values.at("trace") == "1";
  const std::filesystem::path root = args.values.count("root") ? args.values.at("root") : ".";
  spec.exe = self_exe();
  const std::filesystem::path run_dir = root / ".bench_build" / "runs" /
                                        (spec.workload + "-" + std::to_string(spec.seed) + "-" +
                                         std::to_string(::getpid()));
  std::filesystem::create_directories(run_dir);
  spec.scratch_dir = run_dir.string();
  const std::filesystem::path trace_dir = root / ".bench_build" / "traces";
  std::filesystem::create_directories(trace_dir);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
  try {
    perfbench::check_golden_anchor((root / "tests" / "golden" / "table2_stats.json").string());
    std::cout << "quality anchor: Eagle/qGDP matches tests/golden/table2_stats.json\n";

    perfbench::Tracer tracer;
    tracer.set_enabled(trace);
    const perfbench::TrafficResult traffic = perfbench::run_traffic(spec, tracer);
    attempted = traffic.attempted;
    failed = traffic.failed;
    for (const std::string& e : traffic.errors) std::cout << "FAILED: " << e << "\n";
    if (traffic.failed > 0) throw std::runtime_error("requests failed");

    const perfbench::Verification v = perfbench::verify_traffic(traffic);
    for (const std::string& e : v.errors) std::cout << "FAILED: " << e << "\n";
    failed = std::min(attempted, failed + v.failed);
    correct = v.failed == 0;
    std::cout << "checked " << traffic.places.size() << " place and " << traffic.ecos.size()
              << " ECO replies against local references, " << traffic.finals.size()
              << " final layout(s) audited\n";

    if (trace) {
      const std::string trace_path =
          (trace_dir / (spec.workload + "-seed" + std::to_string(spec.seed) + ".json")).string();
      const perfbench::LayerReport layers =
          perfbench::measure_layers(spec, traffic, tracer, trace_path);
      for (const std::string& line : layers.lines) std::cout << line << "\n";
      metrics = layers.metrics;
    } else {
      metrics["setup_s"] = {perfbench::median(traffic.setup_s), "s"};
      latency_metrics("cold_place", traffic.cold_ms, metrics);
      latency_metrics("warm_hit", traffic.warm_ms, metrics);
      latency_metrics("eco", traffic.eco_ms, metrics);
      metrics["throughput_rps"] = {
          traffic.window_s > 0 ? static_cast<double>(traffic.completed_in_window) / traffic.window_s
                               : 0.0,
          "1/s"};
      metrics["peak_rss_mb"] = {traffic.peak_rss_mb, "MB"};
      metrics["qubit_disp"] = {v.qubit_disp, "cells"};
      metrics["crossings_x"] = {v.crossings, "count"};
      metrics["hotspot_ph_pct"] = {v.ph_pct, "%"};
      metrics["fidelity_mean"] = {v.fidelity_mean, "ratio"};
      std::cout << "set-up: " << traffic.setup_s.size() << " set-ups, median "
                << metrics["setup_s"].value << " s\n";
    }
  } catch (const std::exception& e) {
    std::cout << "FAILED: " << e.what() << "\n";
    correct = false;
    attempted = std::max<std::uint64_t>(attempted, 1);
    failed = std::max<std::uint64_t>(failed, 1);
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.serve) {
      perfbench::DaemonConfig cfg;
      cfg.fork_isolation = args.fork;
      if (args.values.count("cache-dir")) cfg.cache_dir = args.values.at("cache-dir");
      return perfbench::serve_main(cfg);
    }
    return bench_main(args);
  } catch (const std::exception& e) {
    std::cerr << "qgdp_perfbench: " << e.what() << "\n";
    return 2;
  }
}
