// Closed-loop client traffic against a served qgdpd.
//
// Every workload drives the daemon only through QgdpdClient with
// requests generated from the run seed, records the client-observed
// latency of each request by kind (cold place, warm hit, ECO), and
// logs what each reply claimed (layout hash, cache flag, ECO outcome)
// so verify_traffic() can check every output against the daemon-free
// references afterwards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon_process.h"
#include "trace.h"

namespace perfbench {

/// GP seeds of the cold-place set (fixed, so cold quality repeats).
inline constexpr unsigned kColdSeeds[] = {1u, 2u, 3u, 4u};
/// GP seeds whose layouts set-up places into the cache (pre-warmed keys).
inline constexpr unsigned kWarmSeeds[] = {1u, 2u};
/// ECO rounds per mixed/isolated session.
inline constexpr int kSessionEcos = 4;
/// Client threads of the mixed and isolated workloads.
inline constexpr int kMixedClients = 3;
/// ECO edits per stretch of the session workload's edit stream.
inline constexpr int kStretchEcos = 16;
/// Edit stream of the untimed chains that give the quality figures. It
/// is fixed rather than drawn from the run seed, so a workload's quality
/// figures repeat exactly from run to run; the timed edits use streams
/// drawn from the run seed.
inline constexpr std::uint64_t kQualityStream = 0x9A11'7E5D'0EC0'0001ull;
/// Minimum samples of each request kind in one run: with 21 the tail
/// (10 samples beyond it) sits at or above the median.
inline constexpr std::size_t kMinSamples = 21;

struct RunSpec {
  std::string workload;  ///< cold-1117 | session-1117 | mixed-1117 | isolated-1117
  std::uint64_t seed{1};
  double seconds{10.0};
  std::string exe;          ///< this binary, for the --serve child
  std::string scratch_dir;  ///< per-run directory for durable-cache files
};

[[nodiscard]] bool known_workload(const std::string& name);

/// A reply's claim about a place request, checked after the run.
struct PlaceClaim {
  unsigned seed{0};
  bool expect_cached{false};
  bool cached{false};
  std::string hash;
  std::string cache_key;
};

/// A reply's claim about one edit of an ECO chain: round `round` of
/// edit stream `stream_seed` applied to the layout of GP seed `base_seed`.
struct EcoClaim {
  unsigned base_seed{0};
  std::uint64_t stream_seed{0};
  int round{0};
  std::string hash;
};

/// A layout body fetched at the end of the traffic for the audit.
struct FinalLayout {
  std::string text;
  unsigned base_seed{0};  ///< GP seed of the layout the edits started from
};

struct TrafficResult {
  std::vector<double> setup_s;  ///< one per set-up
  std::vector<double> cold_ms, warm_ms, eco_ms;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t completed_in_window{0};
  double window_s{0.0};
  double peak_rss_mb{0.0};
  double stats_rtt_p50_ms{0.0};  ///< traced runs only
  qgdp::server::StatsReply final_stats;
  std::vector<PlaceClaim> places;
  std::vector<EcoClaim> ecos;
  std::vector<FinalLayout> finals;
  /// (base seed, edit stream, rounds) chains whose result feeds the
  /// workload's quality figures.
  struct QualityChain {
    unsigned base_seed{0};
    std::uint64_t stream_seed{0};
    int rounds{0};
  };
  std::vector<QualityChain> quality_chains;
  std::vector<std::string> errors;  ///< inline check failures
};

/// Set-up (timed several times), then the workload's traffic for
/// spec.seconds, then daemon shutdown. Spans around client calls go to
/// `tracer` when it is enabled.
[[nodiscard]] TrafficResult run_traffic(const RunSpec& spec, Tracer& tracer);

/// Checks every claim against local references: served == local for
/// each place hash and each checked ECO hash, the cache flag of each
/// place, and audit_layout on every final layout. Returns the number
/// of claims that failed (and appends reasons to `errors`); fills the
/// workload's quality figures.
struct Verification {
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  double qubit_disp{0.0};
  double crossings{0.0};
  double ph_pct{0.0};
  double fidelity_mean{0.0};
};
[[nodiscard]] Verification verify_traffic(const TrafficResult& traffic);

/// Seed of a client's ECO edit stream (see eco_round), from the run seed.
[[nodiscard]] std::uint64_t edit_stream(std::uint64_t run_seed, std::uint64_t client);

}  // namespace perfbench
