#include "traffic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "io/serialization.h"
#include "metrics/audit.h"
#include "runtime/thread_pool.h"
#include "reference.h"
#include "sample_stats.h"
#include "server/client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using qgdp::server::EcoReply;
using qgdp::server::EcoRequest;
using qgdp::server::PlaceReply;
using qgdp::server::PlaceRequest;
using qgdp::server::StatusCode;

constexpr int kSetups = 5;
constexpr int kStatsProbes = 50;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

/// What one client thread saw; merged into the TrafficResult at the end.
struct Log {
  std::vector<double> cold_ms, warm_ms, eco_ms;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t completed{0};
  std::vector<PlaceClaim> places;
  std::vector<EcoClaim> ecos;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
  void merge_into(TrafficResult& r) const {
    r.cold_ms.insert(r.cold_ms.end(), cold_ms.begin(), cold_ms.end());
    r.warm_ms.insert(r.warm_ms.end(), warm_ms.begin(), warm_ms.end());
    r.eco_ms.insert(r.eco_ms.end(), eco_ms.begin(), eco_ms.end());
    r.attempted += attempted;
    r.failed += failed;
    r.completed_in_window += completed;
    r.places.insert(r.places.end(), places.begin(), places.end());
    r.ecos.insert(r.ecos.end(), ecos.begin(), ecos.end());
    r.errors.insert(r.errors.end(), errors.begin(), errors.end());
  }
};

/// Layouts the set-up placed into the cache, shared read-only by the
/// traffic: expected warm-hit bodies and the ECO home positions.
struct Warmed {
  std::map<unsigned, std::string> bodies;
  std::map<unsigned, std::vector<QubitHome>> homes;
};

struct Ctx {
  std::uint16_t port{0};
  Tracer* tracer{nullptr};
  std::atomic<std::uint64_t>* request_ids{nullptr};
};

/// One client connection; every call is timed, logged and checked
/// inline for what can be checked without a reference.
class Conn {
 public:
  Conn(const Ctx& ctx, Log& log) : ctx_(ctx), log_(log) {
    std::string error;
    ok_ = client_.connect("127.0.0.1", ctx.port, &error);
    if (!ok_) {
      ++log_.attempted;  // the session's first request is lost
      log_.fail("connect: " + error);
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }

  /// A place for GP seed `seed`. `expected_body`, when given, is the
  /// layout the reply must carry byte for byte; otherwise the body is
  /// checked against the hash the reply claims. `timed` places count
  /// as workload samples.
  std::optional<PlaceReply> place(unsigned seed, bool use_cache, bool expect_cached, bool timed,
                                  const std::string* expected_body = nullptr) {
    PlaceRequest req;
    req.topology = kTopology;
    req.flow = kFlow;
    req.seed = seed;
    req.use_cache = use_cache;
    req.want_layout = true;
    ++log_.attempted;
    std::string error;
    const auto t0 = Clock::now();
    std::optional<PlaceReply> rep;
    {
      ScopedSpan span(*ctx_.tracer, expect_cached ? "client.warm_hit" : "client.cold_place",
                      ctx_.request_ids->fetch_add(1));
      rep = client_.place(req, &error);
    }
    const double ms = ms_since(t0);
    const std::string what = "place seed " + std::to_string(seed);
    if (!rep || rep->status != StatusCode::kOk) {
      log_.fail(what + ": " + (rep ? qgdp::server::to_string(rep->status) : error));
      return std::nullopt;
    }
    if (expected_body ? rep->layout != *expected_body
                      : qgdp::server::hex64(qgdp::server::fnv1a64(rep->layout)) != rep->layout_hash) {
      log_.fail(what + ": layout body does not match the reply's claim");
      return std::nullopt;
    }
    log_.places.push_back({seed, expect_cached, rep->cached, rep->layout_hash, rep->cache_key});
    if (timed) {
      (expect_cached ? log_.warm_ms : log_.cold_ms).push_back(ms);
      ++log_.completed;
    }
    return rep;
  }

  /// Round `round` of edit stream `stream` on the session layout (GP
  /// seed `base`).
  std::optional<EcoReply> eco(const std::vector<QubitHome>& homes, unsigned base,
                              std::uint64_t stream, int round, bool timed, bool want_layout = false) {
    EcoRequest req = eco_round(homes, stream, round);
    req.want_layout = want_layout;
    ++log_.attempted;
    std::string error;
    const auto t0 = Clock::now();
    std::optional<EcoReply> rep;
    {
      ScopedSpan span(*ctx_.tracer, "client.eco", ctx_.request_ids->fetch_add(1));
      rep = client_.eco(req, &error);
    }
    const double ms = ms_since(t0);
    const std::string what = "eco round " + std::to_string(round) + " on seed " + std::to_string(base);
    if (!rep || rep->status != StatusCode::kOk) {
      log_.fail(what + ": " + (rep ? qgdp::server::to_string(rep->status) : error));
      return std::nullopt;
    }
    if (!rep->success || rep->window_violations != 0) {
      log_.fail(what + ": success=" + std::to_string(rep->success) +
                " window_violations=" + std::to_string(rep->window_violations));
      return std::nullopt;
    }
    if (want_layout &&
        qgdp::server::hex64(qgdp::server::fnv1a64(rep->layout)) != rep->layout_hash) {
      log_.fail(what + ": layout body does not match the reply's claim");
      return std::nullopt;
    }
    log_.ecos.push_back({base, stream, round, rep->layout_hash});
    if (timed) {
      log_.eco_ms.push_back(ms);
      ++log_.completed;
    }
    return rep;
  }

  std::optional<qgdp::server::StatsReply> stats() {
    std::string error;
    return client_.stats(&error);
  }

 private:
  const Ctx& ctx_;
  Log& log_;
  qgdp::server::QgdpdClient client_;
  bool ok_{false};
};

/// Deadline bookkeeping shared by a workload's clients.
struct Window {
  Clock::time_point start{Clock::now()};
  double seconds{0.0};
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
  [[nodiscard]] bool open() const { return elapsed_s() < seconds; }
};

std::vector<unsigned> shuffled(std::vector<unsigned> v, std::mt19937_64& rng) {
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

// ---- workloads ---------------------------------------------------------

/// One client: per round a cold place (cache bypassed) over the fixed
/// GP seed set, one ECO on the fresh (materialized) layout, and one
/// warm hit on a pre-warmed key.
void cold_workload(const RunSpec& spec, const Ctx& ctx, const Warmed& warm, Log& log,
                   TrafficResult& out) {
  std::mt19937_64 rng(mix(spec.seed, 0xC01D));
  Conn conn(ctx, log);
  if (!conn.ok()) return;
  std::map<unsigned, std::vector<QubitHome>> homes;
  const std::vector<unsigned> seeds(std::begin(kColdSeeds), std::end(kColdSeeds));
  std::vector<unsigned> order;
  std::string last_body;
  unsigned last_seed = 0;
  const Window w{Clock::now(), spec.seconds};
  for (std::size_t i = 0; w.open() || log.cold_ms.size() < kMinSamples ||
                          log.warm_ms.size() < kMinSamples || log.eco_ms.size() < kMinSamples;
       ++i) {
    if (i % seeds.size() == 0) order = shuffled(seeds, rng);
    const unsigned s = order[i % order.size()];
    auto cold = conn.place(s, /*use_cache=*/false, /*expect_cached=*/false, true);
    if (!cold) return;
    if (!homes.count(s)) homes[s] = qubit_homes(cold->layout);
    last_body = std::move(cold->layout);
    last_seed = s;
    if (!conn.eco(homes[s], s, edit_stream(spec.seed, i), 0, true)) return;
    const unsigned k = kWarmSeeds[rng() % std::size(kWarmSeeds)];
    if (!conn.place(k, true, true, true, &warm.bodies.at(k))) return;
  }
  out.window_s = w.elapsed_s();
  out.finals.push_back({std::move(last_body), last_seed});
  for (const unsigned s : seeds) out.quality_chains.push_back({s, 0, 0});
}

/// One client with two connections. The edit session runs stretches of
/// ECO edits: each stretch re-places the pre-warmed key on the session
/// (a warm hit that resets its layout, so edits cannot pile up damage
/// over the run and every stretch is the same kind of work) and then
/// applies kStretchEcos edits; from a stretch's second edit on, the
/// session is materialized. The other connection places a warm hit
/// after every edit and a cold probe after every 8th, so every kind is
/// sampled evenly across the whole window.
void session_workload(const RunSpec& spec, const Ctx& ctx, const Warmed& warm, Log& log,
                      TrafficResult& out) {
  std::mt19937_64 rng(mix(spec.seed, 0x5E55));
  Conn edit(ctx, log);
  Conn probe(ctx, log);
  if (!edit.ok() || !probe.ok()) return;
  const unsigned k = kWarmSeeds[0];
  const std::vector<QubitHome>& homes = warm.homes.at(k);
  const std::vector<unsigned> seeds(std::begin(kColdSeeds), std::end(kColdSeeds));
  std::vector<unsigned> order;
  const Window w{Clock::now(), spec.seconds};
  std::size_t cold = 0;
  for (std::size_t i = 0; w.open() || log.cold_ms.size() < kMinSamples; ++i) {
    if (!edit.place(k, true, true, true, &warm.bodies.at(k))) return;
    const std::uint64_t stream = edit_stream(spec.seed, 1000 + i);
    for (int r = 0; r < kStretchEcos; ++r) {
      if (!edit.eco(homes, k, stream, r, true)) return;
      if (!probe.place(k, true, true, true, &warm.bodies.at(k))) return;
      if (r % 8 == 7) {
        if (cold % seeds.size() == 0) order = shuffled(seeds, rng);
        if (!probe.place(order[cold++ % order.size()], false, false, true)) return;
      }
    }
  }
  out.window_s = w.elapsed_s();
  // Untimed: one more stretch with the fixed quality stream; its last
  // edit fetches the layout for the audit.
  if (!edit.place(k, true, true, false, &warm.bodies.at(k))) return;
  for (int r = 0; r < kStretchEcos; ++r) {
    const bool last = r + 1 == kStretchEcos;
    auto rep = edit.eco(homes, k, kQualityStream, r, false, /*want_layout=*/last);
    if (!rep) return;
    if (last) out.finals.push_back({std::move(rep->layout), k});
  }
  out.quality_chains.push_back({k, kQualityStream, kStretchEcos});
}

/// Several clients, each looping connect → place → ECOs → close; every
/// 10th session of a client places a fresh GP seed (a cold fill),
/// the others hit a pre-warmed key. The clients' cold fills are
/// staggered (client c at sessions ≡ 10c/3 mod 10) so the traffic does
/// not start with every client placing at once.
void mixed_workload(const RunSpec& spec, const Ctx& ctx, const Warmed& warm,
                    std::vector<Log>& logs, TrafficResult& out) {
  const Window w{Clock::now(), spec.seconds};
  std::atomic<std::size_t> cold_done{0};
  std::atomic<bool> abort{false};
  auto client = [&](int c) {
    Log& log = logs[static_cast<std::size_t>(c)];
    std::mt19937_64 rng(mix(spec.seed, 0x3000 + static_cast<std::uint64_t>(c)));
    const std::uint64_t stream = edit_stream(spec.seed, static_cast<std::uint64_t>(c));
    for (unsigned k = 0; !abort && (w.open() || cold_done.load() < kMinSamples); ++k) {
      Conn conn(ctx, log);
      if (!conn.ok()) break;
      unsigned base = 0;
      std::vector<QubitHome> fresh_homes;
      const std::vector<QubitHome>* homes = nullptr;
      if (k % 10 == static_cast<unsigned>(c) * 10u / kMixedClients) {
        base = 1'000'000u + static_cast<unsigned>(spec.seed % 4096) * 4096u +
               static_cast<unsigned>(c) * 1024u + k / 10;
        auto rep = conn.place(base, true, false, true);
        if (!rep) break;
        cold_done.fetch_add(1);
        fresh_homes = qubit_homes(rep->layout);
        homes = &fresh_homes;
      } else {
        base = kWarmSeeds[rng() % std::size(kWarmSeeds)];
        if (!conn.place(base, true, true, true, &warm.bodies.at(base))) break;
        homes = &warm.homes.at(base);
      }
      bool ok = true;
      for (int r = 0; r < kSessionEcos && ok; ++r) ok = conn.eco(*homes, base, stream, r, true).has_value();
      if (!ok) break;
    }
    if (log.failed > 0) abort = true;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kMixedClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  out.window_s = w.elapsed_s();
  if (abort) return;
  // Untimed: one more session per pre-warmed key with the fixed quality
  // stream, fetching the post-edit layout for the audit.
  Log& log = logs[0];
  for (const unsigned base : kWarmSeeds) {
    Conn conn(ctx, log);
    if (!conn.ok()) return;
    if (!conn.place(base, true, true, false, &warm.bodies.at(base))) return;
    for (int r = 0; r < kSessionEcos; ++r) {
      const bool last = r + 1 == kSessionEcos;
      auto rep = conn.eco(warm.homes.at(base), base, kQualityStream, r, false, last);
      if (!rep) return;
      if (last) out.finals.push_back({std::move(rep->layout), base});
    }
    out.quality_chains.push_back({base, kQualityStream, kSessionEcos});
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "cold-1117" || name == "session-1117" || name == "mixed-1117" ||
         name == "isolated-1117";
}

std::uint64_t edit_stream(std::uint64_t run_seed, std::uint64_t client) {
  return mix(run_seed, 0xEC0 + client);
}

TrafficResult run_traffic(const RunSpec& spec, Tracer& tracer) {
  TrafficResult out;
  std::atomic<std::uint64_t> request_ids{1};
  Ctx ctx;
  ctx.tracer = &tracer;
  ctx.request_ids = &request_ids;
  const bool isolated = spec.workload == "isolated-1117";

  // Set-up, timed kSetups times: daemon start (+ durable-cache scan),
  // connect, and the warm-up fills. The last daemon serves the traffic.
  Log setup_log;
  Warmed warm;
  std::unique_ptr<DaemonProcess> daemon;
  for (int s = 0; s < kSetups; ++s) {
    if (daemon) (void)daemon->shutdown(nullptr);
    DaemonConfig cfg;
    cfg.fork_isolation = isolated;
    if (isolated) cfg.cache_dir = spec.scratch_dir + "/cache-" + std::to_string(s);
    const auto t0 = Clock::now();
    daemon = std::make_unique<DaemonProcess>(spec.exe, cfg);
    ctx.port = daemon->port();
    {
      Conn conn(ctx, setup_log);
      if (!conn.ok()) break;
      for (const unsigned k : kWarmSeeds) {
        auto rep = conn.place(k, true, false, false);
        if (!rep) break;
        if (s == 0) {
          warm.homes[k] = qubit_homes(rep->layout);
          warm.bodies[k] = std::move(rep->layout);
        } else if (rep->layout != warm.bodies[k]) {
          setup_log.fail("set-up fill of seed " + std::to_string(k) + " differs between set-ups");
        }
      }
    }
    out.setup_s.push_back(ms_since(t0) / 1e3);
  }
  setup_log.merge_into(out);
  if (out.failed > 0 || !daemon) return out;

  std::vector<Log> logs(spec.workload == "cold-1117" || spec.workload == "session-1117"
                            ? 1
                            : kMixedClients);
  if (spec.workload == "cold-1117") {
    cold_workload(spec, ctx, warm, logs[0], out);
  } else if (spec.workload == "session-1117") {
    session_workload(spec, ctx, warm, logs[0], out);
  } else {
    mixed_workload(spec, ctx, warm, logs, out);
  }
  for (const Log& log : logs) log.merge_into(out);

  if (tracer.enabled()) {
    // The socket-plus-dispatch floor under every latency.
    Log probe_log;
    Conn conn(ctx, probe_log);
    std::vector<double> rtt;
    for (int i = 0; conn.ok() && i < kStatsProbes; ++i) {
      const auto t0 = Clock::now();
      if (!conn.stats()) break;
      rtt.push_back(ms_since(t0));
    }
    out.stats_rtt_p50_ms = median(rtt);
  }
  out.final_stats = daemon->shutdown(&out.peak_rss_mb);
  return out;
}

Verification verify_traffic(const TrafficResult& traffic) {
  Verification v;
  auto fail = [&v](const std::string& why) {
    ++v.failed;
    if (v.errors.size() < 20) v.errors.push_back(why);
  };

  // Local references for every GP seed a reply claimed a layout for.
  std::set<unsigned> seeds;
  for (const PlaceClaim& p : traffic.places) seeds.insert(p.seed);
  for (const auto& q : traffic.quality_chains) seeds.insert(q.base_seed);
  for (const FinalLayout& f : traffic.finals) seeds.insert(f.base_seed);
  const std::vector<unsigned> seed_list(seeds.begin(), seeds.end());
  std::vector<Reference> refs(seed_list.size());
  qgdp::parallel_for(0, seed_list.size(), 0,
                     [&](std::size_t i) { refs[i] = make_reference(seed_list[i]); });
  std::map<unsigned, const Reference*> ref_of;
  for (const Reference& r : refs) ref_of[r.seed] = &r;

  for (const PlaceClaim& p : traffic.places) {
    const Reference& ref = *ref_of.at(p.seed);
    const std::string what = "place of seed " + std::to_string(p.seed);
    if (p.hash != ref.hash) fail(what + ": served layout != local Pipeline::run");
    if (p.cached != p.expect_cached) fail(what + ": wrong cache flag");
  }

  // ECO chains: replay each (base, stream) once, as far as any checked
  // claim or quality figure reaches.
  using ChainKey = std::pair<unsigned, std::uint64_t>;
  std::map<ChainKey, int> rounds_of;
  for (const EcoClaim& e : traffic.ecos) {
    int& n = rounds_of[{e.base_seed, e.stream_seed}];
    n = std::max(n, e.round + 1);
  }
  std::map<ChainKey, int> quality_rounds;
  for (const auto& q : traffic.quality_chains) {
    if (q.rounds == 0) continue;
    quality_rounds[{q.base_seed, q.stream_seed}] = q.rounds;
    int& n = rounds_of[{q.base_seed, q.stream_seed}];
    n = std::max(n, q.rounds);
  }
  const std::vector<std::pair<ChainKey, int>> chains(rounds_of.begin(), rounds_of.end());
  std::vector<std::vector<std::string>> hashes(chains.size());
  std::vector<qgdp::QuantumNetlist> quality_layouts(chains.size());
  std::vector<std::string> chain_errors(chains.size());
  qgdp::parallel_for(0, chains.size(), 0, [&](std::size_t i) {
    const auto& [key, rounds] = chains[i];
    const Reference& ref = *ref_of.at(key.first);
    try {
      const auto q = quality_rounds.find(key);
      if (q != quality_rounds.end()) {
        hashes[i] = replay_eco_chain(ref, key.second, q->second, &quality_layouts[i]);
        if (rounds > q->second) hashes[i] = replay_eco_chain(ref, key.second, rounds);
      } else {
        hashes[i] = replay_eco_chain(ref, key.second, rounds);
      }
    } catch (const std::exception& e) {
      chain_errors[i] = e.what();
    }
  });
  std::map<ChainKey, std::size_t> chain_index;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chain_index[chains[i].first] = i;
    if (!chain_errors[i].empty()) fail(chain_errors[i]);
  }
  for (const EcoClaim& e : traffic.ecos) {
    const auto& h = hashes[chain_index.at({e.base_seed, e.stream_seed})];
    if (static_cast<std::size_t>(e.round) >= h.size() || h[static_cast<std::size_t>(e.round)] != e.hash) {
      fail("eco round " + std::to_string(e.round) + " on seed " + std::to_string(e.base_seed) +
           ": served layout != local replay");
    }
  }

  // Every final layout, parsed back, must pass the design-rule audit.
  for (const FinalLayout& f : traffic.finals) {
    std::istringstream is(f.text);
    const qgdp::QuantumNetlist nl = qgdp::read_layout(is);
    qgdp::AuditOptions aopt;
    aopt.qubit_min_spacing = ref_of.at(f.base_seed)->spacing;
    const qgdp::AuditReport audit = qgdp::audit_layout(nl, aopt);
    if (!audit.clean()) {
      fail("final layout on seed " + std::to_string(f.base_seed) + " fails the audit (" +
           std::to_string(audit.violations.size()) + " violations)");
    }
  }

  // Quality of the workload's layouts, from the verified local copies.
  const auto& qc = traffic.quality_chains;
  std::vector<Quality> qualities(qc.size());
  std::vector<std::string> quality_errors(qc.size());
  qgdp::parallel_for(0, qc.size(), 0, [&](std::size_t i) {
    const Reference& ref = *ref_of.at(qc[i].base_seed);
    const qgdp::QuantumNetlist gp = gp_layout(qc[i].base_seed);
    if (qc[i].rounds == 0) {
      qualities[i] = measure_quality(ref.netlist, gp);
      const double d = ref.stats.qubit.total_displacement;
      if (std::abs(qualities[i].qubit_disp - d) > 1e-9 * std::max(1.0, d)) {
        quality_errors[i] = "qubit displacement extraction disagrees with the legalizer";
      }
    } else {
      qualities[i] = measure_quality(
          quality_layouts[chain_index.at({qc[i].base_seed, qc[i].stream_seed})], gp);
    }
  });
  for (const std::string& e : quality_errors) {
    if (!e.empty()) fail(e);
  }
  const Quality m = mean_quality(qualities);
  v.qubit_disp = m.qubit_disp;
  v.crossings = m.crossings;
  v.ph_pct = m.ph_pct;
  v.fidelity_mean = m.fidelity_mean;
  return v;
}

}  // namespace perfbench
