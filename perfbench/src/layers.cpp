#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/incremental.h"
#include "core/qubit_legalizer.h"
#include "core/resonator_legalizer.h"
#include "io/serialization.h"
#include "metrics/audit.h"
#include "netlist/netlist_builder.h"
#include "reference.h"
#include "runtime/batch_runner.h"
#include "runtime/thread_pool.h"
#include "sample_stats.h"
#include "server/cache_store.h"
#include "server/layout_cache.h"
#include "server/socket_io.h"
#include "server/worker_pool.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace srv = qgdp::server;

constexpr int kReps = 3;
/// Untraced/traced pairs of the GP-free replay behind trace.overhead_pct.
constexpr int kOverheadReps = 11;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("layer replay: " + what);
}

/// The daemon's options fingerprint for a default place request.
constexpr const char* kDefaultFingerprint = "dp=0;gp_levels=0";

/// A connected loopback TCP pair, the transport under every reply.
class Loopback {
 public:
  Loopback() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool ok = listener >= 0 &&
                    ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
                    ::listen(listener, 1) == 0 &&
                    ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    if (ok) {
      rx_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (rx_ >= 0 && ::connect(rx_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        tx_ = ::accept(listener, nullptr, nullptr);
      }
    }
    if (listener >= 0) ::close(listener);
    require(rx_ >= 0 && tx_ >= 0, "loopback socket pair");
    const int one = 1;
    ::setsockopt(tx_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    srv::detail::prepare_socket(tx_);
    srv::detail::prepare_socket(rx_);
  }
  ~Loopback() {
    if (tx_ >= 0) ::close(tx_);
    if (rx_ >= 0) ::close(rx_);
  }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  /// Moves one encoded frame from the sending to the receiving end;
  /// the span covers the send start to the last byte received.
  void transfer(const std::string& frame, Tracer& tracer, std::uint64_t request) {
    std::atomic<bool> ready{false};
    std::atomic<bool> go{false};
    srv::detail::IoStatus sent = srv::detail::IoStatus::kError;
    std::thread sender([&] {
      ready.store(true);
      while (!go.load()) {
      }
      sent = srv::detail::write_all(tx_, frame.data(), frame.size());
    });
    while (!ready.load()) {
    }
    srv::detail::ReceivedFrame got;
    srv::detail::IoStatus received = srv::detail::IoStatus::kError;
    {
      ScopedSpan span(tracer, "server.reply_transfer", request);
      go.store(true);
      received = srv::detail::recv_frame(rx_, &got);
    }
    sender.join();
    require(sent == srv::detail::IoStatus::kOk && received == srv::detail::IoStatus::kOk &&
                got.payload.size() + srv::kFrameHeaderSize == frame.size(),
            "loopback transfer");
  }

 private:
  int tx_{-1};
  int rx_{-1};
};

/// Counts and checks of one replay iteration.
struct Iteration {
  qgdp::GlobalPlacerStats gp;
  qgdp::QubitLegalizeResult qubit;
  qgdp::EcoResult eco;
  std::size_t layout_bytes{0};
};

/// What a replayed cold place leaves for the requests after it.
struct Placed {
  qgdp::QuantumNetlist nl;
  std::string text;
};

/// A cold place, in the daemon's order of calls; fills `cache`.
Placed replay_cold(const Reference& ref, const std::string& served_key, srv::LayoutCache& cache,
                   Tracer& tracer, Loopback& wire, std::uint64_t request, Iteration& it) {
  Placed out;
  qgdp::QuantumNetlist& nl = out.nl;
  std::string& text = out.text;
  std::string key;
  {
    ScopedSpan root(tracer, "replay.cold_place", request);
    {
      ScopedSpan s(tracer, "netlist.build", request);
      nl = qgdp::build_netlist(device());
    }
    {
      ScopedSpan s(tracer, "placement.gp", request);
      qgdp::GlobalPlacerOptions gopt;
      gopt.seed = ref.seed;
      it.gp = qgdp::GlobalPlacer(gopt).place(nl);
    }
    {
      ScopedSpan s(tracer, "core.qubit_lg", request);
      qgdp::MacroLegalizerOptions mopt = qgdp::MacroLegalizer::quantum().options();
      mopt.solver = qgdp::PipelineOptions{}.solver;
      it.qubit = qgdp::QubitLegalizer(mopt).legalize(nl);
    }
    {
      ScopedSpan s(tracer, "core.resonator_lg", request);
      qgdp::BinGrid grid(nl.die());
      for (const auto& q : nl.qubits()) grid.block_rect(q.rect());
      (void)qgdp::ResonatorLegalizer{}.legalize(nl, grid);
    }
    {
      ScopedSpan s(tracer, "io.write_layout", request);
      std::ostringstream os;
      qgdp::write_layout(nl, os);
      text = os.str();
    }
    srv::PlaceReply rep;
    {
      ScopedSpan s(tracer, "server.layout_hash", request);
      rep.layout_hash = srv::hex64(srv::fnv1a64(text));
    }
    {
      ScopedSpan s(tracer, "server.topology_lookup", request);
      require(qgdp::topology_by_name(kTopology).has_value(), "topology lookup");
    }
    {
      ScopedSpan s(tracer, "server.cache_key", request);
      key = srv::layout_cache_key(device(), kFlow, ref.seed, kDefaultFingerprint);
    }
    {
      ScopedSpan s(tracer, "server.cache_put", request);
      cache.put(key, text);
    }
    std::string frame;
    {
      ScopedSpan s(tracer, "server.place_reply_codec", request);
      rep.cache_key = key;
      rep.layout = text;
      frame = srv::encode_frame(srv::FrameType::kPlaceReply, srv::format_place_reply(rep));
      require(srv::parse_place_reply(frame.substr(srv::kFrameHeaderSize)).has_value(),
              "place reply codec");
    }
    wire.transfer(frame, tracer, request);
    require(rep.layout_hash == ref.hash, "replayed cold place != served layout");
    require(served_key.empty() || key == served_key, "replayed cache key != served key");
    it.layout_bytes = text.size();
  }
  return out;
}

/// The requests that follow a cold place, none of which runs GP: a warm
/// hit on the cached layout, a materialized session's ECO, the load a
/// session's first ECO after a hit pays, and the audit.
void replay_served(const Reference& ref, const Placed& placed, srv::LayoutCache& cache,
                   const std::string& eco_hash, std::uint64_t stream, Tracer& tracer,
                   Loopback& wire, std::uint64_t request, Iteration& it) {
  const std::string& text = placed.text;
  {
    ScopedSpan root(tracer, "replay.warm_hit", request);
    srv::PlaceReply rep;
    std::string k;
    {
      ScopedSpan s(tracer, "server.topology_lookup", request);
      require(qgdp::topology_by_name(kTopology).has_value(), "topology lookup");
    }
    {
      ScopedSpan s(tracer, "server.cache_key", request);
      k = srv::layout_cache_key(device(), kFlow, ref.seed, kDefaultFingerprint);
    }
    std::optional<std::string> hit;
    {
      ScopedSpan s(tracer, "server.cache_get", request);
      hit = cache.get(k);
    }
    require(hit.has_value(), "replayed cache lookup missed");
    {
      ScopedSpan s(tracer, "server.layout_hash", request);
      rep.layout_hash = srv::hex64(srv::fnv1a64(*hit));
    }
    std::string frame;
    {
      ScopedSpan s(tracer, "server.place_reply_codec", request);
      rep.cached = true;
      rep.cache_key = k;
      rep.layout = std::move(*hit);
      frame = srv::encode_frame(srv::FrameType::kPlaceReply, srv::format_place_reply(rep));
      require(srv::parse_place_reply(frame.substr(srv::kFrameHeaderSize)).has_value(),
              "warm reply codec");
    }
    wire.transfer(frame, tracer, request);
  }
  // A materialized session's ECO: the live netlist and its grid exist.
  qgdp::QuantumNetlist session = placed.nl;
  qgdp::BinGrid grid = qgdp::IncrementalLegalizer::grid_for(session);
  const std::vector<QubitHome> homes = qubit_homes(text);
  std::vector<qgdp::QubitMove> moves;
  for (const auto& m : eco_round(homes, stream, 0).moves) {
    moves.push_back({m.qubit, {m.x, m.y}});
  }
  {
    ScopedSpan root(tracer, "replay.eco", request);
    qgdp::EcoOptions eopt;
    eopt.min_spacing = ref.spacing;
    eopt.policy = qgdp::EcoOptions::BlockPolicy::kAbacusWindow;
    {
      ScopedSpan s(tracer, "core.eco_edit", request);
      it.eco = qgdp::IncrementalLegalizer(eopt).move_qubits(session, grid, moves);
    }
    std::string after;
    {
      ScopedSpan s(tracer, "io.write_layout", request);
      std::ostringstream os;
      qgdp::write_layout(session, os);
      after = os.str();
    }
    srv::EcoReply rep;
    {
      ScopedSpan s(tracer, "server.layout_hash", request);
      rep.layout_hash = srv::hex64(srv::fnv1a64(after));
    }
    {
      ScopedSpan s(tracer, "server.eco_reply_codec", request);
      rep.success = it.eco.success;
      const std::string frame =
          srv::encode_frame(srv::FrameType::kEcoReply, srv::format_eco_reply(rep));
      require(srv::parse_eco_reply(frame.substr(srv::kFrameHeaderSize)).has_value(),
              "eco reply codec");
    }
    require(it.eco.success && it.eco.window_violations == 0 && rep.layout_hash == eco_hash,
            "replayed ECO != served ECO");
  }
  {
    // What a session's first ECO after a warm hit pays on top.
    ScopedSpan root(tracer, "replay.first_eco_load", request);
    qgdp::QuantumNetlist parsed;
    {
      ScopedSpan s(tracer, "io.read_layout", request);
      std::istringstream is(text);
      parsed = qgdp::read_layout(is);
    }
    {
      ScopedSpan s(tracer, "core.grid_for", request);
      (void)qgdp::IncrementalLegalizer::grid_for(parsed);
    }
  }
  {
    ScopedSpan s(tracer, "metrics.audit", request);
    qgdp::AuditOptions aopt;
    aopt.qubit_min_spacing = ref.spacing;
    require(qgdp::audit_layout(placed.nl, aopt).clean(), "replayed layout fails the audit");
  }
}

double med(const std::map<std::string, std::vector<double>>& self, const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : median(it->second);
}

}  // namespace

LayerReport measure_layers(const RunSpec& spec, const TrafficResult& traffic, Tracer& tracer,
                           const std::string& trace_path) {
  LayerReport out;
  auto put = [&out](const std::string& name, double value, const std::string& unit) {
    out.metrics[name] = {value, unit};
  };
  const unsigned seed = kColdSeeds[0];
  const Reference ref = make_reference(seed);
  const std::uint64_t stream = edit_stream(spec.seed, seed);
  const std::string eco_hash = replay_eco_chain(ref, stream, 1).front();
  std::string served_key;
  for (const PlaceClaim& p : traffic.places) {
    if (p.seed == seed && p.cached) served_key = p.cache_key;
  }
  Loopback wire;

  // Traced cold places give the cold-path layers. Their parallel
  // sections run inline, as in the served daemon (serve_main).
  tracer.set_enabled(true);
  srv::LayoutCache cache;
  Placed placed;
  std::vector<Iteration> iters(kReps);
  (void)qgdp::ThreadPool::shared();  // built with its threads, for the jobs=2 GP below
  qgdp::set_serial_execution(true);
  for (int r = 0; r < kReps; ++r) {
    placed = replay_cold(ref, served_key, cache, tracer, wire, static_cast<std::uint64_t>(r + 1),
                         iters[static_cast<std::size_t>(r)]);
  }
  qgdp::set_serial_execution(false);
  // The GP-free requests after them, untraced and traced in turn: the
  // wall-time difference is the tracing overhead; the traced ones give
  // the warm-hit and ECO layers.
  std::vector<double> untraced_ms, traced_ms;
  for (int r = 0; r < kOverheadReps; ++r) {
    tracer.set_enabled(false);
    auto t0 = Clock::now();
    replay_served(ref, placed, cache, eco_hash, stream, tracer, wire, 0, iters.back());
    untraced_ms.push_back(ms_since(t0));
    tracer.set_enabled(true);
    t0 = Clock::now();
    replay_served(ref, placed, cache, eco_hash, stream, tracer, wire,
                  static_cast<std::uint64_t>(kReps + 1 + r), iters.back());
    traced_ms.push_back(ms_since(t0));
  }

  // GP at jobs=1 and jobs=2 on the same netlist and seed; positions
  // must be bit-identical.
  const qgdp::QuantumNetlist fresh = qgdp::build_netlist(device());
  for (int r = 0; r < kReps; ++r) {
    qgdp::QuantumNetlist a = fresh;
    qgdp::QuantumNetlist b = fresh;
    qgdp::GlobalPlacerOptions gopt;
    gopt.seed = seed;
    gopt.jobs = 1;
    {
      ScopedSpan s(tracer, "placement.gp_jobs1", 100 + r);
      (void)qgdp::GlobalPlacer(gopt).place(a);
    }
    gopt.jobs = 2;
    {
      ScopedSpan s(tracer, "placement.gp_jobs2", 100 + r);
      (void)qgdp::GlobalPlacer(gopt).place(b);
    }
    require(qgdp::identical_layout(a, b), "GP positions differ between jobs=1 and jobs=2");
  }

  // Fork-isolated runs of the same place and ECO, and the .qlc codec.
  {
    srv::WorkerPoolOptions wopt;
    wopt.hedging = false;  // one child per run, so the span is one run
    srv::WorkerPool pool(wopt);
    srv::PlaceRequest preq;
    preq.topology = kTopology;
    preq.flow = kFlow;
    preq.seed = seed;
    const std::string key = srv::layout_cache_key(device(), kFlow, seed, kDefaultFingerprint);
    const std::vector<QubitHome> homes = qubit_homes(ref.text);
    const srv::EcoRequest ereq = eco_round(homes, stream, 0);
    qgdp::CacheStoreOptions sopt;
    sopt.dir = spec.scratch_dir;
    const qgdp::CacheStore store(sopt);
    for (int r = 0; r < kReps; ++r) {
      const std::uint64_t id = 200 + static_cast<std::uint64_t>(r);
      srv::WorkerResult w;
      {
        ScopedSpan s(tracer, "worker.run_place", id);
        w = pool.run_place(preq, key, ref.netlist.qubit_count());
      }
      require(w.status == srv::StatusCode::kOk && srv::hex64(srv::fnv1a64(w.layout)) == ref.hash,
              "forked place != local layout");
      {
        ScopedSpan s(tracer, "worker.run_eco", id);
        w = pool.run_eco(ereq, ref.text, ref.spacing, ref.netlist.qubit_count());
      }
      require(w.status == srv::StatusCode::kOk && srv::hex64(srv::fnv1a64(w.layout)) == eco_hash,
              "forked ECO != local replay");
      std::string bytes;
      {
        ScopedSpan s(tracer, "cache_store.encode", id);
        bytes = store.encode_entry({key, ref.spacing, ref.text});
      }
      qgdp::CacheStoreEntry back;
      bool decoded = false;
      {
        ScopedSpan s(tracer, "cache_store.decode", id);
        decoded = store.decode_entry(bytes, key, &back);
      }
      require(decoded && back.payload == ref.text, ".qlc round trip");
    }
  }
  tracer.set_enabled(false);
  const std::vector<Span> spans = tracer.spans();
  {
    std::ofstream os(trace_path);
    write_chrome_trace(spans, os);
    require(os.good(), "cannot write " + trace_path);
  }
  const auto self = self_times_ms(spans);

  // ---- per-layer metrics ------------------------------------------------
  std::vector<double> gp_rep, gp_net, gp_int, gp_coarse;
  for (const Iteration& it : iters) {
    gp_rep.push_back(it.gp.repulsion_ms);
    gp_net.push_back(it.gp.net_ms);
    gp_int.push_back(it.gp.integrate_ms);
    gp_coarse.push_back(it.gp.coarsen_ms);
  }
  const Iteration& last = iters.back();
  put("netlist.build_ms", med(self, "netlist.build"), "ms");
  put("placement.gp_ms", med(self, "placement.gp"), "ms");
  put("placement.gp_repulsion_ms", median(gp_rep), "ms");
  put("placement.gp_net_ms", median(gp_net), "ms");
  put("placement.gp_integrate_ms", median(gp_int), "ms");
  put("placement.gp_coarsen_ms", median(gp_coarse), "ms");
  put("placement.gp_iterations", last.gp.iterations_run, "count");
  put("placement.gp_levels", last.gp.levels_used, "count");
  put("placement.gp_grid_flattens", last.gp.hash_rebuilds, "count");
  put("placement.gp_rebucketed_bodies", static_cast<double>(last.gp.rebucketed_bodies), "count");
  const double jobs1 = med(self, "placement.gp_jobs1");
  const double jobs2 = med(self, "placement.gp_jobs2");
  put("placement.gp_jobs1_ms", jobs1, "ms");
  put("placement.gp_jobs2_ms", jobs2, "ms");
  put("placement.gp_jobs2_efficiency", jobs2 > 0 ? jobs1 / (2.0 * jobs2) : 0.0, "ratio");
  put("core.qubit_lg_ms", med(self, "core.qubit_lg"), "ms");
  put("core.qubit_lg_solver_sweeps", last.qubit.solver_sweeps, "count");
  put("core.qubit_lg_nodes_relaxed", static_cast<double>(last.qubit.solver_nodes_relaxed), "count");
  put("core.resonator_lg_ms", med(self, "core.resonator_lg"), "ms");
  put("core.eco_edit_ms", med(self, "core.eco_edit"), "ms");
  put("core.eco_bins_touched", last.eco.grid_bins_touched, "count");
  put("core.eco_replaced_blocks", last.eco.replaced_blocks, "count");
  put("core.eco_window_growths", last.eco.window_growths, "count");
  put("core.grid_for_ms", med(self, "core.grid_for"), "ms");
  put("io.write_layout_ms", med(self, "io.write_layout"), "ms");
  put("io.read_layout_ms", med(self, "io.read_layout"), "ms");
  put("io.layout_bytes", static_cast<double>(last.layout_bytes), "bytes");
  put("metrics.audit_ms", med(self, "metrics.audit"), "ms");

  put("server.topology_lookup_ms", med(self, "server.topology_lookup"), "ms");
  put("server.cache_key_ms", med(self, "server.cache_key"), "ms");
  put("server.layout_hash_ms", med(self, "server.layout_hash"), "ms");
  put("server.cache_get_ms", med(self, "server.cache_get"), "ms");
  put("server.cache_put_ms", med(self, "server.cache_put"), "ms");
  put("server.place_reply_codec_ms", med(self, "server.place_reply_codec"), "ms");
  put("server.eco_reply_codec_ms", med(self, "server.eco_reply_codec"), "ms");
  put("server.reply_transfer_ms", med(self, "server.reply_transfer"), "ms");
  put("server.stats_rtt_p50_ms", traffic.stats_rtt_p50_ms, "ms");
  const srv::StatsReply& st = traffic.final_stats;
  const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  put("server.cache_lookups", lookups, "count");
  put("server.cache_hit_ratio", lookups > 0 ? static_cast<double>(st.cache_hits) / lookups : 0.0,
      "ratio");
  put("server.cache_evictions", static_cast<double>(st.cache_evictions), "count");
  put("server.shed_places", static_cast<double>(st.shed_places), "count");
  put("server.timeouts", static_cast<double>(st.timeouts), "count");
  put("server.protocol_errors", static_cast<double>(st.protocol_errors), "count");
  put("server.internal_errors", static_cast<double>(st.internal_errors), "count");
  put("server.validation_rejects", static_cast<double>(st.validation_rejects), "count");

  const double run_place = med(self, "worker.run_place");
  // The in-process job on the same request, with GP at jobs=1 as the
  // worker child runs it (serially).
  const double in_process = med(self, "netlist.build") + jobs1 + med(self, "core.qubit_lg") +
                            med(self, "core.resonator_lg") + med(self, "io.write_layout") +
                            med(self, "server.layout_hash");
  put("worker.run_place_ms", run_place, "ms");
  put("worker.fork_overhead_ms", run_place - in_process, "ms");
  put("worker.run_eco_ms", med(self, "worker.run_eco"), "ms");
  put("worker.hedges_launched", static_cast<double>(st.hedges_launched), "count");
  put("worker.hedge_wins", static_cast<double>(st.hedge_wins), "count");
  put("worker.hedge_useful_ratio",
      st.hedges_launched > 0
          ? static_cast<double>(st.hedge_wins) / static_cast<double>(st.hedges_launched)
          : 0.0,
      "ratio");
  put("worker.crashes", static_cast<double>(st.worker_crashes), "count");
  put("worker.recycled", static_cast<double>(st.workers_recycled), "count");
  put("cache_store.encode_ms", med(self, "cache_store.encode"), "ms");
  put("cache_store.decode_ms", med(self, "cache_store.decode"), "ms");
  put("cache_store.entries_flushed", static_cast<double>(st.entries_flushed), "count");

  // Each traced replay against the untraced one just before it, so a
  // host drift over the pairs cancels.
  std::vector<double> overhead_pct;
  for (std::size_t r = 0; r < traced_ms.size(); ++r) {
    overhead_pct.push_back(100.0 * (traced_ms[r] - untraced_ms[r]) / untraced_ms[r]);
  }
  put("trace.overhead_pct", median(overhead_pct), "%");
  put("trace.overhead_base_ms", median(untraced_ms), "ms");
  put("trace.overhead_reps", kOverheadReps, "count");

  // ---- attribution --------------------------------------------------------
  const bool isolated = spec.workload == "isolated-1117";
  const bool fills = spec.workload == "mixed-1117" || isolated;  // cold places fill the cache
  struct Breakdown {
    std::string kind;
    double client_p50{0.0};
    std::vector<std::string> layers;
  };
  std::vector<std::string> cold_layers =
      isolated ? std::vector<std::string>{"worker.run_place"}
               : std::vector<std::string>{"netlist.build", "placement.gp", "core.qubit_lg",
                                          "core.resonator_lg", "io.write_layout",
                                          "server.layout_hash"};
  cold_layers.insert(cold_layers.end(), {"server.topology_lookup", "server.cache_key",
                                         "server.place_reply_codec",
                                         "server.reply_transfer", "server.stats_rtt"});
  if (fills) cold_layers.push_back("server.cache_put");
  const std::vector<std::string> warm_layers = {"server.topology_lookup", "server.cache_key",
                                                "server.cache_get",
                                                "server.layout_hash", "server.place_reply_codec",
                                                "server.reply_transfer", "server.stats_rtt"};
  std::vector<std::string> eco_layers =
      isolated ? std::vector<std::string>{"worker.run_eco"}
               : std::vector<std::string>{"core.eco_edit", "io.write_layout", "server.layout_hash"};
  eco_layers.insert(eco_layers.end(), {"server.eco_reply_codec", "server.stats_rtt"});
  const std::vector<Breakdown> breakdowns = {
      {"cold", median(traffic.cold_ms), cold_layers},
      {"warm", median(traffic.warm_ms), warm_layers},
      {"eco", median(traffic.eco_ms), eco_layers},
  };
  for (const Breakdown& b : breakdowns) {
    double sum = 0.0;
    std::ostringstream line;
    line << std::fixed << std::setprecision(3);
    line << "attribution " << b.kind << " (" << spec.workload << "):";
    for (const std::string& layer : b.layers) {
      const double ms = layer == "server.stats_rtt" ? traffic.stats_rtt_p50_ms : med(self, layer);
      sum += ms;
      line << " " << layer << "=" << ms;
    }
    line << " | attributed " << sum << " ms of client p50 " << b.client_p50
         << " ms, unattributed " << (b.client_p50 - sum) << " ms";
    out.lines.push_back(line.str());
    put("trace." + b.kind + "_attributed_ratio", b.client_p50 > 0 ? sum / b.client_p50 : 0.0,
        "ratio");
    put("trace." + b.kind + "_base_ms", b.client_p50, "ms");
  }
  out.lines.push_back("trace: " + std::to_string(spans.size()) + " spans written to " + trace_path);
  return out;
}

}  // namespace perfbench
