#include "reference.h"

#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>

#include "circuits/generators.h"
#include "circuits/mapper.h"
#include "core/incremental.h"
#include "fidelity/noise_model.h"
#include "io/serialization.h"
#include "metrics/clusters.h"
#include "metrics/crossings.h"
#include "metrics/hotspots.h"
#include "netlist/netlist_builder.h"

namespace perfbench {

using qgdp::QuantumNetlist;

const qgdp::DeviceSpec& device() {
  static const qgdp::DeviceSpec spec = [] {
    auto s = qgdp::topology_by_name(kTopology);
    if (!s) throw std::runtime_error(std::string("unknown topology ") + kTopology);
    return *s;
  }();
  return spec;
}

Reference make_reference(unsigned seed) {
  Reference ref;
  ref.seed = seed;
  qgdp::PipelineOptions opt;
  opt.legalizer = qgdp::LegalizerKind::kQgdp;
  opt.gp.seed = seed;
  opt.gp.jobs = 1;  // references run side by side; positions do not depend on jobs
  ref.netlist = qgdp::build_netlist(device());
  ref.stats = qgdp::Pipeline(opt).run(ref.netlist).stats;
  std::ostringstream os;
  qgdp::write_layout(ref.netlist, os);
  ref.text = os.str();
  ref.hash = qgdp::server::hex64(qgdp::server::fnv1a64(ref.text));
  ref.spacing = ref.stats.qubit.spacing_used;
  return ref;
}

QuantumNetlist gp_layout(unsigned seed) {
  QuantumNetlist nl = qgdp::build_netlist(device());
  qgdp::GlobalPlacerOptions opt;
  opt.seed = seed;
  opt.jobs = 1;
  (void)qgdp::GlobalPlacer(opt).place(nl);
  return nl;
}

std::vector<QubitHome> qubit_homes(const std::string& qlay) {
  std::vector<QubitHome> out;
  std::istringstream is(qlay);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 2 || line[0] != 'q' || line[1] != ' ') continue;
    QubitHome h;
    std::istringstream ss(line.substr(2));
    ss >> h.id >> h.x >> h.y;
    if (!ss.fail()) out.push_back(h);
  }
  return out;
}

qgdp::server::EcoRequest eco_round(const std::vector<QubitHome>& homes, std::uint64_t stream,
                                   int round) {
  std::mt19937_64 rng(stream ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(round / 2 + 1)));
  const std::size_t stride = homes.size() / (kEcoQubits + 1);
  const std::size_t offset = stride > 0 ? rng() % stride : 0;
  const double skew = 0.25 * static_cast<double>(rng() % 4);
  qgdp::server::EcoRequest eco;
  eco.want_layout = false;
  for (int k = 0; k < kEcoQubits; ++k) {
    const QubitHome& h = homes.at(static_cast<std::size_t>(k + 1) * stride + offset);
    qgdp::server::EcoMove m;
    m.qubit = h.id;
    m.x = round % 2 == 0 ? h.x + 2.0 + skew : h.x;
    m.y = round % 2 == 0 ? h.y + 1.0 : h.y;
    eco.moves.push_back(m);
  }
  return eco;
}

std::vector<std::string> replay_eco_chain(const Reference& ref, std::uint64_t stream, int rounds,
                                          QuantumNetlist* final_layout) {
  const std::vector<QubitHome> homes = qubit_homes(ref.text);
  std::istringstream is(ref.text);
  QuantumNetlist nl = qgdp::read_layout(is);
  qgdp::BinGrid grid = qgdp::IncrementalLegalizer::grid_for(nl);
  qgdp::EcoOptions eopt;
  eopt.min_spacing = ref.spacing;
  eopt.policy = qgdp::EcoOptions::BlockPolicy::kAbacusWindow;
  const qgdp::IncrementalLegalizer eco(eopt);
  std::vector<std::string> hashes;
  for (int r = 0; r < rounds; ++r) {
    std::vector<qgdp::QubitMove> moves;
    for (const auto& m : eco_round(homes, stream, r).moves) moves.push_back({m.qubit, {m.x, m.y}});
    const qgdp::EcoResult res = eco.move_qubits(nl, grid, moves);
    if (!res.success || res.window_violations != 0) {
      throw std::runtime_error("local ECO replay failed at round " + std::to_string(r) +
                               " of seed " + std::to_string(ref.seed));
    }
    std::ostringstream os;
    qgdp::write_layout(nl, os);
    hashes.push_back(qgdp::server::hex64(qgdp::server::fnv1a64(os.str())));
  }
  if (final_layout) *final_layout = std::move(nl);
  return hashes;
}

Quality measure_quality(const QuantumNetlist& layout, const QuantumNetlist& gp) {
  Quality q;
  for (std::size_t i = 0; i < layout.qubit_count(); ++i) {
    const int id = static_cast<int>(i);
    q.qubit_disp += qgdp::distance(gp.qubit(id).pos, layout.qubit(id).pos);
  }
  q.crossings = qgdp::compute_crossings(layout).total;
  q.ph_pct = qgdp::compute_hotspots(layout).ph * 100.0;
  const qgdp::FidelityEstimator estimator(layout);
  const qgdp::SabreLiteMapper mapper(layout);
  double sum = 0.0;
  int count = 0;
  for (const auto& circuit : qgdp::paper_benchmarks()) {
    for (int seed = 0; seed < kFidelityMappings; ++seed) {
      sum += estimator.program_fidelity(mapper.map(circuit, static_cast<unsigned>(seed)));
      ++count;
    }
  }
  q.fidelity_mean = sum / count;
  return q;
}

Quality mean_quality(const std::vector<Quality>& qs) {
  Quality m;
  for (const Quality& q : qs) {
    m.qubit_disp += q.qubit_disp;
    m.crossings += q.crossings;
    m.ph_pct += q.ph_pct;
    m.fidelity_mean += q.fidelity_mean;
  }
  const double n = qs.empty() ? 1.0 : static_cast<double>(qs.size());
  m.qubit_disp /= n;
  m.crossings /= n;
  m.ph_pct /= n;
  m.fidelity_mean /= n;
  return m;
}

void check_golden_anchor(const std::string& golden_json) {
  // The flat one-entry-per-line format of tests/golden/table2_stats.json.
  std::map<std::string, double> golden;
  std::ifstream is(golden_json);
  std::string line;
  const std::string prefix = "Eagle/qGDP/";
  while (std::getline(is, line)) {
    const auto k0 = line.find('"');
    const auto k1 = k0 == std::string::npos ? k0 : line.find('"', k0 + 1);
    const auto colon = k1 == std::string::npos ? k1 : line.find(':', k1);
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(k0 + 1, k1 - k0 - 1);
    if (key.rfind(prefix, 0) != 0) continue;
    golden[key.substr(prefix.size())] = std::stod(line.substr(colon + 1));
  }
  if (golden.empty()) throw std::runtime_error("golden anchor: no Eagle/qGDP row in " + golden_json);

  // The golden test's path: GP once with seed 1, then the qGDP flow
  // from the shared GP positions.
  const QuantumNetlist gp = [] {
    QuantumNetlist nl = qgdp::build_netlist(qgdp::make_eagle127());
    qgdp::GlobalPlacerOptions opt;
    opt.seed = 1u;
    (void)qgdp::GlobalPlacer(opt).place(nl);
    return nl;
  }();
  QuantumNetlist nl = gp;
  qgdp::PipelineOptions opt;
  opt.legalizer = qgdp::LegalizerKind::kQgdp;
  opt.run_gp = false;
  const qgdp::PipelineResult stats = qgdp::Pipeline(opt).run(nl).stats;
  const Quality q = measure_quality(nl, gp);
  const qgdp::HotspotReport hs = qgdp::compute_hotspots(nl);

  const std::map<std::string, double> current = {
      {"qubit_disp", q.qubit_disp},
      {"block_disp", stats.blocks.total_displacement},
      {"spacing", stats.qubit.spacing_used},
      {"unified", qgdp::unified_edge_count(nl)},
      {"crossings", q.crossings},
      {"ph_pct", q.ph_pct},
      {"spacing_violations", hs.spacing_violations},
  };
  for (const auto& [name, expected] : golden) {
    const auto it = current.find(name);
    if (it == current.end()) throw std::runtime_error("golden anchor: unknown stat " + name);
    const double tol = 1e-6 * std::max(1.0, std::abs(expected));
    if (std::abs(it->second - expected) > tol) {
      std::ostringstream msg;
      msg << "golden anchor: Eagle/qGDP/" << name << " = " << it->second << ", golden "
          << expected;
      throw std::runtime_error(msg.str());
    }
  }
  // The displacement extracted from positions must equal the legalizer's own figure.
  if (std::abs(q.qubit_disp - stats.qubit.total_displacement) >
      1e-9 * std::max(1.0, stats.qubit.total_displacement)) {
    throw std::runtime_error("golden anchor: extracted qubit displacement disagrees with the legalizer");
  }
}

}  // namespace perfbench
