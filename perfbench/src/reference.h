// Daemon-free references and quality metrics.
//
// Everything the served outputs are checked against is recomputed here
// through the library's public API: the layout of a place request
// (Pipeline::run + write_layout), the layout after a chain of ECO
// edits (IncrementalLegalizer on the parsed layout, the way a daemon
// session applies them), and the paper's quality metrics of a layout,
// extracted with the same public functions tests/golden_test.cpp uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "netlist/topologies.h"
#include "server/protocol.h"

namespace perfbench {

/// The benchmark's device and flow: heavy-hex, 23 chains x 39 columns
/// (1117 qubits, paper scale), legalized by the qGDP flow.
inline constexpr const char* kTopology = "heavyhex-23x39";
inline constexpr const char* kFlow = "qgdp";

[[nodiscard]] const qgdp::DeviceSpec& device();

/// A local run of the request the daemon serves for GP seed `seed`.
struct Reference {
  unsigned seed{0};
  qgdp::QuantumNetlist netlist;  ///< final layout
  qgdp::PipelineResult stats;
  std::string text;  ///< .qlay
  std::string hash;  ///< hex64(fnv1a64(text)), as in the daemon's replies
  double spacing{0.0};  ///< ECO spacing rule the daemon derives from the run
};

[[nodiscard]] Reference make_reference(unsigned seed);

/// Post-GP positions for `seed` (the displacement origin of Table II).
[[nodiscard]] qgdp::QuantumNetlist gp_layout(unsigned seed);

// ---- ECO edits ---------------------------------------------------------

struct QubitHome {
  int id{0};
  double x{0.0};
  double y{0.0};
};

/// Qubit positions from the "q <id> <x> <y> ..." lines of a .qlay text.
[[nodiscard]] std::vector<QubitHome> qubit_homes(const std::string& qlay);

/// Round `round` of the edit stream seeded by `stream`. Each pair of
/// rounds draws `kEcoQubits` qubits spread evenly over the id range
/// from a seeded offset, and a seeded push distance; the even round
/// pushes every picked qubit (2 + skew, 1) sites off its home, the odd
/// round pulls it back, so a stream oscillates instead of drifting.
inline constexpr int kEcoQubits = 8;
[[nodiscard]] qgdp::server::EcoRequest eco_round(const std::vector<QubitHome>& homes,
                                                 std::uint64_t stream, int round);

/// Replays the first `rounds` edits of `stream` on a reference layout
/// the way a session applies them (parse, derive the grid, move,
/// serialize) and returns the layout hash after each edit.
/// `*final_layout`, if given, receives the layout after the last edit.
/// Throws if an edit fails.
[[nodiscard]] std::vector<std::string> replay_eco_chain(const Reference& ref, std::uint64_t stream,
                                                        int rounds,
                                                        qgdp::QuantumNetlist* final_layout = nullptr);

// ---- quality -----------------------------------------------------------

struct Quality {
  double qubit_disp{0.0};     ///< Σ |qubit − its GP position| (Table II)
  double crossings{0.0};      ///< virtual-connection crossings (airbridges, Fig. 9)
  double ph_pct{0.0};         ///< frequency-hotspot proportion ph in % (Fig. 9)
  double fidelity_mean{0.0};  ///< mean program fidelity (Eq. 7), paper circuits
};

/// Mapping seeds per paper circuit for fidelity_mean.
inline constexpr int kFidelityMappings = 5;

[[nodiscard]] Quality measure_quality(const qgdp::QuantumNetlist& layout,
                                      const qgdp::QuantumNetlist& gp);
[[nodiscard]] Quality mean_quality(const std::vector<Quality>& qs);

/// Re-extracts the Eagle/qGDP row of Table II exactly as the golden test
/// builds it and compares it with `golden_json` (read only). Throws with
/// the first mismatching stat.
void check_golden_anchor(const std::string& golden_json);

}  // namespace perfbench
