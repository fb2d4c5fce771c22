// The served side of the benchmark: qgdpd in a fresh child process.
//
// The benchmark binary re-executes itself in `--serve` mode, which
// starts a Qgdpd with QgdpdOptions defaults (plus fork isolation and a
// durable cache directory when asked), its pipelines run serially, and
// prints its ephemeral port.
// Running the daemon in its own process keeps the client, the local
// references and the quality metrics out of its memory, so the peak
// RSS read at shutdown belongs to the daemon alone.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "server/protocol.h"

namespace perfbench {

struct DaemonConfig {
  bool fork_isolation{false};
  std::string cache_dir;  ///< empty = in-memory cache only
};

class DaemonProcess {
 public:
  /// Spawns `exe --serve ...` and waits for its port. Throws
  /// std::runtime_error if the daemon does not come up.
  DaemonProcess(const std::string& exe, const DaemonConfig& cfg);
  /// Kills and reaps the daemon if shutdown() was not reached.
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Drains the daemon through the protocol's shutdown request, reaps
  /// it, and returns its final stats. `*peak_rss_mb` receives the
  /// daemon process's high-water RSS (ru_maxrss). Throws on failure.
  qgdp::server::StatsReply shutdown(double* peak_rss_mb);

 private:
  pid_t pid_{-1};
  std::uint16_t port_{0};
};

/// Entry point of `--serve` mode; returns the process exit code.
int serve_main(const DaemonConfig& cfg);

}  // namespace perfbench
