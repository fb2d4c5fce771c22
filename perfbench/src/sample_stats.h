// Order statistics for latency samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

[[nodiscard]] double median(std::vector<double> v);

/// The tail of a latency sample. Within a block of m samples the tail
/// is the highest percentile that still has `kTailBeyond` samples
/// strictly above its rank: the sample of rank m - kTailBeyond
/// (1-based), percentile 100 * (m - kTailBeyond) / m. A run's samples,
/// in the order they were taken, are cut into consecutive blocks of
/// `kTailBlock` and the tail is the median of the block tails, so the
/// percentile is the same in every run and a host stall that slows a
/// few neighbouring requests moves one block, not the figure. The first
/// n mod kTailBlock samples (the start of the window) only count
/// towards the median. With fewer than 2 * kTailBlock samples all n
/// form one block. Needs n > kTailBeyond.
inline constexpr std::size_t kTailBeyond = 10;
inline constexpr std::size_t kTailBlock = 50;

struct Tail {
  double value{0.0};
  double percentile{0.0};  ///< in [0, 100), within a block
  std::size_t samples{0};  ///< n
  std::size_t blocks{0};   ///< blocks the tail is the median of
  std::size_t beyond{0};   ///< samples ranked above the tail in each block (== kTailBeyond)
};

[[nodiscard]] std::optional<Tail> tail_of(std::vector<double> v);

}  // namespace perfbench
