#include "sample_stats.h"

#include <algorithm>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<Tail> tail_of(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n <= kTailBeyond) return std::nullopt;
  const std::size_t block = n < 2 * kTailBlock ? n : kTailBlock;
  Tail t;
  t.samples = n;
  t.blocks = n / block;
  t.beyond = kTailBeyond;
  t.percentile = 100.0 * static_cast<double>(block - kTailBeyond) / static_cast<double>(block);
  std::vector<double> block_tails;
  for (auto first = v.begin() + static_cast<std::ptrdiff_t>(n % block); first != v.end();
       first += static_cast<std::ptrdiff_t>(block)) {
    const auto rank = first + static_cast<std::ptrdiff_t>(block - kTailBeyond - 1);
    std::nth_element(first, rank, first + static_cast<std::ptrdiff_t>(block));
    block_tails.push_back(*rank);
  }
  t.value = median(std::move(block_tails));
  return t;
}

}  // namespace perfbench
