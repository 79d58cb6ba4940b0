#include "stats/replicated_stats.h"

#include <cmath>

namespace muzha {

void ReplicatedStats::add(double x) {
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double ReplicatedStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double ReplicatedStats::stddev() const { return std::sqrt(variance()); }

}  // namespace muzha
