// Statistics over replicated runs.
//
// Every figure in the paper is an average over independent seeded runs;
// ReplicatedStats accumulates one metric across those replications and
// reports its mean and sample standard deviation. Benches aggregate each cell
// of a sweep table with one of these.
#pragma once

#include <cstddef>

namespace muzha {

class ReplicatedStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }

  // Sample variance / standard deviation (n-1 denominator); 0 when n < 2.
  double variance() const;
  double stddev() const;

 private:
  std::size_t n_ = 0;
  // Welford running moments: numerically stable regardless of magnitude.
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace muzha
