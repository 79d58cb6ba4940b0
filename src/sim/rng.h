// Deterministic random number generation.
//
// All simulation randomness flows from a single seeded Rng owned by the
// Simulator, so a (scenario, seed) pair fully determines a run.
#pragma once

#include <cstdint>
#include <random>

namespace muzha {

// SplitMix64 finalizer (Steele et al.); bijective on 64-bit values, used as
// the mixing step of every seed derivation (per-run, per-shard, per-flow).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  // Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  // muzha-lint: allow(banned-seed): every Rng constructor seeds engine_ in its init list
  std::mt19937_64 engine_;
};

}  // namespace muzha
