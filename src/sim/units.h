// Compile-time unit safety: strong quantity types for the simulator.
//
// The paper's model is built from dimensioned quantities — meters of
// carrier-sense range, seconds of Vegas base RTT, bits-per-second of
// channel rate, segments of TCP window — and passing them as bare
// `double` lets a swapped or mis-scaled argument compile silently. Each
// physical dimension gets its own phantom-typed Quantity instantiation with
// only dimensionally sound operators, so `Meters + Seconds`, an implicit
// `double -> Meters`, or a `Bytes` handed to a `Segments` parameter is a
// compile error (see tests/compile_fail/ for the negative-compilation
// suite). Zero overhead: every type is a trivially copyable wrapper the
// same size as its representation, and all operators are constexpr.
//
// Conversion rules (see DESIGN.md "Unit & quantity types" for the table):
//   Meters / Seconds            -> MetersPerSecond
//   Meters / MetersPerSecond    -> Seconds
//   MetersPerSecond * Seconds   -> Meters
//   to_bits(Bytes)              -> Bits          (exact, x8)
//   Bits / Seconds              -> BitsPerSecond
//   Bits / BitsPerSecond        -> Seconds       (serialization delay)
//   Segments / Seconds          -> SegmentsPerSecond
//   SegmentsPerSecond * Seconds -> Segments
//   to_sim_time(Seconds) / to_seconds(SimTime)   (checked, integer-ns clock)
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "sim/assert.h"
#include "sim/sim_time.h"

namespace muzha {

namespace unit_dim {
struct Length {};           // meters
struct Speed {};            // meters / second
struct Duration {};         // seconds (floating; SimTime is the ns clock)
struct DataSize {};         // bytes
struct BitCount {};         // bits
struct DataRate {};         // bits / second
struct SegmentCount {};     // TCP segments (the window currency)
struct SegmentRate {};      // segments / second
}  // namespace unit_dim

// One-dimensional quantity: a `Rep` tagged with a phantom dimension. Only
// same-dimension addition/subtraction and scalar scaling exist; everything
// else must go through the named cross-dimension operators below. The
// constructor is explicit, so no bare number converts silently.
template <typename Dim, typename Rep = double>
class Quantity {
 public:
  using dimension = Dim;
  using rep = Rep;

  constexpr Quantity() = default;
  explicit constexpr Quantity(Rep v) : v_(v) {}

  constexpr Rep value() const { return v_; }

  constexpr Quantity operator-() const { return Quantity(-v_); }
  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.v_ + b.v_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.v_ - b.v_);
  }
  friend constexpr Quantity operator*(Quantity a, Rep k) {
    return Quantity(a.v_ * k);
  }
  friend constexpr Quantity operator*(Rep k, Quantity a) {
    return Quantity(k * a.v_);
  }
  friend constexpr Quantity operator/(Quantity a, Rep k) {
    return Quantity(a.v_ / k);
  }
  // Ratio of two like quantities is dimensionless.
  friend constexpr Rep operator/(Quantity a, Quantity b) {
    return a.v_ / b.v_;
  }
  constexpr Quantity& operator+=(Quantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ -= o.v_;
    return *this;
  }
  constexpr Quantity& operator*=(Rep k) {
    v_ *= k;
    return *this;
  }
  constexpr Quantity& operator/=(Rep k) {
    v_ /= k;
    return *this;
  }
  friend constexpr auto operator<=>(Quantity, Quantity) = default;

 private:
  Rep v_ = Rep{};
};

using Meters = Quantity<unit_dim::Length>;
using MetersPerSecond = Quantity<unit_dim::Speed>;
using Seconds = Quantity<unit_dim::Duration>;
using Bytes = Quantity<unit_dim::DataSize, std::int64_t>;
using Bits = Quantity<unit_dim::BitCount, std::int64_t>;
using BitsPerSecond = Quantity<unit_dim::DataRate>;
using Segments = Quantity<unit_dim::SegmentCount>;
using SegmentsPerSecond = Quantity<unit_dim::SegmentRate>;

// Every quantity is layout- and cost-identical to its representation.
static_assert(std::is_trivially_copyable_v<Meters> &&
              sizeof(Meters) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Seconds> &&
              sizeof(Seconds) == sizeof(double));
static_assert(std::is_trivially_copyable_v<MetersPerSecond> &&
              sizeof(MetersPerSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<BitsPerSecond> &&
              sizeof(BitsPerSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Segments> &&
              sizeof(Segments) == sizeof(double));
static_assert(std::is_trivially_copyable_v<SegmentsPerSecond> &&
              sizeof(SegmentsPerSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Bytes> &&
              sizeof(Bytes) == sizeof(std::int64_t));
static_assert(std::is_trivially_copyable_v<Bits> &&
              sizeof(Bits) == sizeof(std::int64_t));

// A probability (or any [0, 1] fraction): range-DCHECKed at construction so
// a mis-scaled value (a percent, a dB, a byte count) trips immediately in
// debug builds instead of skewing Bernoulli draws silently.
class Probability {
 public:
  constexpr Probability() = default;
  explicit Probability(double p) : p_(p) {
    MUZHA_DCHECK(p >= 0.0 && p <= 1.0, "probability outside [0, 1]");
  }
  constexpr double value() const { return p_; }
  friend constexpr auto operator<=>(Probability, Probability) = default;

 private:
  double p_ = 0.0;
};
static_assert(std::is_trivially_copyable_v<Probability> &&
              sizeof(Probability) == sizeof(double));

// --- Cross-dimension operators (the only sanctioned mixtures) --------------

constexpr MetersPerSecond operator/(Meters d, Seconds t) {
  return MetersPerSecond(d.value() / t.value());
}
constexpr Seconds operator/(Meters d, MetersPerSecond v) {
  return Seconds(d.value() / v.value());
}
constexpr Meters operator*(MetersPerSecond v, Seconds t) {
  return Meters(v.value() * t.value());
}
constexpr Meters operator*(Seconds t, MetersPerSecond v) {
  return Meters(v.value() * t.value());
}

constexpr Bits to_bits(Bytes b) { return Bits(b.value() * 8); }
constexpr BitsPerSecond operator/(Bits b, Seconds t) {
  return BitsPerSecond(static_cast<double>(b.value()) / t.value());
}
constexpr Seconds operator/(Bits b, BitsPerSecond r) {
  return Seconds(static_cast<double>(b.value()) / r.value());
}

constexpr SegmentsPerSecond operator/(Segments s, Seconds t) {
  return SegmentsPerSecond(s.value() / t.value());
}
constexpr Segments operator*(SegmentsPerSecond r, Seconds t) {
  return Segments(r.value() * t.value());
}
constexpr Segments operator*(Seconds t, SegmentsPerSecond r) {
  return Segments(r.value() * t.value());
}

// --- Seconds <-> SimTime (checked) -----------------------------------------
//
// SimTime is the integer-nanosecond event clock; Seconds is the floating
// analysis/model currency. The conversion is explicit and range-checked so
// an overflowing or non-finite duration trips a DCHECK instead of wrapping
// the 64-bit clock.

inline SimTime to_sim_time(Seconds s) {
  MUZHA_DCHECK(std::isfinite(s.value()), "non-finite duration");
  // |ns| must fit in int64: 2^63 ns is ~292 years of simulated time.
  MUZHA_DCHECK(s.value() < 9.2e9 && s.value() > -9.2e9,
               "duration overflows the 64-bit nanosecond clock");
  return SimTime::from_seconds(s.value());
}
constexpr Seconds to_seconds(SimTime t) { return Seconds(t.to_seconds()); }

}  // namespace muzha
