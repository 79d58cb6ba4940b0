// Time-series collectors for the paper's figures.
//
// CwndTracer records every congestion-window change (Figs 5.2-5.7).
// ThroughputSampler bins in-order deliveries at the sink into fixed windows
// (Figs 5.19-5.22 throughput dynamics).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/sim_time.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"

namespace muzha {

struct TimePoint {
  Seconds t;
  double value = 0.0;  // unit depends on the series (segments, bit/s, ...)
};

using TimeSeries = std::vector<TimePoint>;

// Records (time, cwnd) on every change of the attached agent's window.
class CwndTracer {
 public:
  void attach(TcpAgent& agent) {
    agent.set_cwnd_listener([this](SimTime t, double cwnd) {
      series_.push_back({to_seconds(t), cwnd});
    });
  }

  const TimeSeries& series() const { return series_; }

  // Appends a sample directly (normally driven via attach()).
  void add(Seconds t, double value) { series_.push_back({t, value}); }

  // Value at time t (step interpolation); 0 before the first sample.
  double value_at(Seconds t) const;

 private:
  TimeSeries series_;
};

// Accumulates sink deliveries into fixed-width bins; series() reports the
// throughput of each bin in bits/second.
class ThroughputSampler {
 public:
  explicit ThroughputSampler(SimTime bin_width, std::uint32_t payload_bytes)
      : bin_width_(to_seconds(bin_width)), payload_bytes_(payload_bytes) {}

  void attach(TcpSink& sink) {
    sink.set_delivery_listener(
        [this](SimTime t, std::int64_t count, std::uint32_t) {
          record(to_seconds(t),
                 static_cast<double>(count) * payload_bytes_ * 8.0);
        });
  }

  // Completed-bin series in bits/second; call after the run.
  TimeSeries series() const;

  double total_bits() const { return total_bits_; }

  // Accumulates `bits` into the bin containing `t` (normally driven via
  // attach()).
  void record(Seconds t, double bits);

 private:
  Seconds bin_width_;
  std::uint32_t payload_bytes_;
  std::vector<double> bins_;  // bits per bin
  double total_bits_ = 0.0;
};

}  // namespace muzha
