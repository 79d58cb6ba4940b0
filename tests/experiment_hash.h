// FNV-1a hashing of ExperimentResult plus the city-scale golden scenario,
// shared by the determinism and shard suites. The golden constants pinned
// against hash_result() freeze the full pipeline (placement RNG, waypoint
// draws, event interleaving, AODV churn) in one number; both suites must
// hash identically, so the helpers live here rather than per-file.
#pragma once

#include <cstdint>
#include <cstring>

#include "scenario/city.h"
#include "scenario/experiment.h"
#include "stats/time_series.h"

namespace muzha::testing {

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t hash_series(const TimeSeries& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::uint64_t t_bits, v_bits;
    std::memcpy(&t_bits, &s[i].t, 8);
    std::memcpy(&v_bits, &s[i].value, 8);
    h = fnv1a_u64(h, t_bits);
    h = fnv1a_u64(h, v_bits);
  }
  return h;
}

inline std::uint64_t hash_result(const ExperimentResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const FlowResult& f : r.flows) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(f.delivered));
    h = fnv1a_u64(h, f.packets_sent);
    h = fnv1a_u64(h, f.retransmissions);
    h = fnv1a_u64(h, f.timeouts);
    std::uint64_t tput_bits;
    std::memcpy(&tput_bits, &f.throughput, 8);
    h = fnv1a_u64(h, tput_bits);
    h = fnv1a_u64(h, hash_series(f.cwnd_trace));
    h = fnv1a_u64(h, hash_series(f.throughput_series));
  }
  h = fnv1a_u64(h, r.ifq_drops);
  h = fnv1a_u64(h, r.mac_retry_drops);
  h = fnv1a_u64(h, r.phy_collisions);
  h = fnv1a_u64(h, r.channel_error_losses);
  h = fnv1a_u64(h, r.cbr_packets_sent);
  return h;
}

// The 200-node mobile random-waypoint city of the golden pin
// Determinism.GoldenCityFieldPinned (hash 0x87CCB22252A3ED43): four Muzha
// flows drawn with flow seed 7, plus two 100 kbps CBR flows with the
// endpoints and start times the pin was captured with.
inline ExperimentConfig city_golden_config() {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 200;
  cfg.field.width = Meters(3000.0);
  cfg.field.height = Meters(3000.0);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(10.0);
  cfg.seed = 42;
  cfg.flows = make_random_district_flows(4, cfg.field, TcpVariant::kMuzha, 7,
                                         SimTime::from_seconds(2.0));
  cfg.cbr_flows.push_back({54, 104, BitsPerSecond(100'000.0), 512,
                           SimTime::from_ns(1'559'411'248)});
  cfg.cbr_flows.push_back({94, 98, BitsPerSecond(100'000.0), 512,
                           SimTime::from_ns(1'642'232'325)});
  return cfg;
}

inline constexpr std::uint64_t kGoldenCityHash = 0x87CCB22252A3ED43ull;

}  // namespace muzha::testing
