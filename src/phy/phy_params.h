// Radio parameters (Table 5.1 of the paper: 2 Mbps, 250 m nominal range,
// IEEE 802.11 DSSS). Constants: no program varies them.
#pragma once

#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

struct PhyParams {
  // Frames from transmitters within this range decode successfully (absent
  // collisions and random errors).
  static constexpr Meters rx_range = Meters(250.0);
  // Energy from transmitters within this range is sensed (physical carrier
  // sense) and interferes with concurrent receptions. 2.2x the rx range, the
  // classic NS-2 two-ray-ground ratio.
  static constexpr Meters cs_range = Meters(550.0);
  // Payload rate for unicast MAC data frames.
  static constexpr BitsPerSecond data_rate = BitsPerSecond(2'000'000);
  // Basic rate for control frames (RTS/CTS/ACK) and broadcast data.
  static constexpr BitsPerSecond basic_rate = BitsPerSecond(1'000'000);
  // PLCP preamble + header, always sent at 1 Mbps (long preamble).
  static constexpr SimTime plcp_overhead = SimTime::from_us(192);
  // Signal propagation speed.
  static constexpr MetersPerSecond propagation = MetersPerSecond(3.0e8);
  // Capture effect: an overlapping signal corrupts an in-progress reception
  // only if the interferer is closer than `capture_distance_ratio` times the
  // wanted transmitter's distance. With the two-ray-ground d^-4 power law,
  // 1.78 corresponds to NS-2's 10 dB capture threshold. Dimensionless ratio.
  static constexpr double capture_distance_ratio = 1.78;
};

}  // namespace muzha
