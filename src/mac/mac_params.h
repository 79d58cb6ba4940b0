// IEEE 802.11 DCF timing and retry constants (DSSS PHY, 2 Mbps).
//
// Every unicast frame opens with RTS/CTS, as under the NS-2 default RTS
// threshold of 0 that the paper's evaluation inherited; broadcast frames go
// without RTS/CTS or ACK.
#pragma once

#include <cstdint>

#include "sim/sim_time.h"

namespace muzha {

inline constexpr SimTime kMacSlot = SimTime::from_us(20);
inline constexpr SimTime kMacSifs = SimTime::from_us(10);
inline constexpr SimTime kMacDifs = SimTime::from_us(50);  // SIFS + 2 * slot
inline constexpr std::uint32_t kMacCwMin = 31;
inline constexpr std::uint32_t kMacCwMax = 1023;
// Station Short Retry Count limit: RTS attempts.
inline constexpr std::uint32_t kMacShortRetryLimit = 7;
// Station Long Retry Count limit: DATA attempts after CTS.
inline constexpr std::uint32_t kMacLongRetryLimit = 4;
// Guard added to CTS/ACK timeouts on top of SIFS + response airtime.
inline constexpr SimTime kMacTimeoutGuard = SimTime::from_us(25);

}  // namespace muzha
