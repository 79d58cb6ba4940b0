// Half-duplex wireless PHY with physical carrier sense and collision
// handling.
//
// Collision model: the PHY locks onto a decodable frame only when the medium
// is completely quiet at its antenna. Any signal (decodable or mere energy)
// that overlaps an in-progress reception corrupts it; frames arriving while
// the PHY is transmitting are lost (half duplex). Corrupted receptions are
// reported to the MAC so it can apply EIFS.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/position.h"
#include "phy/spatial_grid.h"
#include "pkt/packet.h"
#include "sim/inline_callback.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

class WirelessPhy {
 public:
  // Callback types up to the MAC (inline-stored, move-only — see
  // sim/inline_callback.h).
  using ChannelStateCallback = InlineFunction<void(bool busy)>;
  // pkt is null when only corruption is reported (collision damaged the
  // frame beyond recovery of its headers).
  using RxCallback = InlineFunction<void(PacketPtr pkt, bool corrupted)>;
  using TxDoneCallback = InlineFunction<void()>;

  WirelessPhy(Simulator& sim, Channel& channel, NodeId id, Position pos);
  WirelessPhy(const WirelessPhy&) = delete;
  WirelessPhy& operator=(const WirelessPhy&) = delete;
  ~WirelessPhy() { channel_.detach(*this); }

  NodeId id() const { return id_; }
  Position position() const { return pos_; }
  void set_position(Position p) {
    pos_ = p;
    channel_.phy_moved(*this);
  }

  void set_channel_state_callback(ChannelStateCallback cb) {
    on_channel_state_ = std::move(cb);
  }
  void set_rx_callback(RxCallback cb) { on_rx_ = std::move(cb); }
  void set_tx_done_callback(TxDoneCallback cb) { on_tx_done_ = std::move(cb); }

  // True when the medium is sensed busy (energy present, receiving, or
  // transmitting).
  bool carrier_busy() const { return tx_active_ || !active_signals_.empty(); }
  bool transmitting() const { return tx_active_; }

  // On-air time of a frame of `total` bytes (MAC overhead included by the
  // caller) at the data or basic rate.
  SimTime tx_duration(Bytes total, bool basic_rate) const;

  // Starts transmitting; MAC must not call this while carrier_busy() except
  // for the SIFS responses the standard allows. on_tx_done fires at TX end.
  void start_tx(PacketPtr pkt, bool basic_rate);

  // --- Channel-facing interface -------------------------------------------
  // A signal begins arriving from a transmitter `tx_dist` away. `pkt` is
  // non-null iff the receiver is within decode range; `pre_corrupted` marks
  // random channel errors.
  void signal_start(PacketPtr pkt, bool pre_corrupted, SimTime duration,
                    Meters tx_dist);

  // Statistics.
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received_ok() const { return frames_received_ok_; }
  std::uint64_t collisions() const { return collisions_; }

 private:
  friend class Channel;  // channel bookkeeping below

  void signal_end(std::uint64_t signal_seq);
  void update_carrier(bool was_busy);

  Simulator& sim_;
  Channel& channel_;
  NodeId id_;
  Position pos_;

  // Channel bookkeeping, written only by Channel.
  bool channel_attached_ = false;
  std::uint64_t channel_order_ = 0;  // monotonic attach-order key
  SpatialGrid::CellKey grid_cell_;   // the grid cell this PHY is filed under

  ChannelStateCallback on_channel_state_;
  RxCallback on_rx_;
  TxDoneCallback on_tx_done_;

  bool tx_active_ = false;
  // (sequence, distance) of every signal currently arriving. Flat vector,
  // erased by swap-pop: the capture decision in signal_start() is an
  // order-independent predicate over ALL entries, so element order does not
  // matter, and the handful of concurrently overlapping signals never
  // justifies a node-allocating container on the per-delivery warm path
  // (the vector keeps its capacity once grown).
  std::vector<std::pair<std::uint64_t, Meters>> active_signals_;

  // In-progress decode.
  std::uint64_t next_signal_seq_ = 1;
  std::uint64_t decoding_seq_ = 0;  // 0 = not decoding
  PacketPtr decoding_pkt_;
  bool decoding_corrupted_ = false;
  Meters decoding_dist_;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ok_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace muzha
