// TCP receiver: cumulative ACKs, out-of-order buffering, SACK blocks, and
// the Muzha feedback echo.
//
// On every data arrival the sink returns an ACK that echoes (a) the
// timestamp for RTT sampling, (b) the packet's path-minimum DRAI (the MRAI,
// Sec. 4.4) and (c) the congestion mark: a duplicate ACK whose triggering
// out-of-order packet was router-marked (or carried a deceleration-region
// MRAI) tells the Muzha sender the loss was congestion, not random
// (Sec. 4.7). Non-Muzha senders simply ignore those fields, so one sink
// class serves every variant.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "net/agent.h"
#include "net/node.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace muzha {

class TcpSink : public Agent {
 public:
  TcpSink(Simulator& sim, Node& node, std::uint16_t port);
  ~TcpSink() override = default;

  // Registers on the node's port.
  void start();
  void receive(PacketPtr pkt) override;

  // --- Observability ------------------------------------------------------
  // Number of segments delivered in order (goodput numerator).
  std::int64_t delivered() const { return next_expected_; }
  std::uint64_t duplicates_received() const { return duplicates_; }
  std::uint64_t out_of_order_received() const { return out_of_order_; }
  std::uint64_t acks_sent() const { return acks_sent_; }

  // Fires whenever new in-order segments are delivered; `count` segments of
  // `bytes` each. Used by throughput samplers.
  using DeliveryListener =
      std::function<void(SimTime, std::int64_t count, std::uint32_t bytes)>;
  void set_delivery_listener(DeliveryListener cb) {
    on_delivery_ = std::move(cb);
  }

 protected:
  // Extension hook for receiver-assisted variants (e.g. ADTCP): called just
  // before the ACK is sent, with the triggering data packet.
  virtual void customize_ack(TcpHeader& ack, const Packet& data, bool is_dup);

  Simulator& sim() { return sim_; }

 private:
  void send_ack(const Packet& data, bool is_dup);
  void fill_sacks(TcpHeader& ack, std::int64_t trigger_seq) const;

  Simulator& sim_;
  Node& node_;
  std::uint16_t port_;
  std::int64_t next_expected_ = 0;
  std::set<std::int64_t> out_of_order_buf_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint32_t dup_seq_ = 0;  // TCP-DOOR duplicate-ACK stream sequence
  DeliveryListener on_delivery_;
  bool started_ = false;
};

}  // namespace muzha
