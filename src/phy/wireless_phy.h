// Half-duplex wireless PHY with physical carrier sense and collision
// handling.
//
// Collision model, with capture: the PHY locks onto a decodable frame when
// it is neither transmitting nor decoding and every signal already on the
// air is at least capture_distance_ratio times farther away than the
// frame's transmitter (a quiet medium is the trivial case). A signal
// (decodable or mere energy) that starts during a reception corrupts it
// unless it is that much farther away than the wanted transmitter; frames
// arriving while the PHY is transmitting are lost (half duplex). Corrupted
// receptions are reported to the MAC so it can apply EIFS.
//
// Signal records: a signal the PHY does not lock onto changes nothing but
// the carrier. While the owner needs no idle edges
// (set_needs_idle_edges(false): the MAC holds no frame), such signals cost
// no events. The PHY keeps them in one list of records, ordered by key:
//  - a sensed-only start (no frame: its transmitter is beyond decode range),
//    which arrive() files under the key defer(prop) reserves, the one its
//    event would have run under;
//  - the end of a signal the PHY is not decoding, under
//    Scheduler::follow(delivery key, airtime), the key every signal end
//    takes.
// Each entry point (signal arrival, start and end, TX start and end,
// carrier_busy(), cumulative_busy_time(), collisions(),
// set_needs_idle_edges() and sync_busy_samples()) first applies the records
// whose keys have passed, in key order, so every answer is the one the
// events would have given: a record runs the event's start or end at its
// key's time. When the owner starts needing edges again, every record is
// scheduled under its key and fires exactly where it would have.
// A PHY without an owner that says otherwise needs idle edges and keeps no
// records.
//
// Busy time: the PHY sums the time its carrier is sensed busy, own
// transmissions included, booking each edge at its own time: a real edge at
// now, a record's at the record's start or end. A handler that changes the
// carrier books the change, then calls up to the MAC, then reports the edge
// (real edges only), so the booked state is busy() at every catch-up,
// which checks it.
//
// Busy samples: one sampler (the Muzha estimator) gets the booked busy
// total at every `interval` boundary after set_busy_sampler(), each exactly
// once and in order, with no event. A boundary at t is keyed
// Scheduler::last_at(t, interval), where a tick scheduled one interval
// before would have fired. It is folded just before the PHY books a
// busy-time change, if it lies strictly before the change's time, or by
// sync_busy_samples() once its key has passed; the IFQ calls that before
// every change and the sampler's owner before every read.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "phy/channel.h"
#include "phy/frame_trace.h"
#include "phy/position.h"
#include "phy/spatial_grid.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/inline_callback.h"
#include "sim/scheduler.h"
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
  // Receives the busy total at each sample boundary.
  using BusySampleCallback = InlineFunction<void(SimTime busy_total)>;

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

  // Whether the owner acts on idle edges. While it does not, sensed-only
  // starts and the ends of signals this PHY is not decoding are kept as
  // records; turning the need back on schedules every record under its key.
  // Catches up first, so that a record applied here files its end as one.
  void set_needs_idle_edges(bool needs) {
    catch_up();
    needs_idle_edges_ = needs;
    if (needs && !records_.empty()) schedule_records();
  }

  // True when the medium is sensed busy (energy present, receiving, or
  // transmitting).
  bool carrier_busy() {
    catch_up();
    return busy();
  }
  bool transmitting() const { return tx_active_; }

  // Cumulative time the medium has been sensed busy at this station, own
  // transmissions included.
  SimTime cumulative_busy_time();

  // Installs the one busy sampler; its first boundary is `interval` from
  // now. A second sampler is a bug.
  void set_busy_sampler(SimTime interval, BusySampleCallback cb);
  // Removes the sampler; no boundary is folded after this.
  void clear_busy_sampler();
  // Folds every sample boundary whose key has passed. Inline so that a PHY
  // with no boundary due pays one comparison.
  void sync_busy_samples() {
    if (next_sample_.time <= sim_.now()) fold_passed_samples();
  }

  // The channel's frame trace, or null when tracing is off.
  FrameTrace* frame_trace() const { return channel_.frame_trace(); }

  // On-air time of a frame of `total` bytes (MAC overhead included by the
  // caller) at the data or basic rate.
  SimTime tx_duration(Bytes total, bool basic_rate) const;

  // Starts transmitting; MAC must not call this while carrier_busy() except
  // for the SIFS responses the standard allows. on_tx_done fires at TX end.
  void start_tx(PacketPtr pkt, bool basic_rate);

  // --- Channel-facing interface -------------------------------------------
  // A signal reaches this PHY `prop` from now; the other arguments are
  // signal_start()'s. Schedules signal_start() `prop` ahead or, for a
  // sensed-only signal (no frame) while the owner needs no idle edges,
  // files the start as a record under the key that event would have taken,
  // after catching up so that the list holds only records still to come.
  // Inline: the channel calls it for every receiver in range.
  void arrive(SimTime prop, PacketPtr pkt, bool pre_corrupted,
              SimTime duration, Meters tx_dist) {
    if (pkt == nullptr && !needs_idle_edges_) {
      catch_up();
      file_record({sim_.scheduler().defer(prop), 0, duration, tx_dist});
      return;
    }
    sim_.schedule_in(prop, [this, pkt = std::move(pkt), pre_corrupted,
                            duration, tx_dist]() mutable {
      signal_start(std::move(pkt), pre_corrupted, duration, tx_dist);
    });
  }

  // A signal begins arriving from a transmitter `tx_dist` away. `pkt` is
  // non-null iff the receiver is within decode range; `pre_corrupted` marks
  // random channel errors. Runs as the signal's start event: the running
  // event's key is the delivery key its end follows.
  void signal_start(PacketPtr pkt, bool pre_corrupted, SimTime duration,
                    Meters tx_dist);

  // Statistics.
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received_ok() const { return frames_received_ok_; }
  // Applies passed records first: a pending start may corrupt a frame.
  std::uint64_t collisions() {
    catch_up();
    return collisions_;
  }

 private:
  friend class Channel;  // channel bookkeeping below

  // A signal currently arriving.
  struct Signal {
    std::uint64_t id;  // this PHY's signal sequence
    Meters dist;       // distance to the transmitter
  };

  // A record: a sensed-only start (signal 0), due under `key` with its
  // airtime and distance, or the end, due under `key`, of signal `signal`,
  // one this PHY is not decoding.
  struct Record {
    Scheduler::Key key;
    std::uint64_t signal;  // the ending signal's id; 0 for a start
    SimTime airtime;       // a start's
    Meters dist;           // a start's
  };

  // Files `record` in records_, latest key first.
  void file_record(const Record& record) {
    records_.insert(
        std::lower_bound(records_.begin(), records_.end(), record,
                         [](const Record& a, const Record& b) {
                           return Scheduler::earlier(b.key, a.key);
                         }),
        record);
  }

  bool busy() const { return tx_active_ || !active_signals_.empty(); }
  // Every entry point calls it first, when the booked carrier state is the
  // live one. Inline so that a PHY with nothing due pays a comparison or two.
  void catch_up() {
    MUZHA_DCHECK(busy() == busy_booked_,
                 "a carrier change left unbooked at an entry point");
    if (!records_.empty() && sim_.now() >= records_.back().key.time) {
      apply_passed();
    }
  }
  void apply_passed();
  // A signal starts under `key`: the lock decision or capture check, the
  // carrier booked at key.time, and the end scheduled or filed under
  // follow(key, airtime). True at a carrier edge.
  bool begin_signal(Scheduler::Key key, PacketPtr pkt, bool pre_corrupted,
                    SimTime airtime, Meters dist);
  // Signal `id` leaves the air, and the carrier is booked, at `t`. True at
  // a carrier edge.
  bool end_signal(SimTime t, std::uint64_t id);
  // Books busy() at `t`, no earlier than the last booked change, after
  // folding the sample boundaries strictly before `t`. True at an edge.
  bool book_carrier(SimTime t);
  // The booked busy total at `t`, no earlier than the last booked change.
  SimTime booked_busy_total(SimTime t) const {
    return busy_booked_ ? busy_accum_ + (t - busy_since_) : busy_accum_;
  }
  // Tells the owner the carrier edge a handler has booked.
  void report_edge() {
    if (on_channel_state_) on_channel_state_(busy());
  }
  void fold_passed_samples();
  void fold_sample();
  void schedule_records();
  void signal_end(std::uint64_t id);

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
  // Every signal currently arriving, those whose end is a record included.
  // Flat vector, erased by swap-pop: the capture decision in begin_signal()
  // is an order-independent predicate over ALL entries, so element order
  // does not matter, and the handful of concurrently overlapping signals
  // never justifies a node-allocating container on the per-delivery warm
  // path (the vector keeps its capacity once grown).
  std::vector<Signal> active_signals_;
  // The records, latest key first: the next one due is at the back. The
  // list stays short (about one record on average in a city pass), so it is
  // kept sorted on insertion.
  std::vector<Record> records_;
  bool needs_idle_edges_ = true;

  // In-progress decode.
  std::uint64_t next_signal_seq_ = 1;
  std::uint64_t decoding_seq_ = 0;  // 0 = not decoding
  PacketPtr decoding_pkt_;
  bool decoding_corrupted_ = false;
  Meters decoding_dist_;

  // Busy-time accounting: the carrier state last booked, when it became
  // busy, and the busy time booked before that.
  bool busy_booked_ = false;
  SimTime busy_since_;
  SimTime busy_accum_;

  // The busy sampler and its next boundary's key (time max: none).
  BusySampleCallback on_busy_sample_;
  SimTime sample_interval_;
  Scheduler::Key next_sample_{SimTime::max()};

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ok_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace muzha
