// Declarative expect/inject step DSL over TcpAgent subclasses.
//
// A conformance test is a script of steps chained through operator<<:
//
//   StepHarness<TcpNewReno> h;
//   h << Push{}                       // start the sender
//     << ExpectSegment{.seq = 0}      // initial window of one
//     << ExpectNoSegment{}
//     << InjectAck{.seq = 0}          // crafted cumulative ACK
//     << ExpectCwnd{2.0}
//     << ExpectSegment{.seq = 1} << ExpectSegment{.seq = 2};
//
// Steps both *inject* events (ACKs, clock ticks) and *expect* observable
// reactions (segments on the wire, window/threshold values, phase, RTO
// backoff). Each executed step is recorded; a failing expectation prints the
// whole executed script with the failing step highlighted (script_recorder.h)
// and skips the remainder, so one red test reads as a full repro script.
//
// Outgoing segments are observed at the node's IP layer through a TraceSink
// (kLocalSend events), synchronously with the agent's output call — no
// simulated time needs to pass for an ExpectSegment to see the reaction to
// an injected ACK.
#pragma once

#include <deque>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/tcp_muzha.h"
#include "net/trace.h"
#include "tcp/tcp_vegas.h"
#include "tests/harness/script_recorder.h"
#include "tests/harness/sender_fixture.h"

namespace muzha {
namespace harness {

// ---------------------------------------------------------------------------
// Segment tap: captures the sender's outgoing data segments
// ---------------------------------------------------------------------------

class SegmentTap : public TraceSink {
 public:
  struct Segment {
    std::int64_t seq = 0;
    bool is_retx = false;
    SimTime at;
  };

  void on_event(const TraceEvent& ev) override {
    if (ev.kind != TraceEventKind::kLocalSend ||
        ev.proto != IpProto::kTcp || ev.is_ack) {
      return;
    }
    // Any re-send of a previously captured seqno is a retransmission — the
    // same definition TcpAgent::output applies to its own counter.
    const bool retx = !seen_.insert(ev.seqno).second;
    captured_.push_back(Segment{ev.seqno, retx, ev.time});
  }

  bool empty() const { return captured_.empty(); }
  std::size_t size() const { return captured_.size(); }
  const Segment& front() const { return captured_.front(); }
  Segment pop() {
    Segment s = captured_.front();
    captured_.pop_front();
    return s;
  }
  void drain() { captured_.clear(); }

  std::string pending_summary(std::size_t limit = 8) const {
    std::ostringstream out;
    out << captured_.size() << " segment(s) pending: [";
    for (std::size_t i = 0; i < captured_.size() && i < limit; ++i) {
      if (i > 0) out << ", ";
      out << captured_[i].seq << (captured_[i].is_retx ? "R" : "");
    }
    if (captured_.size() > limit) out << ", ...";
    out << "]";
    return out.str();
  }

 private:
  std::set<std::int64_t> seen_;
  std::deque<Segment> captured_;
};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

// Drives one AgentT (any TcpAgent subclass) with a script of steps. A step
// is any type with `std::string describe() const` and
// `template <class H> void apply(H&) const`; variant-specific expectations
// (Vegas diff, Muzha MRAI, SACK scoreboard) simply fail to compile when the
// script is applied to a sender that lacks the introspection hook.
template <class AgentT>
class StepHarness : public SenderFixture<AgentT> {
 public:
  explicit StepHarness(TcpConfig cfg = {}) : SenderFixture<AgentT>(cfg) {
    this->src().set_trace_sink(&tap_);
  }

  template <class StepT>
  StepHarness& execute(const StepT& step) {
    if (recorder_.failed()) return *this;  // skip the rest of the script
    recorder_.begin_step(this->sim().now(), step.describe());
    step.apply(*this);
    return *this;
  }

  template <class StepT>
  StepHarness& operator<<(const StepT& step) {
    return execute(step);
  }

  void step_fail(const std::string& why) { recorder_.fail_current_step(why); }

  SegmentTap& tap() { return tap_; }
  const ScriptRecorder& recorder() const { return recorder_; }

 private:
  SegmentTap tap_;
  ScriptRecorder recorder_;
};

// ---------------------------------------------------------------------------
// Inject steps
// ---------------------------------------------------------------------------

// Starts the sender: registers the agent and emits the initial window.
struct Push {
  std::string describe() const { return "Push"; }
  template <class H>
  void apply(H& h) const {
    h.start_agent();
  }
};

// Advances the simulated clock (fires RTO timers).
struct Tick {
  Seconds dt{0.0};
  std::string describe() const {
    std::ostringstream out;
    out << "Tick{" << dt.value() << "s}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    h.advance(dt);
  }
};

// Injects one crafted ACK. `drai` is the echoed MRAI (Muzha), `ecn` the
// marked-duplicate congestion bit, `rtt` > 0 stamps a timestamp echo so the
// sender draws an RTT sample of exactly `rtt`.
struct InjectAck {
  std::int64_t seq = 0;
  std::uint8_t drai = kDraiAggressiveAccel;
  bool ecn = false;
  SackList sack_blocks{};
  Seconds rtt{0.0};

  std::string describe() const {
    std::ostringstream out;
    out << "InjectAck{seq=" << seq;
    if (drai != kDraiAggressiveAccel) {
      out << ", drai=" << static_cast<int>(drai);
    }
    if (ecn) out << ", ecn";
    if (!sack_blocks.empty()) {
      out << ", sacks=";
      for (const SackBlock& b : sack_blocks) {
        out << "[" << b.begin << "," << b.end << ")";
      }
    }
    if (rtt > Seconds(0.0)) out << ", rtt=" << rtt.value() << "s";
    out << "}";
    return out.str();
  }

  template <class H>
  void apply(H& h) const {
    SimTime ts_echo = SimTime::zero();
    if (rtt > Seconds(0.0)) ts_echo = h.sim().now() - to_sim_time(rtt);
    h.inject(h.make_ack(seq, drai, ecn, sack_blocks, ts_echo));
  }
};

// Discards every captured-but-unconsumed segment; the script then asserts
// only about segments emitted from this point on.
struct DrainSegments {
  std::string describe() const { return "DrainSegments"; }
  template <class H>
  void apply(H& h) const {
    h.tap().drain();
  }
};

// ---------------------------------------------------------------------------
// Expect steps
// ---------------------------------------------------------------------------

// Consumes the oldest unconsumed outgoing segment and checks its seqno (and
// optionally whether it was a retransmission).
struct ExpectSegment {
  std::int64_t seq = 0;
  std::optional<bool> is_retx{};

  std::string describe() const {
    std::ostringstream out;
    out << "ExpectSegment{seq=" << seq;
    if (is_retx.has_value()) {
      out << (*is_retx ? ", retx" : ", first-transmission");
    }
    out << "}";
    return out.str();
  }

  template <class H>
  void apply(H& h) const {
    if (h.tap().empty()) {
      h.step_fail("no segment was sent");
      return;
    }
    SegmentTap::Segment got = h.tap().pop();
    std::ostringstream why;
    if (got.seq != seq) {
      why << "sent seq " << got.seq << ", expected " << seq;
      h.step_fail(why.str());
      return;
    }
    if (is_retx.has_value() && got.is_retx != *is_retx) {
      why << "seq " << got.seq << " was "
          << (got.is_retx ? "a retransmission" : "a first transmission")
          << ", expected the opposite";
      h.step_fail(why.str());
    }
  }
};

// The sender must not have any unconsumed outgoing segment.
struct ExpectNoSegment {
  std::string describe() const { return "ExpectNoSegment"; }
  template <class H>
  void apply(H& h) const {
    if (!h.tap().empty()) h.step_fail(h.tap().pending_summary());
  }
};

namespace detail {
inline bool near(double got, double want, double tol) {
  double d = got - want;
  if (d < 0) d = -d;
  return d <= tol;
}
}  // namespace detail

struct ExpectCwnd {
  double value = 0.0;
  double tol = 1e-9;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectCwnd{" << value << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    double got = h.agent().cwnd().value();
    if (!detail::near(got, value, tol)) {
      std::ostringstream why;
      why << "cwnd is " << got << ", expected " << value << " (tol " << tol
          << ")";
      h.step_fail(why.str());
    }
  }
};

struct ExpectSsthresh {
  double value = 0.0;
  double tol = 1e-9;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectSsthresh{" << value << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    double got = h.agent().ssthresh().value();
    if (!detail::near(got, value, tol)) {
      std::ostringstream why;
      why << "ssthresh is " << got << ", expected " << value << " (tol "
          << tol << ")";
      h.step_fail(why.str());
    }
  }
};

struct ExpectState {
  TcpPhase phase = TcpPhase::kCongestionAvoidance;
  std::string describe() const {
    return std::string("ExpectState{") + tcp_phase_name(phase) + "}";
  }
  template <class H>
  void apply(H& h) const {
    TcpPhase got = h.agent().phase();
    if (got != phase) {
      std::ostringstream why;
      why << "phase is " << tcp_phase_name(got) << ", expected "
          << tcp_phase_name(phase);
      h.step_fail(why.str());
    }
  }
};

// Exponential-backoff exponent of the RTO estimator: 0 outside a backoff
// series, k after k consecutive timeouts without forward progress.
struct ExpectRtoBackoff {
  int exponent = 0;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectRtoBackoff{" << exponent << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    int got = h.agent().rto_estimator().backoff_exponent();
    if (got != exponent) {
      std::ostringstream why;
      why << "backoff exponent is " << got << ", expected " << exponent;
      h.step_fail(why.str());
    }
  }
};

struct ExpectRto {
  Seconds value{0.0};
  Seconds tol{1e-9};
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectRto{" << value.value() << "s}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    Seconds got = to_seconds(h.agent().rto_estimator().rto());
    if (!detail::near(got.value(), value.value(), tol.value())) {
      std::ostringstream why;
      why << "RTO is " << got.value() << "s, expected " << value.value()
          << "s";
      h.step_fail(why.str());
    }
  }
};

struct ExpectHighestAck {
  std::int64_t seq = 0;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectHighestAck{" << seq << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    std::int64_t got = h.agent().highest_ack();
    if (got != seq) {
      std::ostringstream why;
      why << "highest_ack is " << got << ", expected " << seq;
      h.step_fail(why.str());
    }
  }
};

struct ExpectNextSeq {
  std::int64_t seq = 0;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectNextSeq{" << seq << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    std::int64_t got = h.agent().next_seq();
    if (got != seq) {
      std::ostringstream why;
      why << "next_seq is " << got << ", expected " << seq;
      h.step_fail(why.str());
    }
  }
};

struct ExpectDupacks {
  int count = 0;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectDupacks{" << count << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    int got = h.agent().dupacks();
    if (got != count) {
      std::ostringstream why;
      why << "dupack count is " << got << ", expected " << count;
      h.step_fail(why.str());
    }
  }
};

struct ExpectRtoHasSample {
  bool has_sample = true;
  std::string describe() const {
    return has_sample ? "ExpectRtoHasSample{true}"
                      : "ExpectRtoHasSample{false}";
  }
  template <class H>
  void apply(H& h) const {
    bool got = h.agent().rto_estimator().has_sample();
    if (got != has_sample) {
      std::ostringstream why;
      why << "rto estimator " << (got ? "has" : "has no")
          << " sample, expected the opposite";
      h.step_fail(why.str());
    }
  }
};

struct ExpectSrtt {
  Seconds value{0.0};
  Seconds tol{1e-3};
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectSrtt{" << value.value() << "s}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    Seconds got = to_seconds(h.agent().rto_estimator().srtt());
    if (!detail::near(got.value(), value.value(), tol.value())) {
      std::ostringstream why;
      why << "srtt is " << got.value() << "s, expected " << value.value()
          << "s";
      h.step_fail(why.str());
    }
  }
};

// --- Variant-specific expectations (compile only where the hook exists) ----

// Vegas: last end-of-epoch backlog estimate diff = cwnd * (1 - base/RTT).
struct ExpectVegasDiff {
  double value = 0.0;
  double tol = 1e-6;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectVegasDiff{" << value << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    double got = h.agent().last_diff();
    if (!detail::near(got, value, tol)) {
      std::ostringstream why;
      why << "vegas diff is " << got << ", expected " << value;
      h.step_fail(why.str());
    }
  }
};

struct ExpectBaseRtt {
  Seconds value{0.0};
  Seconds tol{1e-6};
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectBaseRtt{" << value.value() << "s}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    Seconds got = h.agent().base_rtt();
    if (!detail::near(got.value(), value.value(), tol.value())) {
      std::ostringstream why;
      why << "base RTT is " << got.value() << "s, expected " << value.value()
          << "s";
      h.step_fail(why.str());
    }
  }
};

// Muzha: MRAI applied at the last completed epoch boundary.
struct ExpectLastMrai {
  std::uint8_t mrai = kDraiAggressiveAccel;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectLastMrai{" << static_cast<int>(mrai) << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    std::uint8_t got = h.agent().last_epoch_mrai();
    if (got != mrai) {
      std::ostringstream why;
      why << "last epoch MRAI is " << static_cast<int>(got) << ", expected "
          << static_cast<int>(mrai);
      h.step_fail(why.str());
    }
  }
};

// Muzha: most conservative MRAI heard so far in the epoch in progress.
struct ExpectPendingMrai {
  std::uint8_t mrai = kDraiAggressiveAccel;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectPendingMrai{" << static_cast<int>(mrai) << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    std::uint8_t got = h.agent().pending_epoch_mrai();
    if (got != mrai) {
      std::ostringstream why;
      why << "pending epoch MRAI is " << static_cast<int>(got)
          << ", expected " << static_cast<int>(mrai);
      h.step_fail(why.str());
    }
  }
};

// SACK: number of selectively-acknowledged segments on the scoreboard.
struct ExpectSackScoreboard {
  std::size_t size = 0;
  std::string describe() const {
    std::ostringstream out;
    out << "ExpectSackScoreboard{" << size << "}";
    return out.str();
  }
  template <class H>
  void apply(H& h) const {
    std::size_t got = h.agent().scoreboard_size();
    if (got != size) {
      std::ostringstream why;
      why << "scoreboard holds " << got << " segment(s), expected " << size;
      h.step_fail(why.str());
    }
  }
};

}  // namespace harness
}  // namespace muzha
