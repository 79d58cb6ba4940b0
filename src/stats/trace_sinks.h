// Ready-made TraceSink implementation: in-memory (tests/analysis).
#pragma once

#include <vector>

#include "net/trace.h"

namespace muzha {

// Collects every event in memory.
class VectorTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override { events_.push_back(ev); }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  // Count of events of one kind (optionally for one packet uid).
  std::size_t count(TraceEventKind kind, std::uint64_t uid = 0) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace muzha
