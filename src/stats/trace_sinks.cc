#include "stats/trace_sinks.h"

#include "net/trace.h"

namespace muzha {

std::size_t VectorTraceSink::count(TraceEventKind kind,
                                   std::uint64_t uid) const {
  std::size_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.kind == kind && (uid == 0 || ev.uid == uid)) ++n;
  }
  return n;
}

}  // namespace muzha
