// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around calls the benchmark makes into the
// simulator (an experiment, its zero-duration setup twin, a batch of a layer
// microbench); nothing inside the simulator is instrumented. Each span keeps
// the counts observed at its boundary. Everything stays in memory until
// write_json() at the end of the run, so recording costs two clock reads and
// a vector push per span.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span; returns its id (kNoParent when tracing is off).
  int begin(std::string name, int parent) {
    if (!enabled_) return kNoParent;
    spans_.push_back(Span{std::move(name), parent, wall_ns(), 0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
  }

  void count(int id, std::string key, double value) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].counts.emplace_back(std::move(key),
                                                               value);
    }
  }

  std::size_t size() const { return spans_.size(); }

  // Self time of every span name: duration minus the part covered by its
  // direct children, summed over spans of that name.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      double self_ms =
          (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e6;
      std::string key = s.name.substr(0, s.name.find(':'));
      bool found = false;
      for (auto& [name, ms] : out) {
        if (name == key) {
          ms += self_ms;
          found = true;
          break;
        }
      }
      if (!found) out.emplace_back(key, self_ms);
    }
    return out;
  }

  // Writes every span as one JSON document: id, parent, name, start/end in
  // ns relative to the first span, and the counts.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"counts\": {",
                   i, s.parent, s.name.c_str(),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0));
      for (std::size_t c = 0; c < s.counts.size(); ++c) {
        std::fprintf(f, "%s\"%s\": %.17g", c == 0 ? "" : ", ",
                     s.counts[c].first.c_str(), s.counts[c].second);
      }
      std::fprintf(f, "}}%s\n", i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::vector<std::pair<std::string, double>> counts;
  };

  bool enabled_;
  std::vector<Span> spans_;
};

// Opens a span for the lifetime of a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
