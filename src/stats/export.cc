#include "stats/export.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "stats/time_series.h"

namespace muzha {

namespace {
// Step-interpolated value of a series at time t (0 before first sample).
double value_at(const TimeSeries& s, double t) {
  double v = 0.0;
  for (const TimePoint& p : s) {
    if (p.t.value() > t) break;
    v = p.value;
  }
  return v;
}

// Closes `f` and reports whether every write reached the file: a full disk
// shows up in the stream's error flag or in the final flush.
bool close_checked(std::FILE* f) {
  bool write_failed = std::ferror(f) != 0;
  return std::fclose(f) == 0 && !write_failed;
}
}  // namespace

bool write_csv(const std::string& path,
               const std::vector<NamedSeries>& data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;

  std::fprintf(f, "t");
  for (const NamedSeries& ns : data) std::fprintf(f, ",%s", ns.name.c_str());
  std::fprintf(f, "\n");

  std::set<double> times;
  for (const NamedSeries& ns : data) {
    for (const TimePoint& p : ns.series) times.insert(p.t.value());
  }
  for (double t : times) {
    std::fprintf(f, "%.6f", t);
    for (const NamedSeries& ns : data) {
      std::fprintf(f, ",%.6f", value_at(ns.series, t));
    }
    std::fprintf(f, "\n");
  }
  return close_checked(f);
}

bool write_gnuplot_script(const std::string& path, const std::string& csv_path,
                          const std::string& title,
                          const std::vector<NamedSeries>& data,
                          const std::string& ylabel) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "set datafile separator ','\n"
               "set key autotitle columnhead\n"
               "set title '%s'\n"
               "set xlabel 'time (s)'\n"
               "set ylabel '%s'\n"
               "plot",
               title.c_str(), ylabel.c_str());
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::fprintf(f, "%s '%s' using 1:%zu with lines",
                 i == 0 ? "" : ",", csv_path.c_str(), i + 2);
  }
  std::fprintf(f, "\n");
  return close_checked(f);
}

}  // namespace muzha
