#pragma once
// Shared plumbing of the end-to-end driver: run options, the result record
// every workload fills, and small statistics / process helpers.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace e2e {

/// Command-line options of one driver invocation.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< nominal length of the measured section
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string trace_dir;  ///< where traced runs write their Chrome traces
  bool smoke = false;     ///< reduced problem sizes for a quick check run
};

/// Name and unit of one reported metric.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Whether `unit` measures time.  A per-layer time must be measured on
/// every workload; only counts, ratios and rates may read 0 where a
/// workload does not exercise the layer.
inline bool is_time_unit(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "us";
}

/// Full-precision JSON number; non-finite values (a percentile over failed
/// requests) print as 1e300 since JSON has no infinity.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) v = 1e300;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Everything one workload run reports.  The driver prints it as the final
/// JSON line; a failed check turns `correct` false.
class Result {
 public:
  /// Record an output check; a failing one is also reported on stderr.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "e2e: CHECK FAILED: %s\n", what.c_str());
    }
  }

  /// Count one attempted operation and whether it failed.
  void operation(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  /// Set a metric's value (end-to-end or per-layer; names are unique).
  void set(const std::string& name, double value) { values_[name] = value; }

  /// Run context (build, machine, workload shape), printed as its own line.
  void context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, "\"" + value + "\"");
  }
  void context(const std::string& key, double value) {
    context_.emplace_back(key, json_number(value));
  }

  /// Print the context line, then the result line with every metric of
  /// `specs` (the last stdout line).  A count, ratio or rate the workload
  /// did not set reads 0; an unset time is a driver bug and fails the run.
  void print(const std::vector<MetricSpec>& specs) {
    std::string ctx = "{\"context\":{";
    for (std::size_t i = 0; i < context_.size(); ++i) {
      ctx += (i ? "," : "") + ("\"" + context_[i].first + "\":") +
             context_[i].second;
    }
    std::printf("%s}}\n", ctx.c_str());
    std::string metrics;
    for (const MetricSpec& m : specs) {
      const auto it = values_.find(m.name);
      check(it != values_.end() || !is_time_unit(m.unit),
            "time metric " + m.name + " was not measured");
      metrics += (metrics.empty() ? "\"" : ",\"") + m.name +
                 "\":{\"value\":" +
                 json_number(it == values_.end() ? 0.0 : it->second) +
                 ",\"unit\":\"" + m.unit + "\"}";
    }
    std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
                "\"metrics\":{%s}}\n",
                correct_ ? "true" : "false", attempted_, failed_,
                metrics.c_str());
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; +inf entries stand for
/// failed operations and sort last.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::infinity();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Comma-separated values, for the context line.
inline std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ",") + json_number(x);
  return out;
}

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Process CPU seconds (user + system, all threads).
inline double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Peak resident set size of the process in MB.
inline double max_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// Report the answer times of a run (ms): the median and the mean as
/// end-to-end metrics, the tail percentiles per layer.  With fewer than
/// ten answers beyond a percentile it reads the slowest answer.
inline void report_answers(Result& result, const std::vector<double>& ms) {
  result.set("p50_ms", median(ms));
  result.set("mean_ms", mean(ms));
  result.set("latency.p90_ms", percentile(ms, 0.9));
  result.set("latency.p99_ms", percentile(ms, 0.99));
  result.context("answers", static_cast<double>(ms.size()));
}

/// The set-up times of one run, reported as their median (setup_s).  A
/// set-up takes 0.02-0.1 s, short enough for one slow stretch of a shared
/// host to move it by a third, so a run sets up several times at points
/// spread over the whole run — before the measured section and between or
/// after its answers — rather than several times in a row.
class SetupTimes {
 public:
  /// Run `setup` and record its wall time.
  void time(const std::function<void()>& setup) {
    const double t0 = trace::now();
    setup();
    times_.push_back(trace::now() - t0);
  }

  [[nodiscard]] double median() const { return e2e::median(times_); }

  /// Set setup_s to the median and list every set-up in the context line.
  void report(Result& result) const {
    result.set("setup_s", median());
    std::vector<double> ms;
    for (double s : times_) ms.push_back(s * 1e3);
    result.context("setups_ms", join(ms));
  }

 private:
  std::vector<double> times_;
};

/// Number of answers a closed-loop run measures: `seconds` over a nominal
/// answer time, at least `min_answers`.  The nominal time is a constant,
/// sized once; a run never derives its count from how fast the build
/// under test answers, so every commit solves the same inputs.
inline int answer_count(double seconds, double nominal_seconds,
                        int min_answers) {
  return std::max(min_answers, static_cast<int>(seconds / nominal_seconds));
}

}  // namespace e2e
