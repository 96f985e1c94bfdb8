#pragma once
// Bench-local span recorder for the end-to-end driver.
//
// A span records its layer, name, start, end, parent span and request id.
// Spans live in per-thread buffers and are only ever placed around calls
// the benchmark itself makes (or synthesised from durations the library
// reports, e.g. ServeResult::queue_seconds); nothing inside src/ is
// instrumented.  At the end of a traced run the spans are folded into
// per-layer self time (a span's duration minus the part of it its children
// cover) and written out as Chrome trace-event JSON, which chrome://tracing
// and Perfetto open directly.
//
// When the recorder is disabled a Scope costs one relaxed atomic load, so
// the untraced end-to-end runs carry no measurable instrumentation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e::trace {

using Clock = std::chrono::steady_clock;

/// The time base of every span and of the driver's own timestamps.
inline Clock::time_point epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}

/// Seconds since epoch().
inline double now() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

/// The clock time `seconds` after epoch() (for sleep_until).
inline Clock::time_point at(double seconds) {
  return epoch() + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

/// One recorded span.  `layer` and `name` must be string literals.
struct Span {
  const char* layer = "";
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;   ///< index into the same collection, -1 = root
  std::uint64_t request = 0;  ///< request id shared by a request's spans
  int lane = 0;               ///< Chrome trace row (tid)
};

class Recorder {
 public:
  static Recorder& instance() {
    static Recorder recorder;
    return recorder;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Open a span on the calling thread; its parent is the thread's
  /// innermost open span.  Returns its index in the thread's buffer.
  std::int64_t open(const char* layer, const char* name,
                    std::uint64_t request) {
    Buffer& b = buffer();
    Span s;
    s.layer = layer;
    s.name = name;
    s.start = now();
    s.parent = b.stack.empty() ? -1 : b.stack.back();
    s.request = request;
    s.lane = b.lane;
    b.spans.push_back(s);
    b.stack.push_back(static_cast<std::int64_t>(b.spans.size()) - 1);
    return b.stack.back();
  }

  void close(std::int64_t id) {
    Buffer& b = buffer();
    b.spans[static_cast<std::size_t>(id)].end = now();
    b.stack.pop_back();
  }

  /// Record a finished span with known times (durations reported by the
  /// library).  `parent` is an index returned by open() or add() on this
  /// thread.  Returns the new span's index.
  std::int64_t add(const char* layer, const char* name, double start,
                   double end, std::int64_t parent, std::uint64_t request,
                   int lane) {
    Buffer& b = buffer();
    b.spans.push_back({layer, name, start, end, parent, request, lane});
    return static_cast<std::int64_t>(b.spans.size()) - 1;
  }

  /// Every thread's spans, parents rebased onto the merged vector.
  [[nodiscard]] std::vector<Span> collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      const auto base = static_cast<std::int64_t>(all.size());
      for (Span s : b->spans) {
        if (s.parent >= 0) s.parent += base;
        all.push_back(s);
      }
    }
    return all;
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;
    int lane = 0;
  };

  Buffer& buffer() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->lane = static_cast<int>(buffers_.size()) - 1;
    }
    return *mine;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one call; a no-op while the recorder is disabled.
class Scope {
 public:
  Scope(const char* layer, const char* name, std::uint64_t request = 0) {
    Recorder& r = Recorder::instance();
    if (r.enabled()) id_ = r.open(layer, name, request);
  }
  ~Scope() {
    if (id_ >= 0) Recorder::instance().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t id_ = -1;
};

/// Per-layer self time of a span collection.
struct Fold {
  std::map<std::string, double> self_seconds;  ///< layer -> self time
  double root_seconds = 0.0;     ///< summed duration of the root spans
  double uncovered_seconds = 0.0;  ///< root time no child span covers

  /// Share of the roots' time that child spans account for.
  [[nodiscard]] double coverage() const {
    return root_seconds > 0.0 ? 1.0 - uncovered_seconds / root_seconds : 0.0;
  }
  /// A layer's self time as a share of the roots' time.
  [[nodiscard]] double share(const std::string& layer) const {
    const auto it = self_seconds.find(layer);
    return it == self_seconds.end() || root_seconds <= 0.0
               ? 0.0
               : it->second / root_seconds;
  }
};

/// Fold spans into layer self time.  Spans of `root_layer` are the units of
/// work being explained: their self time is the uncovered remainder.
/// Spans outside any root (set-up, checks) are ignored.
inline Fold fold(const std::vector<Span>& spans,
                 const std::string& root_layer) {
  const std::size_t n = spans.size();
  std::vector<std::vector<std::size_t>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  // A span counts when it is a root span or lies below one.
  std::vector<char> inside(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (root_layer == spans[i].layer && spans[i].parent < 0) inside[i] = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {  // parents precede their children
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && inside[static_cast<std::size_t>(parent)]) inside[i] = 1;
  }
  Fold out;
  for (std::size_t i = 0; i < n; ++i) {
    if (!inside[i]) continue;
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[i]) {
      const double a = std::max(s.start, spans[c].start);
      const double b = std::min(s.end, spans[c].end);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const double self = std::max(0.0, (s.end - s.start) - covered);
    if (root_layer == s.layer && s.parent < 0) {
      out.root_seconds += s.end - s.start;
      out.uncovered_seconds += self;
    } else {
      out.self_seconds[s.layer] += self;
    }
  }
  return out;
}

/// Write the spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds).  Returns false when the file cannot be written.
inline bool write_chrome(const std::string& path,
                         const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << static_cast<long long>(s.start * 1e6)
        << ",\"dur\":" << static_cast<long long>((s.end - s.start) * 1e6)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e::trace
