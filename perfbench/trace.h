// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (KsprSolver, FinalizeRegion, QueryEngine,
// ShardRouter, ShardWorker, the candidate pipeline and the wire codec):
// name, start, end, parent span and request id. Nothing is recorded when
// the tracer is disabled, so the untraced run pays one branch per call.
// The single client thread owns the tracer; it is not thread-safe.

#ifndef KSPR_PERFBENCH_TRACE_H_
#define KSPR_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace kspr::perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* name;  // static string
    int64_t start_ns;
    int64_t end_ns;
    int parent;        // index into spans(), -1 for a root span
    int64_t request;   // id shared by every span of one request
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when tracing is off.
  int Begin(const char* name, int64_t request) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `index` (the innermost open one) and returns its length
  /// in ms; 0 when tracing is off.
  double End(int index) {
    if (index < 0) return 0.0;
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = Now();
    open_.pop_back();
    return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array of
  /// [name, start_ns, end_ns, parent, request] rows.
  void WriteJson(std::FILE* out) const {
    std::fputs("[", out);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%s[\"%s\",%lld,%lld,%d,%lld]", i ? ",\n" : "\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.request));
    }
    std::fputs("]", out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin on construction, End on destruction or Close().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer), index_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Close() {
    const double ms = tracer_->End(index_);
    index_ = -1;
    return ms;
  }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace kspr::perfbench

#endif  // KSPR_PERFBENCH_TRACE_H_
