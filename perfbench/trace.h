// Benchmark-side tracing: scoped spans around calls into the GARCIA layers.
//
// Every Span measures its wall time with std::chrono::steady_clock, traced
// or not, so the end-to-end timings of a traced and an untraced run come
// from the same code. When a Tracer is attached the span additionally takes
// a getrusage(RUSAGE_SELF) snapshot at both ends and records the delta —
// user/sys CPU, minor faults, voluntary/involuntary context switches and
// max-RSS growth — plus its parent span. Records stay in memory and are
// written as Chrome trace-event JSON when the benchmark ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// Process resource counters at one instant (getrusage plus resident set).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;
  double maxrss_mb = 0.0;  // process high-water mark so far
  double rss_mb = 0.0;     // resident now (/proc/self/statm)
};

Usage SampleUsage();
/// Monotonic microseconds since an arbitrary process-wide origin.
double NowMicros();

struct SpanRecord {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 = root
  double start_us = 0.0;
  double end_us = 0.0;
  Usage begin;
  Usage end;

  double seconds() const { return (end_us - start_us) * 1e-6; }
  double user_s() const { return end.user_s - begin.user_s; }
  double sys_s() const { return end.sys_s - begin.sys_s; }
  double minflt() const { return end.minflt - begin.minflt; }
  double nvcsw() const { return end.nvcsw - begin.nvcsw; }
  double nivcsw() const { return end.nivcsw - begin.nivcsw; }
};

/// In-memory span store for one single-threaded caller.
class Tracer {
 public:
  int Begin(const std::string& name);
  void End(int id);

  /// Every closed span named `name`, in start order.
  std::vector<const SpanRecord*> Find(const std::string& name) const;
  /// Chrome trace-event JSON ("X" complete events; args carry the parent
  /// and the usage delta). `metadata` is a JSON object placed in otherData.
  std::string ChromeJson(const std::string& metadata) const;

 private:
  std::deque<SpanRecord> spans_;  // deque: records never move
  std::vector<int> open_;  // stack of open span ids
};

/// RAII span. Always times wall clock; records into `tracer` when non-null.
class Span {
 public:
  Span(Tracer* tracer, const char* name);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its wall seconds.
  double Stop();

 private:
  Tracer* tracer_;
  int id_ = -1;
  double start_us_;
  double seconds_ = -1.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
