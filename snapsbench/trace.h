#ifndef SNAPSBENCH_TRACE_H_
#define SNAPSBENCH_TRACE_H_

// In-memory span recording for the traced run. Each thread records
// into its own SpanLog (no locking on the request path); the logs are
// merged and written as Chrome trace-event JSON when the run ends, so
// the file opens in Perfetto or chrome://tracing.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace snapsbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // A string literal.
  int64_t start_us = 0;   // Since the trace epoch.
  int64_t end_us = 0;
  int64_t id = 0;         // Unique across threads.
  int64_t parent = -1;    // Span id, -1 for a root.
  int64_t request = -1;   // Request index, -1 outside a request.
};

/// The spans of one thread.
class SpanLog {
 public:
  SpanLog(uint32_t thread, Clock::time_point epoch) : thread_(thread), epoch_(epoch) {}

  /// Opens a span and returns its id.
  int64_t Begin(const char* name, int64_t parent = -1, int64_t request = -1);
  /// Closes span `id` (opened on this log) and returns its seconds.
  double End(int64_t id);

  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const;

  uint32_t thread_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope; with a null log it only
/// measures.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  /// Closes the span now and returns its duration in seconds.
  double Stop();

 private:
  SpanLog* log_;
  int64_t id_ = -1;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// Writes the spans of `logs` plus the per-layer metrics by name as one
/// Chrome trace-event JSON document. Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs,
                      const std::map<std::string, double>& metrics);

}  // namespace snapsbench

#endif  // SNAPSBENCH_TRACE_H_
