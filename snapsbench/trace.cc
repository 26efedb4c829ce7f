#include "trace.h"

#include <cstdio>
#include <fstream>

namespace snapsbench {

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_).count();
}

int64_t SpanLog::Begin(const char* name, int64_t parent, int64_t request) {
  Span s;
  s.name = name;
  s.start_us = Now();
  s.id = (static_cast<int64_t>(thread_) << 40) | static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.request = request;
  spans_.push_back(s);
  return s.id;
}

double SpanLog::End(int64_t id) {
  Span& s = spans_[static_cast<size_t>(id & ((int64_t{1} << 40) - 1))];
  s.end_us = Now();
  return static_cast<double>(s.end_us - s.start_us) * 1e-6;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, int64_t parent, int64_t request)
    : log_(log), start_(Clock::now()) {
  if (log_ != nullptr) id_ = log_->Begin(name, parent, request);
}

ScopedSpan::~ScopedSpan() { Stop(); }

double ScopedSpan::Stop() {
  if (seconds_ < 0.0) {
    seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
    if (log_ != nullptr) log_->End(id_);
  }
  return seconds_;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs,
                      const std::map<std::string, double>& metrics) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%lld,\"dur\":%lld,"
                    "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}",
                    first ? "" : ",", s.name, log->thread(), static_cast<long long>(s.start_us),
                    static_cast<long long>(s.end_us - s.start_us), static_cast<long long>(s.id),
                    static_cast<long long>(s.parent), static_cast<long long>(s.request));
      out << buf;
      first = false;
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"metrics\":{";
  first = true;
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof(buf), "%s\n\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    out << buf;
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

}  // namespace snapsbench
