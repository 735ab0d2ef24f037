#include "trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

Usage SampleUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = Seconds(ru.ru_utime);
  u.sys_s = Seconds(ru.ru_stime);
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.nvcsw = static_cast<double>(ru.ru_nvcsw);
  u.nivcsw = static_cast<double>(ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.rss_mb = ResidentMb();
  return u;
}

double NowMicros() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int Tracer::Begin(const std::string& name) {
  SpanRecord r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.begin = SampleUsage();
  r.start_us = NowMicros();
  spans_.push_back(std::move(r));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  SpanRecord& r = spans_[static_cast<size_t>(id)];
  r.end_us = NowMicros();
  r.end = SampleUsage();
  // Spans nest strictly (RAII on one thread), so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<const SpanRecord*> Tracer::Find(const std::string& name) const {
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& r : spans_) {
    if (r.name == name && r.end_us > 0.0) out.push_back(&r);
  }
  return out;
}

std::string Tracer::ChromeJson(const std::string& metadata) const {
  std::string json = "{\"displayTimeUnit\": \"ms\", \"otherData\": " +
                     metadata + ", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    const std::string parent =
        r.parent < 0 ? "" : spans_[static_cast<size_t>(r.parent)].name;
    json += "{\"name\": \"" + r.name + "\", \"ph\": \"X\", \"pid\": 1, " +
            "\"tid\": 1, \"ts\": " + Fmt("%.3f", r.start_us) +
            ", \"dur\": " + Fmt("%.3f", r.end_us - r.start_us) +
            ", \"args\": {\"id\": " + std::to_string(i) +
            ", \"parent\": \"" + parent + "\"" +
            ", \"user_s\": " + Fmt("%.6f", r.user_s()) +
            ", \"sys_s\": " + Fmt("%.6f", r.sys_s()) +
            ", \"minflt\": " + Fmt("%.0f", r.minflt()) +
            ", \"nvcsw\": " + Fmt("%.0f", r.nvcsw()) +
            ", \"nivcsw\": " + Fmt("%.0f", r.nivcsw()) +
            ", \"maxrss_mb\": " + Fmt("%.2f", r.end.maxrss_mb) +
            ", \"rss_mb\": " + Fmt("%.2f", r.end.rss_mb) + "}}" +
            (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  json += "]}\n";
  return json;
}

Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), start_us_(NowMicros()) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name);
}

double Span::Stop() {
  if (seconds_ < 0.0) {
    seconds_ = (NowMicros() - start_us_) * 1e-6;
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  return seconds_;
}

}  // namespace perfbench
