#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced pass.
///
/// A span is recorded around each call the benchmark makes into a layer's
/// public API; counters the program returns (RunReport fields, trailer
/// fields) ride on the span as arguments. Spans stay in memory and are
/// written once, at exit, as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing). A null Tracer* turns every Span into a no-op, which
/// is how untraced ops run.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Event {
    std::string cat;   ///< layer: dist, ckpt, abft, svc, core, common, bench
    std::string name;  ///< the public call, e.g. "Launcher::run"
    std::uint32_t tid = 0;
    double ts_us = 0.0;   ///< start, relative to the tracer's epoch
    double dur_us = 0.0;
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] Clock::time_point epoch() const noexcept { return epoch_; }
  void record(Event e);
  [[nodiscard]] std::size_t size() const;

  /// Write every recorded span as {"traceEvents": [...]}; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> events_;  // guarded by mu_
};

/// Small per-thread id for trace lanes (0 = the first thread that asks).
[[nodiscard]] std::uint32_t trace_tid();

/// RAII span: records [construction, destruction) into `tracer` unless it
/// is null.
class Span {
 public:
  Span(Tracer* tracer, const char* cat, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, double value);

 private:
  Tracer* tracer_;
  Clock::time_point t0_;
  Tracer::Event event_;
};

}  // namespace perfbench
