#include "trace.hpp"

#include <atomic>
#include <fstream>

#include "common/json.hpp"

namespace perfbench {

void Tracer::record(Event e) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  abftc::common::JsonWriter json(os);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (const Event& e : events_) {
    json.begin_object();
    json.kv("name", e.name);
    json.kv("cat", e.cat);
    json.kv("ph", "X");
    json.kv("pid", std::uint64_t{1});
    json.kv("tid", std::uint64_t{e.tid});
    json.kv("ts", e.ts_us);
    json.kv("dur", e.dur_us);
    json.key("args");
    json.begin_object();
    for (const auto& [key, value] : e.args) json.kv(key, value);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

std::uint32_t trace_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

Span::Span(Tracer* tracer, const char* cat, const char* name)
    : tracer_(tracer), t0_(Clock::now()) {
  if (tracer_ == nullptr) return;
  event_.cat = cat;
  event_.name = name;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const auto t1 = Clock::now();
  event_.tid = trace_tid();
  event_.ts_us =
      std::chrono::duration<double, std::micro>(t0_ - tracer_->epoch()).count();
  event_.dur_us = std::chrono::duration<double, std::micro>(t1 - t0_).count();
  tracer_->record(std::move(event_));
}

void Span::arg(const char* key, double value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, value);
}

}  // namespace perfbench
