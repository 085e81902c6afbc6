/// \file micro_dispatch.cpp
/// Dispatch-latency microbenchmark for the parallel substrate: how much a
/// `parallel_for` call costs beyond its body on the persistent pool, next to
/// a spawn-per-call baseline (fresh std::threads per loop, the design the
/// pool replaced; kept here as a bench-local reference loop). This is the
/// number the executor exists to shrink — the blocked factorizations issue
/// many small GEMMs whose loop bodies are only a few microseconds, so
/// per-call thread spawn/join used to dominate.
///
///   micro_dispatch --iters=1000 --reps=500 --threads=4
///                  --out=BENCH_dispatch.json
///
/// Two loop bodies are timed: `empty` (pure dispatch cost; the body is an
/// indirect no-op call) and `tiny_gemm` (a 16x16x16 GEMM per index, the
/// small-kernel regime of blocked trailing updates). For each body the
/// serial per-call time (threads = 1) is subtracted from the parallel
/// per-call time to isolate the dispatch overhead, and the artifact reports
/// `spawn_over_pool_empty` — the factor by which the pool beats
/// spawn-per-call on empty loops (CI asserts >= 5).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/executor.hpp"
#include "common/json.hpp"

using namespace abftc;

namespace {

constexpr std::size_t kTiny = 16;  // tiny-GEMM dimension

struct Result {
  std::string body;
  std::string dispatch;  // "serial", "pool", "spawn"
  unsigned threads = 1;
  double per_call_seconds = 0.0;
  double overhead_seconds = 0.0;  // per-call minus the serial reference
};

/// The spawn-per-call baseline: fresh std::threads for this one loop,
/// joined before return. The caller participates, and every participant
/// claims chunks of n/(threads·8) indices off one atomic cursor — the
/// pool's static chunking, so only the thread lifecycle differs.
template <typename Fn>
void spawn_parallel_for(std::size_t n, const Fn& body, unsigned threads) {
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(threads) * 8));
  std::atomic<std::size_t> cursor{0};
  const auto participate = [&] {
    for (;;) {
      const std::size_t lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= n) return;
      for (std::size_t i = lo; i < std::min(n, lo + chunk); ++i) body(i);
    }
  };
  std::vector<std::jthread> helpers;  // joined on return, throws included
  for (std::size_t t = 1; t < std::min<std::size_t>(threads, n); ++t)
    helpers.emplace_back(participate);
  participate();
}

/// Mean seconds per loop call over `reps` repetitions; `call()` issues one.
template <typename Call>
double time_calls(int reps, const Call& call) {
  // Warm-up: the first pool call pays lazy worker creation; the first spawn
  // call pays nothing special but keeps the paths symmetric.
  call();
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) call();
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return total / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::size_t iters =
      static_cast<std::size_t>(args.get_int("iters", 1000));
  const int reps = static_cast<int>(args.get_int("reps", 500));
  const unsigned threads =
      static_cast<unsigned>(args.get_int("threads", 4));
  const std::string out_path = args.get_string("out", "BENCH_dispatch.json");
  args.warn_unknown(std::cerr);

  // Loop bodies. The tiny-GEMM body writes its result into a per-index slot,
  // so the work cannot be elided and the loop stays race-free.
  const auto empty_body = [](std::size_t) {};
  std::vector<double> a(kTiny * kTiny), b(kTiny * kTiny), sink(iters);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1.0 + static_cast<double>(i % 7);
    b[i] = 2.0 - static_cast<double>(i % 5);
  }
  const auto gemm_body = [&](std::size_t idx) {
    double c[kTiny * kTiny] = {};
    for (std::size_t i = 0; i < kTiny; ++i)
      for (std::size_t p = 0; p < kTiny; ++p) {
        const double aip = a[i * kTiny + p];
        for (std::size_t j = 0; j < kTiny; ++j)
          c[i * kTiny + j] += aip * b[p * kTiny + j];
      }
    sink[idx] = c[0] + c[kTiny * kTiny - 1];
  };

  std::vector<Result> results;
  double spawn_overhead_empty = 0.0, pool_overhead_empty = 0.0;
  const auto bench_body = [&](const std::string& name, const auto& body) {
    const double serial =
        time_calls(reps, [&] { common::parallel_for(iters, body, 1); });
    results.push_back({name, "serial", 1, serial, 0.0});
    for (const bool pool : {false, true}) {
      const double per_call =
          pool ? time_calls(reps,
                            [&] { common::parallel_for(iters, body, threads); })
               : time_calls(reps,
                            [&] { spawn_parallel_for(iters, body, threads); });
      const double overhead = per_call > serial ? per_call - serial : 0.0;
      results.push_back(
          {name, pool ? "pool" : "spawn", threads, per_call, overhead});
      if (name == "empty")
        (pool ? pool_overhead_empty : spawn_overhead_empty) = overhead;
    }
  };
  bench_body("empty", empty_body);
  bench_body("tiny_gemm", gemm_body);

  // The acceptance ratio: clamp the pool denominator at 1 ns so a
  // within-noise pool overhead reads as a large, finite speedup.
  const double ratio =
      spawn_overhead_empty / std::max(pool_overhead_empty, 1e-9);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open '" << out_path << "' for writing\n";
    return 2;
  }
  common::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "dispatch_latency");
  json.kv("iters", iters);
  json.kv("reps", reps);
  json.kv("threads", threads);
  json.kv("resolved_threads", common::effective_threads(threads));
  json.kv("hardware_threads", common::hardware_workers());
  json.kv("spawn_over_pool_empty", ratio);
  json.key("results").begin_array();
  for (const Result& r : results) {
    json.begin_object();
    json.kv("body", r.body);
    json.kv("dispatch", r.dispatch);
    json.kv("threads", r.threads);
    json.kv("per_call_us", r.per_call_seconds * 1e6);
    json.kv("overhead_us", r.overhead_seconds * 1e6);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  for (const Result& r : results)
    std::cout << r.body << " dispatch=" << r.dispatch
              << " threads=" << r.threads
              << " per_call=" << r.per_call_seconds * 1e6 << "us"
              << " overhead=" << r.overhead_seconds * 1e6 << "us\n";
  std::cout << "pool beats spawn on empty loops by " << ratio << "x; wrote "
            << out_path << "\n";
  return 0;
}
