#pragma once
/// \file service.hpp
/// The multi-tenant sweep service core: a bounded admission queue feeding a
/// coordinator thread that coalesces the cells of every queued request into
/// one batch and runs them as a single loop
/// (Executor::global().parallel_for) — the same shared-cursor schedule as
/// Experiment::run, whose greedy chunk claiming absorbs the mix of sim-heavy
/// and model-only cells. One loop for N tenants means the box is saturated
/// without oversubscription (the executor's nesting arbitration bounds each
/// cell's inner evaluator parallelism).
///
/// Determinism: every cell is evaluated by core::evaluate_cell and every
/// row assembled by core::sink_row_values — the exact code path of
/// Experiment::run — and rows are flushed to each request's sink in grid
/// order (an ordered emitter releases the completed prefix as cells land).
/// A served request's sink bytes are therefore bitwise-identical to a batch
/// CLI run of the same spec, no matter what else shared its batch.
///
/// Backpressure: a full admission queue rejects immediately with
/// svc_error("queue-full"). Cancellation: RequestHandle::cancel (wired to
/// client disconnect by the server) stops that request's remaining cells
/// and row emission; the other tenants of the batch are unaffected.
/// Shutdown: drain_and_stop finishes every admitted request, never drops
/// one.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/executor.hpp"
#include "core/experiment.hpp"
#include "svc/protocol.hpp"

namespace abftc::svc {

struct ServiceConfig {
  /// Admitted-but-not-started requests the queue holds before rejecting
  /// (backpressure bound).
  std::size_t queue_cap = 16;
  /// Requests coalesced into one execution batch (>= 1).
  std::size_t batch_max = 4;
  /// Worker budget of the batch cell loop; 0 = hardware concurrency.
  unsigned threads = 0;
};

/// Per-request accounting, reported in the wire trailer record.
struct RequestMetrics {
  std::uint64_t id = 0;
  std::string name;
  std::size_t cells = 0;          ///< grid cells of the request
  std::size_t cells_run = 0;      ///< cells actually evaluated (< on cancel)
  std::size_t rows_flushed = 0;   ///< rows streamed to the sink
  std::size_t batch_requests = 0; ///< tenants sharing the execution batch
  double queue_wait_s = 0.0;      ///< admission -> batch start
  double wall_s = 0.0;            ///< batch start -> request finished
  bool cancelled = false;
  bool failed = false;
  std::string error_code;     ///< set when failed
  std::string error_message;  ///< set when failed
  /// Executor::stats() delta over the batch this request ran in (the
  /// scheduler's chunks/parks are a shared-loop property, so the
  /// delta is batch-wide, not per-tenant).
  common::ExecutorCounters exec;
};

/// Running totals across the service lifetime.
struct ServiceTotals {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;  ///< backpressure rejections
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t cells_evaluated = 0;
  std::uint64_t rows_flushed = 0;
};

/// Handle on one admitted request.
class RequestHandle {
 public:
  RequestHandle() = default;

  [[nodiscard]] std::uint64_t id() const noexcept;
  /// Ask the service to stop evaluating/streaming this request. Safe from
  /// any thread, idempotent; already-flushed rows are not recalled.
  void cancel() noexcept;
  [[nodiscard]] bool finished() const noexcept;
  /// Block until the request finished; returns its metrics.
  const RequestMetrics& wait() const;
  /// Bounded wait; true when finished.
  bool wait_for(double seconds) const;

 private:
  friend class SweepService;
  struct Request;
  std::shared_ptr<Request> req_;
};

class SweepService {
 public:
  explicit SweepService(ServiceConfig cfg = {});
  ~SweepService();  ///< drain_and_stop()
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Admit a request: its cells will be batched with other tenants' and its
  /// rows streamed to `sink` (owned; begin/row/end called in grid order).
  /// Throws svc_error("queue-full") when backpressured,
  /// svc_error("shutting-down") after drain_and_stop began.
  RequestHandle submit(const RequestSpec& spec,
                       std::unique_ptr<core::ResultSink> sink);

  /// Stop admitting, finish every already-admitted request, join the
  /// coordinator. Idempotent.
  void drain_and_stop();

  [[nodiscard]] ServiceTotals totals() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace abftc::svc
