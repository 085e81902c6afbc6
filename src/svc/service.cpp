#include "svc/service.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/queue.hpp"

namespace abftc::svc {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

/// One admitted request: the spec resolved to its engine form, the sink,
/// the ordered-emitter state, and completion signalling.
struct RequestHandle::Request {
  core::ExperimentSpec spec;
  std::vector<std::shared_ptr<const core::Evaluator>> evaluators;
  core::SinkHeader header;
  unsigned inner_threads = 1;
  std::unique_ptr<core::ResultSink> sink;
  Clock::time_point enqueued;

  std::atomic<bool> cancel{false};

  // Ordered emitter: cells land out of order (parallel loop), rows leave in
  // grid order. `records`/`done`/`next_flush` are guarded by `mu`; whichever
  // worker completes a cell flushes the ready prefix.
  std::mutex mu;
  std::vector<core::CellRecord> records;
  std::vector<std::uint8_t> done;
  std::size_t next_flush = 0;
  bool begun = false;    ///< sink->begin happened
  bool sealed = false;   ///< no further sink calls (failed/cancelled/ended)

  RequestMetrics metrics;
  std::condition_variable finished_cv;
  bool finished = false;

  void fail(const char* code, const std::string& msg) {
    std::lock_guard lock(mu);
    if (metrics.failed) return;
    metrics.failed = true;
    metrics.error_code = code;
    metrics.error_message = msg;
    sealed = true;
  }
};

std::uint64_t RequestHandle::id() const noexcept {
  return req_ ? req_->metrics.id : 0;
}

void RequestHandle::cancel() noexcept {
  if (req_) req_->cancel.store(true, std::memory_order_relaxed);
}

bool RequestHandle::finished() const noexcept {
  if (!req_) return true;
  std::lock_guard lock(req_->mu);
  return req_->finished;
}

const RequestMetrics& RequestHandle::wait() const {
  std::unique_lock lock(req_->mu);
  req_->finished_cv.wait(lock, [&] { return req_->finished; });
  return req_->metrics;
}

bool RequestHandle::wait_for(double seconds) const {
  if (!req_) return true;
  std::unique_lock lock(req_->mu);
  return req_->finished_cv.wait_for(
      lock, std::chrono::duration<double>(seconds),
      [&] { return req_->finished; });
}

// ---- Service ---------------------------------------------------------------

struct SweepService::Impl {
  ServiceConfig cfg;
  BoundedQueue<std::shared_ptr<RequestHandle::Request>> queue;
  std::thread coordinator;
  std::atomic<std::uint64_t> next_id{1};

  mutable std::mutex totals_mu;
  ServiceTotals totals;

  std::mutex stop_mu;
  bool stopped = false;

  explicit Impl(ServiceConfig c) : cfg(c), queue(c.queue_cap) {
    if (cfg.batch_max == 0) cfg.batch_max = 1;
  }

  void coordinate();
  void run_batch(std::vector<std::shared_ptr<RequestHandle::Request>>& batch);
  static void finish(RequestHandle::Request& req, double wall_s,
                     std::size_t batch_requests,
                     const common::ExecutorCounters& exec);
};

SweepService::SweepService(ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(cfg)) {
  impl_->coordinator = std::thread([impl = impl_.get()] {
    impl->coordinate();
  });
}

SweepService::~SweepService() { drain_and_stop(); }

const ServiceConfig& SweepService::config() const noexcept {
  return impl_->cfg;
}

ServiceTotals SweepService::totals() const {
  std::lock_guard lock(impl_->totals_mu);
  return impl_->totals;
}

RequestHandle SweepService::submit(const RequestSpec& spec,
                                   std::unique_ptr<core::ResultSink> sink) {
  auto req = std::make_shared<RequestHandle::Request>();
  req->spec = to_experiment_spec(spec);
  req->spec.validate();
  // Resolve evaluators at admission, so a request always runs on the
  // evaluators that were registered when it was accepted.
  req->evaluators = core::resolve_evaluators(req->spec);
  req->header = core::Experiment::header_for(req->spec);
  const std::size_t n_cells = req->spec.sweep.cells();
  // The same inner evaluator budget Experiment::run would grant this spec
  // on its own — an upper bound the executor's nesting arbitration enforces
  // dynamically; it never changes results.
  req->inner_threads = core::inner_thread_budget(
      n_cells, common::effective_threads(req->spec.threads));
  req->sink = std::move(sink);
  req->records.resize(n_cells);
  req->done.assign(n_cells, 0);
  req->metrics.id = impl_->next_id.fetch_add(1, std::memory_order_relaxed);
  req->metrics.name = req->spec.name;
  req->metrics.cells = n_cells;
  req->enqueued = Clock::now();

  switch (impl_->queue.try_push(req)) {
    case BoundedQueue<std::shared_ptr<RequestHandle::Request>>::Push::Ok:
      break;
    case BoundedQueue<std::shared_ptr<RequestHandle::Request>>::Push::Full: {
      std::lock_guard lock(impl_->totals_mu);
      ++impl_->totals.rejected_full;
      throw svc_error("queue-full",
                      "admission queue is full (" +
                          std::to_string(impl_->cfg.queue_cap) +
                          " requests); retry later");
    }
    case BoundedQueue<std::shared_ptr<RequestHandle::Request>>::Push::Closed:
      throw svc_error("shutting-down", "service is draining");
  }
  {
    std::lock_guard lock(impl_->totals_mu);
    ++impl_->totals.admitted;
  }
  RequestHandle handle;
  handle.req_ = std::move(req);
  return handle;
}

void SweepService::drain_and_stop() {
  {
    std::lock_guard lock(impl_->stop_mu);
    if (impl_->stopped) return;
    impl_->stopped = true;
  }
  impl_->queue.close();
  if (impl_->coordinator.joinable()) impl_->coordinator.join();
}

void SweepService::Impl::coordinate() {
  std::shared_ptr<RequestHandle::Request> first;
  while (queue.pop(first)) {
    std::vector<std::shared_ptr<RequestHandle::Request>> batch;
    batch.push_back(std::move(first));
    for (auto& extra : queue.drain_ready(cfg.batch_max - 1))
      batch.push_back(std::move(extra));
    run_batch(batch);
  }
}

void SweepService::Impl::finish(RequestHandle::Request& req, double wall_s,
                                std::size_t batch_requests,
                                const common::ExecutorCounters& exec) {
  std::lock_guard lock(req.mu);
  req.metrics.wall_s = wall_s;
  req.metrics.batch_requests = batch_requests;
  req.metrics.exec = exec;
  req.metrics.cancelled = req.cancel.load(std::memory_order_relaxed);
  req.finished = true;
  req.finished_cv.notify_all();
}

void SweepService::Impl::run_batch(
    std::vector<std::shared_ptr<RequestHandle::Request>>& batch) {
  const Clock::time_point start = Clock::now();

  // Open every tenant's stream (header row) before any cell runs.
  for (auto& req : batch) {
    req->metrics.queue_wait_s = seconds_between(req->enqueued, start);
    if (req->cancel.load(std::memory_order_relaxed)) continue;
    try {
      std::lock_guard lock(req->mu);
      req->sink->begin(req->header);
      req->begun = true;
    } catch (const std::exception& e) {
      req->fail("sink-error", e.what());
    }
  }

  // The coalesced grid: every tenant's cells in one flat loop.
  struct FlatCell {
    RequestHandle::Request* req;
    std::size_t cell;
  };
  std::vector<FlatCell> flat;
  for (auto& req : batch) {
    std::lock_guard lock(req->mu);
    if (req->sealed) continue;
    for (std::size_t c = 0; c < req->records.size(); ++c)
      flat.push_back({req.get(), c});
  }

  const common::ExecutorStats stats_before =
      common::Executor::global().stats();

  common::Executor::global().parallel_for(
      flat.size(),
      [&](std::size_t i) {
        RequestHandle::Request& req = *flat[i].req;
        const std::size_t cell = flat[i].cell;
        if (req.cancel.load(std::memory_order_relaxed)) return;
        {
          std::lock_guard lock(req.mu);
          if (req.sealed) return;
        }
        core::CellRecord rec;
        try {
          rec = core::evaluate_cell(req.spec, req.evaluators, cell,
                                    req.inner_threads);
        } catch (const std::exception& e) {
          // A cell-level failure (e.g. an axis value producing an invalid
          // scenario) fails this tenant only; the batch keeps running.
          req.fail("evaluate-error", e.what());
          return;
        }
        std::lock_guard lock(req.mu);
        req.metrics.cells_run++;
        req.records[cell] = std::move(rec);
        req.done[cell] = 1;
        // Ordered emitter: stream the completed prefix, in grid order.
        while (!req.sealed && req.next_flush < req.done.size() &&
               req.done[req.next_flush]) {
          if (req.cancel.load(std::memory_order_relaxed)) break;
          try {
            req.sink->row(req.header, core::sink_row_values(
                                          req.spec,
                                          req.records[req.next_flush]));
          } catch (const std::exception& e) {
            req.metrics.failed = true;
            req.metrics.error_code = "sink-error";
            req.metrics.error_message = e.what();
            req.sealed = true;
            break;
          }
          req.metrics.rows_flushed++;
          // Release the record's memory once flushed — a big grid does not
          // hold every row until the end like the batch engine does.
          req.records[req.next_flush] = core::CellRecord{};
          req.next_flush++;
        }
      },
      cfg.threads);

  const common::ExecutorCounters exec =
      (common::Executor::global().stats() - stats_before).total;
  const Clock::time_point end = Clock::now();

  ServiceTotals delta;
  delta.batches = 1;
  for (auto& req : batch) {
    {
      std::lock_guard lock(req->mu);
      if (req->begun && !req->sealed &&
          !req->cancel.load(std::memory_order_relaxed)) {
        try {
          req->sink->end(req->header);
        } catch (const std::exception& e) {
          req->metrics.failed = true;
          req->metrics.error_code = "sink-error";
          req->metrics.error_message = e.what();
        }
        req->sealed = true;
      }
      delta.cells_evaluated += req->metrics.cells_run;
      delta.rows_flushed += req->metrics.rows_flushed;
      if (req->metrics.failed)
        ++delta.failed;
      else if (req->cancel.load(std::memory_order_relaxed))
        ++delta.cancelled;
      else
        ++delta.completed;
    }
  }
  {
    // Totals first, finish() last: a waiter woken by finish() must already
    // see this batch in totals().
    std::lock_guard lock(totals_mu);
    totals.batches += delta.batches;
    totals.cells_evaluated += delta.cells_evaluated;
    totals.rows_flushed += delta.rows_flushed;
    totals.completed += delta.completed;
    totals.cancelled += delta.cancelled;
    totals.failed += delta.failed;
  }
  for (auto& req : batch)
    finish(*req, seconds_between(start, end), batch.size(), exec);
}

}  // namespace abftc::svc
