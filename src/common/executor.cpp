#include "common/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace abftc::common {

namespace {

/// Hard ceiling on helper threads for any single executor. Requests above it
/// are clamped to kMaxHelpers + 1 participants; the clamp cannot change
/// results (chunk ownership is derived from the index space, not the worker
/// set).
constexpr unsigned kMaxHelpers = 256;

/// Nesting depth of the current thread: incremented while it executes chunks
/// or tasks of any parallel region (pool worker or caller participation).
thread_local unsigned t_nesting_depth = 0;

struct DepthGuard {
  DepthGuard() noexcept { ++t_nesting_depth; }
  ~DepthGuard() { --t_nesting_depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
};

/// Monotonic scheduler counters; relaxed — they order nothing.
struct alignas(64) StatsBlock {
  std::atomic<std::uint64_t> chunks_claimed{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> unparks{0};

  [[nodiscard]] ExecutorCounters snapshot() const noexcept {
    ExecutorCounters c;
    c.chunks_claimed = chunks_claimed.load(std::memory_order_relaxed);
    c.parks = parks.load(std::memory_order_relaxed);
    c.unparks = unparks.load(std::memory_order_relaxed);
    return c;
  }
};

void accumulate(ExecutorCounters& into, const ExecutorCounters& c) noexcept {
  into.chunks_claimed += c.chunks_claimed;
  into.tasks_stolen += c.tasks_stolen;
  into.parks += c.parks;
  into.unparks += c.unparks;
}

/// Shared state of one parallel loop. Participants (the caller plus any pool
/// workers that picked up a helper job) claim contiguous chunks off `cursor`
/// until it passes `n` or `stop` is raised. `running` counts participants
/// currently inside the claim loop: a participant registers *before* its
/// first claim, so once the caller observes running == 0 after its own
/// chunks drained, no chunk is executing and none can start (the cursor is
/// exhausted or `stop` is permanently set) — late-popped helper jobs touch
/// only the atomics, never `fn`/`ctx`. The shared_ptr in each queued job
/// keeps this state alive past the caller's stack frame.
struct LoopState {
  detail::RawLoopFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stop{false};

  std::mutex m;
  std::condition_variable done;
  unsigned running = 0;             // guarded by m
  std::exception_ptr first_error;   // guarded by m
};

/// Claim and execute chunks until the loop drains or stops. On the first
/// exception the error is captured, `stop` is raised (relaxed: other
/// participants notice at their next chunk boundary), and the rest of the
/// throwing chunk is abandoned.
void run_chunks(LoopState& loop, StatsBlock& stats) {
  for (;;) {
    if (loop.stop.load(std::memory_order_relaxed)) return;
    const std::size_t lo =
        loop.cursor.fetch_add(loop.chunk, std::memory_order_relaxed);
    if (lo >= loop.n) return;
    const std::size_t hi = std::min(lo + loop.chunk, loop.n);
    stats.chunks_claimed.fetch_add(1, std::memory_order_relaxed);
    try {
      for (std::size_t i = lo; i < hi; ++i) loop.fn(loop.ctx, i);
    } catch (...) {
      std::lock_guard lock(loop.m);
      if (!loop.first_error) loop.first_error = std::current_exception();
      loop.stop.store(true, std::memory_order_relaxed);
    }
  }
}

void participate(LoopState& loop, StatsBlock& stats) {
  {
    std::lock_guard lock(loop.m);
    ++loop.running;
  }
  {
    DepthGuard depth;
    run_chunks(loop, stats);
  }
  {
    std::lock_guard lock(loop.m);
    if (--loop.running == 0) loop.done.notify_all();
  }
}

/// Chunking: the cursor is touched ~8× per participant, and contiguous
/// ranges keep cache locality for loops walking adjacent rows.
std::size_t chunk_for(std::size_t n, unsigned threads) noexcept {
  return std::max<std::size_t>(
      1, n / (static_cast<std::size_t>(threads) * 8));
}

/// A unit of pool work: a helper job for a running loop, or a submitted
/// task.
struct ExecutorJob {
  std::shared_ptr<LoopState> loop;
  std::function<void()> task;
};

/// Identity of the current thread inside a pool (set for worker threads).
/// Holds the owning Impl as void* (the nested type is private to Executor);
/// only compared against, never dereferenced from here.
struct WorkerIdentity {
  void* impl = nullptr;
  StatsBlock* stats = nullptr;
};
thread_local WorkerIdentity t_worker;

}  // namespace

unsigned hardware_workers() noexcept {
  static const unsigned cached = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1u : hc;
  }();
  return cached;
}

unsigned effective_threads(unsigned threads) noexcept {
  return threads == 0 ? hardware_workers() : threads;
}

// --- Executor ---------------------------------------------------------------

struct Executor::Impl {
  unsigned cap = 0;

  std::mutex m;
  std::condition_variable work;
  std::deque<ExecutorJob> queue;     // guarded by m
  std::vector<std::thread> workers;  // guarded by m (grow-only)
  /// Per-worker counters, index = worker id; grown under m together with
  /// `workers`. std::deque keeps the addresses stable across growth.
  std::deque<StatsBlock> worker_stats;  // guarded by m
  bool stopping = false;             // guarded by m

  /// Counter row for loop callers and other non-worker participants.
  StatsBlock caller_stats;

  /// Workers parked in the wait below. Advisory (read without m by the
  /// nested-loop arbitration): a stale value only costs a queued job that
  /// drains without work, never correctness.
  std::atomic<unsigned> idle{0};

  [[nodiscard]] bool on_worker() const noexcept { return t_worker.impl == this; }

  StatsBlock& stats_for_current() noexcept {
    return on_worker() ? *t_worker.stats : caller_stats;
  }

  static void run_job(ExecutorJob& job, StatsBlock& stats) {
    if (job.loop) {
      participate(*job.loop, stats);
    } else if (job.task) {
      DepthGuard depth;
      job.task();  // packaged tasks / arena wrappers capture their errors
    }
  }

  /// Pop and run one queued job on the calling worker. False when the queue
  /// was empty.
  bool run_one() {
    std::unique_lock lock(m);
    if (queue.empty()) return false;
    ExecutorJob job = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    run_job(job, *t_worker.stats);
    return true;
  }

  void worker_main(StatsBlock& stats) {
    t_worker = {this, &stats};
    for (;;) {
      if (run_one()) continue;
      std::unique_lock lock(m);
      if (!queue.empty()) continue;  // queued after run_one looked
      if (stopping) return;          // queue drained
      idle.fetch_add(1, std::memory_order_relaxed);
      stats.parks.fetch_add(1, std::memory_order_relaxed);
      work.wait(lock, [&] { return stopping || !queue.empty(); });
      idle.fetch_sub(1, std::memory_order_relaxed);
      stats.unparks.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Grow the worker set to at least `want` threads (within the cap).
  /// Returns the number of helpers actually available.
  unsigned ensure_helpers(unsigned want) {
    want = std::min(want, cap);
    if (want == 0) return 0;
    std::lock_guard lock(m);
    if (stopping) return 0;
    while (workers.size() < want) {
      StatsBlock& stats = worker_stats.emplace_back();
      workers.emplace_back([this, &stats] { worker_main(stats); });
    }
    return static_cast<unsigned>(workers.size());
  }
};

Executor::Executor(unsigned max_helpers) : impl_(std::make_unique<Impl>()) {
  impl_->cap = std::min(max_helpers == 0 ? kMaxHelpers : max_helpers,
                        kMaxHelpers);
}

Executor::~Executor() {
  {
    std::lock_guard lock(impl_->m);
    impl_->stopping = true;
  }
  impl_->work.notify_all();
  for (auto& th : impl_->workers) th.join();
}

Executor& Executor::global() {
  static Executor pool;
  return pool;
}

unsigned Executor::spawned_helpers() const noexcept {
  std::lock_guard lock(impl_->m);
  return static_cast<unsigned>(impl_->workers.size());
}

unsigned Executor::max_helpers() const noexcept { return impl_->cap; }

ExecutorStats operator-(const ExecutorStats& after,
                        const ExecutorStats& before) {
  ExecutorStats out;
  out.total = after.total - before.total;
  out.callers = after.callers - before.callers;
  out.per_worker.reserve(after.per_worker.size());
  for (std::size_t i = 0; i < after.per_worker.size(); ++i)
    out.per_worker.push_back(i < before.per_worker.size()
                                 ? after.per_worker[i] - before.per_worker[i]
                                 : after.per_worker[i]);
  return out;
}

ExecutorStats Executor::stats() const {
  ExecutorStats out;
  out.callers = impl_->caller_stats.snapshot();
  accumulate(out.total, out.callers);
  std::lock_guard lock(impl_->m);
  out.per_worker.reserve(impl_->worker_stats.size());
  for (const StatsBlock& w : impl_->worker_stats) {
    out.per_worker.push_back(w.snapshot());
    accumulate(out.total, out.per_worker.back());
  }
  return out;
}

bool Executor::inside_parallel_region() noexcept {
  return t_nesting_depth > 0;
}

unsigned Executor::nesting_depth() noexcept { return t_nesting_depth; }

void Executor::run_loop(std::size_t n, detail::RawLoopFn fn, void* ctx,
                        unsigned threads) {
  if (n == 0) return;
  threads = std::min(effective_threads(threads), impl_->cap + 1);
  // Nesting arbitration — a loop issued from inside a parallel region gets
  // a *bounded share*: only workers idle right now may help, and the pool
  // never grows for it. Busy pool (the common sweep × kernel case) means
  // zero idle workers and the loop runs inline on the calling thread with
  // no dispatch cost; an under-filled pool (a 4-cell grid on a 16-worker
  // pool) lends its parked workers to the inner loop. Either way peak
  // concurrency stays bounded by the pool size + callers, so nested
  // regions can never oversubscribe, and the caller still executes chunks
  // itself, so nesting stays deadlock-free.
  const bool nested = inside_parallel_region();
  const unsigned lendable =
      nested ? impl_->idle.load(std::memory_order_relaxed) : 0;
  // Serial fast path: exceptions propagate directly (which trivially
  // satisfies the first-error/short-circuit contract).
  if (threads <= 1 || n == 1 || (nested && lendable == 0)) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  auto loop = std::make_shared<LoopState>();
  loop->fn = fn;
  loop->ctx = ctx;
  loop->n = n;
  loop->chunk = chunk_for(n, threads);
  const std::size_t chunks = (n + loop->chunk - 1) / loop->chunk;
  unsigned helpers =
      static_cast<unsigned>(std::min<std::size_t>(threads, chunks)) - 1;
  // Top-level loops grow the pool to the full requested budget (threads-1),
  // not just to the helper jobs this loop can use: a 3-cell grid on a
  // 16-thread request parks 13 workers that its cells' nested loops may
  // then borrow. Nested loops never grow the pool (bounded share).
  helpers = nested ? std::min(helpers, lendable)
                   : std::min(helpers, impl_->ensure_helpers(threads - 1));

  if (helpers > 0) {
    {
      std::lock_guard lock(impl_->m);
      for (unsigned h = 0; h < helpers; ++h)
        impl_->queue.push_back(ExecutorJob{loop, {}});
    }
    impl_->work.notify_all();
  }

  participate(*loop, impl_->stats_for_current());
  // The caller's claim loop only returns once the cursor is exhausted or the
  // loop stopped, so waiting for running == 0 is the full completion
  // condition; helper jobs still queued will find nothing to claim.
  std::unique_lock lock(loop->m);
  loop->done.wait(lock, [&] { return loop->running == 0; });
  if (loop->first_error) {
    std::exception_ptr err = loop->first_error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void Executor::enqueue_task(std::function<void()> task) {
  Impl* const impl = impl_.get();
  if (impl->ensure_helpers(1) == 0) {
    // No workers permitted (or shutting down): run inline, same depth rules.
    DepthGuard depth;
    task();
    return;
  }
  {
    std::lock_guard lock(impl->m);
    impl->queue.push_back(ExecutorJob{nullptr, std::move(task)});
  }
  impl->work.notify_one();
}

// --- ScopedArena ------------------------------------------------------------

struct Executor::ScopedArena::State {
  mutable std::mutex m;
  std::condition_variable idle;
  std::size_t pending = 0;           // guarded by m
  std::exception_ptr first_error;    // guarded by m
};

Executor::ScopedArena::ScopedArena(Executor& ex)
    : ex_(ex), state_(std::make_shared<State>()) {}

Executor::ScopedArena::~ScopedArena() {
  // Errors not collected through wait() are intentionally swallowed: a
  // destructor must not throw.
  drain();
}

void Executor::ScopedArena::drain() {
  if (ex_.impl_->on_worker()) {
    // Help-first on a worker thread: run queued jobs until the arena
    // drains. A worker that blocked here instead could wait forever on
    // subtasks queued behind jobs that only blocked workers would run.
    for (;;) {
      {
        std::lock_guard lock(state_->m);
        if (state_->pending == 0) return;
      }
      if (!ex_.impl_->run_one()) std::this_thread::yield();
    }
  }
  std::unique_lock lock(state_->m);
  state_->idle.wait(lock, [&] { return state_->pending == 0; });
}

void Executor::ScopedArena::submit(std::function<void()> task) {
  {
    std::lock_guard lock(state_->m);
    ++state_->pending;
  }
  ex_.enqueue_task([state = state_, task = std::move(task)] {
    try {
      task();
    } catch (...) {
      std::lock_guard lock(state->m);
      if (!state->first_error) state->first_error = std::current_exception();
    }
    std::lock_guard lock(state->m);
    if (--state->pending == 0) state->idle.notify_all();
  });
}

void Executor::ScopedArena::wait() {
  drain();
  std::unique_lock lock(state_->m);
  if (state_->first_error) {
    std::exception_ptr err = std::exchange(state_->first_error, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

std::size_t Executor::ScopedArena::pending() const noexcept {
  std::lock_guard lock(state_->m);
  return state_->pending;
}

// --- parallel_for dispatcher ------------------------------------------------

namespace detail {

void parallel_for_impl(std::size_t n, RawLoopFn fn, void* ctx,
                       unsigned threads) {
  if (n == 0) return;
  Executor::global().run_loop(n, fn, ctx, effective_threads(threads));
}

}  // namespace detail

}  // namespace abftc::common
