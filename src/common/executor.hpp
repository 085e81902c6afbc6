#pragma once
/// \file executor.hpp
/// The process-lifetime parallel substrate: one lazily started work-sharing
/// pool that every parallel region in the repo — blocked GEMM row panels,
/// group checksums, Monte-Carlo replicates, Experiment grid cells — programs
/// against.
///
/// Why a persistent pool: `parallel_for` used to spawn and join fresh
/// std::threads on every call, which dominated dispatch latency for the many
/// small GEMMs inside blocked LU/Cholesky/QR trailing updates. Workers are
/// now created once (on first demand, growing to the largest concurrency
/// ever requested), park on a condition variable between loops, and
/// self-schedule contiguous chunks off a per-loop atomic cursor. The calling
/// thread always participates in its own loop, so a loop makes progress even
/// when every worker is busy elsewhere — which is also what makes nested
/// submission deadlock-free by construction.
///
/// Nested-parallelism arbitration: each worker (and a caller while it runs
/// chunks of its own loop) carries a thread-local nesting depth. A
/// `parallel_for` issued from inside a parallel region gets a *bounded
/// share*: it may borrow workers that are idle at that moment but never
/// grows the pool, and with no idle worker it runs inline on the calling
/// thread at zero dispatch cost. Cell-parallel sweeps × thread-parallel
/// kernels therefore no longer multiply thread counts — peak concurrency is
/// always bounded by the pool size plus the callers — while an under-filled
/// grid still lends its parked workers to the inner loops. Determinism is
/// unaffected: every output element is owned by exactly one index, so
/// results are bitwise identical for any worker count and for serial
/// execution.
///
/// Exception contract (changed from the original spawn-per-call pool): the
/// first exception thrown by a loop body is captured and rethrown on the
/// calling thread, and a relaxed `stop` flag short-circuits the remaining
/// chunks — indices after the first failure are no longer guaranteed to be
/// attempted. (The old implementation kept attempting every index; no caller
/// relied on that, and abandoning doomed work is what you want for loops
/// with per-index side effects guarded by their own invariants.)
///
/// One schedule: every loop claims contiguous chunks in index order off its
/// own shared atomic cursor, and every submitted task (and every helper job
/// of a loop) goes through one mutex-guarded queue that the workers park
/// on. The cursor's greedy claiming already balances non-uniform per-index
/// cost to within one chunk, and no caller fans tasks out from inside the
/// pool at a rate the shared queue cannot carry. A worker that waits on a
/// ScopedArena helps first — it runs queued jobs until the arena drains —
/// so a pool task may submit subtasks and wait for them without
/// deadlocking the pool. Loops whose output cells are each owned by one
/// index are bitwise deterministic for any worker count.
///
/// Placement is the OS scheduler's: workers are never pinned to CPUs.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

namespace abftc::common {

namespace detail {

using RawLoopFn = void (*)(void* ctx, std::size_t i);

/// Out-of-line dispatcher behind the `parallel_for` template: the shared
/// cursor on the global executor. Serial (threads <= 1, n <= 1, or called
/// from inside a parallel region with no idle worker) propagates exceptions
/// directly; the parallel path captures the first exception, stops
/// remaining chunks, and rethrows it on the calling thread.
void parallel_for_impl(std::size_t n, RawLoopFn fn, void* ctx,
                       unsigned threads);

}  // namespace detail

/// Scheduler activity counters, all monotonically increasing over an
/// executor's lifetime (relaxed atomics — totals are exact once the counted
/// activity has quiesced, racy-fresh while it runs).
struct ExecutorCounters {
  std::uint64_t chunks_claimed = 0;  ///< loop chunks executed
  /// Always 0: no schedule steals work. Kept because the repository
  /// benchmark (perfbench/) reads the field and the svc trailer's
  /// `tasks_stolen` key.
  std::uint64_t tasks_stolen = 0;
  std::uint64_t parks = 0;           ///< worker went to sleep on the condvar
  std::uint64_t unparks = 0;         ///< worker woke from the condvar
};

/// Counter-wise difference of two snapshots: the scheduler activity between
/// them. Counters are monotone, so `after - before` never underflows when
/// the operands are ordered snapshots of the same executor.
[[nodiscard]] constexpr ExecutorCounters operator-(
    const ExecutorCounters& after, const ExecutorCounters& before) noexcept {
  return {after.chunks_claimed - before.chunks_claimed,
          after.tasks_stolen - before.tasks_stolen,
          after.parks - before.parks, after.unparks - before.unparks};
}

/// Snapshot of an executor's per-worker counters (index = worker id, in
/// creation order) plus one row for non-worker participants (loop callers),
/// and the sum of all rows.
struct ExecutorStats {
  ExecutorCounters total;
  ExecutorCounters callers;
  std::vector<ExecutorCounters> per_worker;
};

/// Snapshot delta: per-request / per-phase scheduler accounting in one
/// expression (`(after - before).total.chunks_claimed`) instead of
/// hand-subtracted counter rows. Workers are created lazily and never
/// retire, so `after` may have more per-worker rows than `before`; missing
/// `before` rows count as zero (the worker did not exist yet).
[[nodiscard]] ExecutorStats operator-(const ExecutorStats& after,
                                      const ExecutorStats& before);

/// A handle on a pool of persistent workers. Almost every caller wants the
/// process-wide `Executor::global()` (which `parallel_for` uses); explicit
/// instances exist for callers that need isolation — their own worker set
/// whose load, lifetime, and failure domain are independent of the global
/// pool (and of each other).
class Executor {
 public:
  /// `max_helpers` caps the worker threads this executor may create (the
  /// caller of a loop always participates too, so the peak concurrency of a
  /// loop is max_helpers + 1). 0 means the default cap (kDefaultMaxHelpers).
  /// No thread is created until a loop or task actually needs one.
  explicit Executor(unsigned max_helpers = 0);
  ~Executor();  ///< Drains queued tasks, then stops and joins all workers.
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-lifetime pool `parallel_for` runs on. Constructed lazily on
  /// first use; workers are joined at static destruction.
  static Executor& global();

  /// Run `fn(ctx, i)` for i in [0, n) with up to `threads` participants
  /// (callers + helpers); the calling thread always participates. Blocks
  /// until every claimed chunk has finished; rethrows the first exception.
  void run_loop(std::size_t n, detail::RawLoopFn fn, void* ctx,
                unsigned threads);

  /// Type-safe loop on this executor (same contract as free `parallel_for`,
  /// but pinned to this worker set).
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn, unsigned threads = 0);

  /// Run `f()` on a pool worker; the returned future carries its result or
  /// exception. Falls back to inline execution when this executor cannot
  /// create workers. Tasks run at nesting depth >= 1, so loops they issue
  /// follow the bounded-share nesting rules.
  template <typename F>
  [[nodiscard]] auto submit(F f) -> std::future<std::invoke_result_t<F>>;

  /// Workers created so far (grows lazily, never shrinks).
  [[nodiscard]] unsigned spawned_helpers() const noexcept;
  /// The cap `max_helpers` resolved to at construction.
  [[nodiscard]] unsigned max_helpers() const noexcept;

  /// Snapshot the scheduler counters (chunks claimed, park/unpark
  /// transitions), per worker plus the caller row.
  [[nodiscard]] ExecutorStats stats() const;

  /// True on a thread currently executing parallel work (a pool worker
  /// running a chunk or task, a spawned loop worker, or a caller running
  /// chunks of its own loop). `parallel_for` consults this to arbitrate
  /// nesting: inside a worker it only borrows idle workers, or runs inline.
  [[nodiscard]] static bool inside_parallel_region() noexcept;
  /// Current thread's nesting depth (0 outside any parallel region).
  [[nodiscard]] static unsigned nesting_depth() noexcept;

  /// A structured-concurrency task group over an executor: tasks submitted
  /// through the arena are tracked together, `wait()` blocks until all of
  /// them finished and rethrows the first captured exception. The destructor
  /// drains outstanding tasks without throwing, so an arena can never leak
  /// running tasks past its scope.
  class ScopedArena {
   public:
    explicit ScopedArena(Executor& ex);
    ~ScopedArena();  ///< Waits for outstanding tasks; swallows their errors.
    ScopedArena(const ScopedArena&) = delete;
    ScopedArena& operator=(const ScopedArena&) = delete;

    /// Queue `task` on the arena's executor (inline when it has no workers).
    void submit(std::function<void()> task);
    /// Block until every submitted task completed; rethrow the first error.
    void wait();
    /// Tasks submitted and not yet finished.
    [[nodiscard]] std::size_t pending() const noexcept;

   private:
    struct State;
    /// Block until pending() == 0; on a worker of ex_, run queued jobs
    /// meanwhile (help-first).
    void drain();
    Executor& ex_;
    std::shared_ptr<State> state_;
  };

 private:
  friend class ScopedArena;
  void enqueue_task(std::function<void()> task);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Run `fn(i)` for i in [0, n) across up to `threads` participants on the
/// global executor. `threads == 0` means the cached hardware concurrency.
/// The first exception thrown by `fn` is rethrown on the calling thread;
/// remaining chunks are abandoned (see the header comment). Called from
/// inside a parallel region, the loop borrows only idle workers (bounded
/// share) and runs inline when there are none.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, unsigned threads = 0) {
  using F = std::remove_reference_t<Fn>;
  if constexpr (std::is_function_v<F>) {
    // Plain functions can't round-trip through void*; wrap in a lambda.
    auto wrapper = [fp = &fn](std::size_t i) { fp(i); };
    parallel_for(n, wrapper, threads);
  } else {
    detail::parallel_for_impl(
        n, [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        threads);
  }
}

template <typename Fn>
void Executor::parallel_for(std::size_t n, Fn&& fn, unsigned threads) {
  using F = std::remove_reference_t<Fn>;
  static_assert(!std::is_function_v<F>,
                "wrap plain functions in a lambda for Executor::parallel_for");
  detail::RawLoopFn raw = [](void* ctx, std::size_t i) {
    (*static_cast<F*>(ctx))(i);
  };
  run_loop(n, raw,
           const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
           threads);
}

template <typename F>
auto Executor::submit(F f) -> std::future<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
  std::future<R> fut = task->get_future();
  enqueue_task([task] { (*task)(); });
  return fut;
}

/// Workers `threads == 0` resolves to: std::thread::hardware_concurrency(),
/// queried once per process and cached (never 0).
[[nodiscard]] unsigned hardware_workers() noexcept;

/// The participant count a loop with this `threads` request actually uses.
[[nodiscard]] unsigned effective_threads(unsigned threads) noexcept;

}  // namespace abftc::common
