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

#include "common/deque.hpp"
#include "common/topology.hpp"

namespace abftc::common {

namespace {

/// Hard ceiling on helper threads for any single executor. Requests above it
/// are clamped to kMaxHelpers + 1 participants; the clamp cannot change
/// results (chunk ownership is derived from the index space, not the worker
/// set).
constexpr unsigned kMaxHelpers = 256;

/// Per-worker capacity of the submitted-task deque. Overflow falls back to
/// the shared queue, so the bound is a fast-path size, not a limit.
constexpr std::size_t kTaskDequeCapacity = 1024;

/// Auto-grain for the stealing schedule: enough chunks that every
/// participant's share can be re-split several times by thieves, without
/// making the per-chunk bookkeeping visible next to real loop bodies.
constexpr std::size_t kStealChunksPerParticipant = 32;

/// Nesting depth of the current thread: incremented while it executes chunks
/// or tasks of any parallel region (pool worker or caller participation).
thread_local unsigned t_nesting_depth = 0;

/// The NUMA node (index into Topology::system()->nodes()) the pinning
/// facility placed this thread on; 0 when unpinned.
thread_local unsigned t_numa_node = 0;

struct DepthGuard {
  DepthGuard() noexcept { ++t_nesting_depth; }
  ~DepthGuard() { --t_nesting_depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
};

/// Monotonic scheduler counters; relaxed — they order nothing.
struct alignas(64) StatsBlock {
  std::atomic<std::uint64_t> chunks_claimed{0};
  std::atomic<std::uint64_t> tasks_stolen{0};
  std::atomic<std::uint64_t> steal_failures{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> unparks{0};

  [[nodiscard]] ExecutorCounters snapshot() const noexcept {
    ExecutorCounters c;
    c.chunks_claimed = chunks_claimed.load(std::memory_order_relaxed);
    c.tasks_stolen = tasks_stolen.load(std::memory_order_relaxed);
    c.steal_failures = steal_failures.load(std::memory_order_relaxed);
    c.parks = parks.load(std::memory_order_relaxed);
    c.unparks = unparks.load(std::memory_order_relaxed);
    return c;
  }
};

void accumulate(ExecutorCounters& into, const ExecutorCounters& c) noexcept {
  into.chunks_claimed += c.chunks_claimed;
  into.tasks_stolen += c.tasks_stolen;
  into.steal_failures += c.steal_failures;
  into.parks += c.parks;
  into.unparks += c.unparks;
}

/// Shared state of one static (shared-cursor) parallel loop. Participants
/// (the caller plus any pool workers that picked up a helper job) claim
/// contiguous chunks off `cursor` until it passes `n` or `stop` is raised.
/// `running` counts participants currently inside the claim loop: a
/// participant registers *before* its first claim, so once the caller
/// observes running == 0 after its own chunks drained, no chunk is executing
/// and none can start (the cursor is exhausted or `stop` is permanently
/// set) — late-popped helper jobs touch only the atomics, never `fn`/`ctx`.
/// The shared_ptr in each queued job keeps this state alive past the
/// caller's stack frame.
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

/// Shared state of one dynamic (work-stealing) parallel loop. Participant
/// slot s owns deque s, seeded by the caller with a contiguous block of
/// chunk ids *before* the helper jobs are published (the queue mutex is the
/// happens-before edge); thieves re-split laggards with steal-half batches.
/// `remaining` counts indices not yet executed — participants leave when it
/// hits zero or `stop` is raised, and the same running/done handshake as
/// LoopState tells the caller when no participant can touch `fn`/`ctx`.
struct DynLoopState {
  detail::RawLoopFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t nchunks = 0;
  unsigned slots = 0;
  std::atomic<unsigned> next_slot{1};  // slot 0 is the caller
  std::vector<std::unique_ptr<WsDeque<std::size_t>>> deques;
  std::atomic<std::size_t> remaining{0};
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
void run_chunks(LoopState& loop, StatsBlock* stats) {
  for (;;) {
    if (loop.stop.load(std::memory_order_relaxed)) return;
    const std::size_t lo =
        loop.cursor.fetch_add(loop.chunk, std::memory_order_relaxed);
    if (lo >= loop.n) return;
    const std::size_t hi = std::min(lo + loop.chunk, loop.n);
    if (stats) stats->chunks_claimed.fetch_add(1, std::memory_order_relaxed);
    try {
      for (std::size_t i = lo; i < hi; ++i) loop.fn(loop.ctx, i);
    } catch (...) {
      std::lock_guard lock(loop.m);
      if (!loop.first_error) loop.first_error = std::current_exception();
      loop.stop.store(true, std::memory_order_relaxed);
    }
  }
}

void participate(LoopState& loop, StatsBlock* stats) {
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

/// One participant of a dynamic loop. `slot` indexes the deque this
/// participant owns (>= slots: steal-only, the defensive case of a surplus
/// helper). Work discovery order: own deque bottom (cache-warm, ascending
/// indices), then steal-half from the other slots' deques round-robin.
void dyn_participate(DynLoopState& loop, unsigned slot, StatsBlock* stats) {
  {
    std::lock_guard lock(loop.m);
    ++loop.running;
  }
  {
    DepthGuard depth;
    WsDeque<std::size_t>* own =
        slot < loop.slots ? loop.deques[slot].get() : nullptr;
    // Steal batches that overflow the local deque land here; owner-only, so
    // a plain vector. Entries are not stealable — acceptable for a bounded
    // spill path.
    std::vector<std::size_t> spill;

    const auto run_chunk = [&](std::size_t c) {
      const std::size_t lo = c * loop.chunk;
      const std::size_t hi = std::min(lo + loop.chunk, loop.n);
      if (stats) stats->chunks_claimed.fetch_add(1, std::memory_order_relaxed);
      try {
        for (std::size_t i = lo; i < hi; ++i) loop.fn(loop.ctx, i);
      } catch (...) {
        std::lock_guard lock(loop.m);
        if (!loop.first_error) loop.first_error = std::current_exception();
        loop.stop.store(true, std::memory_order_relaxed);
      }
      loop.remaining.fetch_sub(hi - lo, std::memory_order_acq_rel);
    };

    const auto try_steal = [&]() -> std::optional<std::size_t> {
      const unsigned base = slot % loop.slots;
      for (unsigned off = 1; off < loop.slots + (own ? 0u : 1u); ++off) {
        const unsigned v = (base + off) % loop.slots;
        WsDeque<std::size_t>& victim = *loop.deques[v];
        const std::size_t est = victim.approx_size();
        if (est == 0) continue;
        const auto first = victim.steal();
        if (!first) {
          if (stats)
            stats->steal_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (stats) stats->tasks_stolen.fetch_add(1, std::memory_order_relaxed);
        // Steal-half: take up to half of what the victim appeared to hold,
        // keeping one to run now and queueing the rest locally so the next
        // thief can re-split them.
        for (std::size_t extra = 1; extra < (est + 1) / 2; ++extra) {
          const auto more = victim.steal();
          if (!more) break;
          if (stats)
            stats->tasks_stolen.fetch_add(1, std::memory_order_relaxed);
          if (!own || !own->push(*more)) {
            spill.push_back(*more);
            break;
          }
        }
        return first;
      }
      return std::nullopt;
    };

    for (;;) {
      if (loop.stop.load(std::memory_order_relaxed)) break;
      std::optional<std::size_t> c;
      if (!spill.empty()) {
        c = spill.back();
        spill.pop_back();
      } else if (own) {
        c = own->pop();
      }
      if (!c) {
        if (loop.remaining.load(std::memory_order_acquire) == 0) break;
        c = try_steal();
        if (!c) {
          // Everything is claimed but the tail chunks are still executing
          // elsewhere (or a racing thief beat us): briefly yield and
          // re-check. Bounded by the runtime of the longest chunk.
          if (loop.remaining.load(std::memory_order_acquire) == 0) break;
          std::this_thread::yield();
          continue;
        }
      }
      run_chunk(*c);
    }
  }
  {
    std::lock_guard lock(loop.m);
    if (--loop.running == 0) loop.done.notify_all();
  }
}

/// Static-schedule chunking: the cursor is touched ~8× per participant, and
/// contiguous ranges keep cache locality for loops walking adjacent rows.
std::size_t chunk_for(std::size_t n, unsigned threads) noexcept {
  return std::max<std::size_t>(
      1, n / (static_cast<std::size_t>(threads) * 8));
}

/// A submitted task parked in a worker's stealing deque (the deque stores
/// trivially copyable values, so tasks go in by pointer).
struct TaskNode {
  std::function<void()> fn;
};

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

/// A unit of pool work: a helper job for a running loop (static or
/// stealing), or a submitted task from the shared overflow queue.
struct ExecutorJob {
  std::shared_ptr<LoopState> loop;
  std::shared_ptr<DynLoopState> dyn;
  std::function<void()> task;
};

/// Per-worker scheduler state. Lives in a std::deque so addresses stay
/// stable while the worker set grows.
struct WorkerSlot {
  WorkerSlot() : tasks(kTaskDequeCapacity) {}
  WsDeque<TaskNode*> tasks;
  StatsBlock stats;
};

namespace {
/// Identity of the current thread inside a pool (set for worker threads).
/// Holds the owning Impl as void* (the nested type is private to Executor);
/// only compared against / cast back by Impl members, never dereferenced
/// from here.
struct WorkerIdentity {
  void* impl = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity t_worker;
}  // namespace

struct Executor::Impl {
  unsigned cap = 0;

  std::mutex m;
  std::condition_variable work;
  std::deque<ExecutorJob> queue;     // guarded by m
  std::vector<std::thread> workers;  // guarded by m (grow-only)
  bool stopping = false;             // guarded by m

  /// Per-worker task deques + counters; grown under m together with
  /// `workers`, entries themselves accessed lock-free. std::deque keeps the
  /// addresses stable across growth.
  std::deque<WorkerSlot> slots;      // structure guarded by m
  std::atomic<unsigned> slot_count{0};  ///< published size of `slots`

  /// Counter row for loop callers and other non-worker participants.
  StatsBlock caller_stats;

  /// Workers parked in the wait below. Advisory (read without m by the
  /// nested-loop arbitration): a stale value only costs a queued job that
  /// drains without work, never correctness.
  std::atomic<unsigned> idle{0};

  /// Bumped on every lock-free publication of work (a push to a worker's
  /// task deque). A worker snapshots it before its last work scan and will
  /// not park if it moved — the eventcount that makes deque pushes and
  /// parking race-free without putting the deques under the mutex.
  std::atomic<std::uint64_t> work_epoch{0};

  /// NUMA placement opt-in. `pin_generation` invalidates every worker's
  /// cached pin state; workers (re-)apply placement at their next scan.
  std::atomic<bool> pin_enabled{false};
  std::atomic<std::uint64_t> pin_generation{0};

  void apply_pinning(unsigned idx, std::uint64_t& seen) {
    const std::uint64_t gen = pin_generation.load(std::memory_order_acquire);
    if (gen == seen) return;
    seen = gen;
    if (pin_enabled.load(std::memory_order_relaxed)) {
      const auto topo = Topology::system();
      const unsigned node_idx = idx % topo->node_count();
      if (pin_current_thread_to_cpus(topo->nodes()[node_idx].cpus)) {
        t_numa_node = node_idx;
        return;
      }
    }
    unpin_current_thread();
    t_numa_node = 0;
  }

  void notify_if_idle() {
    if (idle.load(std::memory_order_relaxed) == 0) return;
    // Taking the mutex closes the race against a worker that passed the
    // predicate but has not committed to the wait yet.
    std::lock_guard lock(m);
    work.notify_all();
  }

  StatsBlock* stats_for_current() noexcept {
    if (t_worker.impl == this) return &slots[t_worker.index].stats;
    return &caller_stats;
  }

  void run_task_node(TaskNode* node) {
    DepthGuard depth;
    node->fn();  // packaged tasks / arena wrappers capture their errors
    delete node;
  }

  void run_job(ExecutorJob& job, unsigned idx) {
    StatsBlock* stats = &slots[idx].stats;
    if (job.loop) {
      participate(*job.loop, stats);
    } else if (job.dyn) {
      const unsigned slot =
          job.dyn->next_slot.fetch_add(1, std::memory_order_relaxed);
      dyn_participate(*job.dyn, slot, stats);
    } else if (job.task) {
      DepthGuard depth;
      job.task();  // packaged tasks / arena wrappers capture their errors
    }
  }

  /// One scheduling round: own task deque, then the shared queue, then a
  /// steal sweep over the other workers' deques. True when any work ran.
  bool run_one(unsigned idx) {
    if (auto own = slots[idx].tasks.pop()) {
      run_task_node(*own);
      return true;
    }
    {
      std::unique_lock lock(m);
      if (!queue.empty()) {
        ExecutorJob job = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        run_job(job, idx);
        return true;
      }
    }
    return steal_task_and_run(idx);
  }

  /// Steal-half sweep over the other workers' task deques: run the first
  /// stolen task, re-queue the rest of the batch locally.
  bool steal_task_and_run(unsigned idx) {
    StatsBlock& stats = slots[idx].stats;
    const unsigned count = slot_count.load(std::memory_order_acquire);
    for (unsigned off = 1; off < count; ++off) {
      const unsigned v = (idx + off) % count;
      WsDeque<TaskNode*>& victim = slots[v].tasks;
      const std::size_t est = victim.approx_size();
      if (est == 0) continue;
      const auto first = victim.steal();
      if (!first) {
        stats.steal_failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stats.tasks_stolen.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t extra = 1; extra < (est + 1) / 2; ++extra) {
        const auto more = victim.steal();
        if (!more) break;
        stats.tasks_stolen.fetch_add(1, std::memory_order_relaxed);
        if (!slots[idx].tasks.push(*more)) {
          // No local room: run it after the first one, immediately.
          run_task_node(*first);
          run_task_node(*more);
          return true;
        }
      }
      work_epoch.fetch_add(1, std::memory_order_release);
      notify_if_idle();
      run_task_node(*first);
      return true;
    }
    return false;
  }

  void worker_main(unsigned idx) {
    t_worker = {this, idx};
    std::uint64_t pin_seen = ~std::uint64_t{0};  // force the initial check
    for (;;) {
      apply_pinning(idx, pin_seen);
      const std::uint64_t epoch = work_epoch.load(std::memory_order_acquire);
      if (run_one(idx)) continue;
      std::unique_lock lock(m);
      if (!queue.empty() ||
          work_epoch.load(std::memory_order_relaxed) != epoch)
        continue;  // new work appeared after the scan: rescan, don't park
      if (stopping) return;  // queue drained, own deque drained by run_one
      idle.fetch_add(1, std::memory_order_relaxed);
      slots[idx].stats.parks.fetch_add(1, std::memory_order_relaxed);
      work.wait(lock, [&] {
        return stopping || !queue.empty() ||
               work_epoch.load(std::memory_order_relaxed) != epoch;
      });
      idle.fetch_sub(1, std::memory_order_relaxed);
      slots[idx].stats.unparks.fetch_add(1, std::memory_order_relaxed);
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
      const unsigned idx = static_cast<unsigned>(workers.size());
      slots.emplace_back();
      slot_count.store(static_cast<unsigned>(slots.size()),
                       std::memory_order_release);
      workers.emplace_back([this, idx] { worker_main(idx); });
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
  const unsigned count = impl_->slot_count.load(std::memory_order_acquire);
  out.per_worker.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    out.per_worker.push_back(impl_->slots[i].stats.snapshot());
    accumulate(out.total, out.per_worker.back());
  }
  return out;
}

void Executor::set_worker_pinning(bool enabled) noexcept {
  if (impl_->pin_enabled.exchange(enabled, std::memory_order_relaxed) ==
      enabled)
    return;
  impl_->pin_generation.fetch_add(1, std::memory_order_release);
}

bool Executor::worker_pinning() const noexcept {
  return impl_->pin_enabled.load(std::memory_order_relaxed);
}

unsigned Executor::current_numa_node() noexcept { return t_numa_node; }

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
        impl_->queue.push_back(ExecutorJob{loop, nullptr, {}});
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

void Executor::run_loop_dynamic(std::size_t n, detail::RawLoopFn fn, void* ctx,
                                unsigned threads, std::size_t grain) {
  if (n == 0) return;
  threads = std::min(effective_threads(threads), impl_->cap + 1);
  const bool nested = inside_parallel_region();
  const unsigned lendable =
      nested ? impl_->idle.load(std::memory_order_relaxed) : 0;
  if (threads <= 1 || n == 1 || (nested && lendable == 0)) {
    // Serial fast path — same arbitration as the static schedule, and
    // exceptions propagate directly.
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  const unsigned avail =
      nested ? lendable : impl_->ensure_helpers(threads - 1);
  unsigned participants = static_cast<unsigned>(std::min<std::size_t>(
      std::min<std::size_t>(threads, std::size_t{avail} + 1), n));
  const std::size_t chunk =
      grain != 0
          ? grain
          : std::max<std::size_t>(
                1, n / (static_cast<std::size_t>(participants) *
                        kStealChunksPerParticipant));
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  participants =
      static_cast<unsigned>(std::min<std::size_t>(participants, nchunks));
  if (participants <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  auto loop = std::make_shared<DynLoopState>();
  loop->fn = fn;
  loop->ctx = ctx;
  loop->n = n;
  loop->chunk = chunk;
  loop->nchunks = nchunks;
  loop->slots = participants;
  loop->remaining.store(n, std::memory_order_relaxed);
  loop->deques.reserve(participants);
  // Every chunk id lives in at most one deque at a time (unique ownership
  // moves with steals), so capacity = nchunks makes push infallible in
  // practice; the spill vector in dyn_participate covers the bound anyway.
  const std::size_t per_slot = (nchunks + participants - 1) / participants;
  const std::size_t deque_cap =
      std::min(nchunks, std::max<std::size_t>(per_slot * 4, 64));
  for (unsigned s = 0; s < participants; ++s)
    loop->deques.push_back(
        std::make_unique<WsDeque<std::size_t>>(deque_cap));
  // Seed slot s with the contiguous chunk block [s·per, (s+1)·per), pushed
  // in reverse so the owner pops ascending indices (cache-friendly walk);
  // thieves take from the other end — the chunks the owner reaches last.
  for (unsigned s = 0; s < participants; ++s) {
    const std::size_t lo = static_cast<std::size_t>(s) * per_slot;
    const std::size_t hi = std::min(lo + per_slot, nchunks);
    for (std::size_t c = hi; c-- > lo;) (void)loop->deques[s]->push(c);
  }

  const unsigned helpers = participants - 1;
  if (helpers > 0) {
    {
      std::lock_guard lock(impl_->m);
      for (unsigned h = 0; h < helpers; ++h)
        impl_->queue.push_back(ExecutorJob{nullptr, loop, {}});
    }
    impl_->work.notify_all();
  }

  dyn_participate(*loop, 0, impl_->stats_for_current());
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
  // A task submitted from a pool worker goes to that worker's own stealing
  // deque: LIFO for the producer, steal-half for idle peers — task DAGs
  // that fan out inside the pool never serialize on the shared mutex.
  if (t_worker.impl == impl) {
    auto node = std::make_unique<TaskNode>(TaskNode{std::move(task)});
    if (impl->slots[t_worker.index].tasks.push(node.get())) {
      (void)node.release();
      impl->work_epoch.fetch_add(1, std::memory_order_release);
      impl->notify_if_idle();
      return;
    }
    task = std::move(node->fn);  // deque full: overflow to the shared queue
  }
  if (impl->ensure_helpers(1) == 0) {
    // No workers permitted (or shutting down): run inline, same depth rules.
    DepthGuard depth;
    task();
    return;
  }
  {
    std::lock_guard lock(impl->m);
    impl->queue.push_back(ExecutorJob{nullptr, nullptr, std::move(task)});
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
  if (t_worker.impl == ex_.impl_.get()) {
    // A worker draining its own arena must help execute (its tasks may sit
    // in its own deque, where only it or a thief will find them).
    while (true) {
      {
        std::lock_guard lock(state_->m);
        if (state_->pending == 0) break;
      }
      if (!ex_.impl_->run_one(t_worker.index)) std::this_thread::yield();
    }
    return;
  }
  std::unique_lock lock(state_->m);
  state_->idle.wait(lock, [&] { return state_->pending == 0; });
  // Errors not collected through wait() are intentionally swallowed: a
  // destructor must not throw.
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
  if (t_worker.impl == ex_.impl_.get()) {
    // Help-first wait on a worker thread: run scheduler rounds (own deque,
    // shared queue, steals) until the arena drains — a worker that blocked
    // here instead could deadlock on tasks parked in its own deque.
    while (true) {
      {
        std::lock_guard lock(state_->m);
        if (state_->pending == 0) break;
      }
      if (!ex_.impl_->run_one(t_worker.index)) std::this_thread::yield();
    }
  } else {
    std::unique_lock lock(state_->m);
    state_->idle.wait(lock, [&] { return state_->pending == 0; });
  }
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

void parallel_for_dynamic_impl(std::size_t n, RawLoopFn fn, void* ctx,
                               unsigned threads, std::size_t grain) {
  Executor::global().run_loop_dynamic(n, fn, ctx, effective_threads(threads),
                                      grain);
}

}  // namespace detail

}  // namespace abftc::common
