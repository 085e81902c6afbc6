#pragma once
/// \file kernels.hpp
/// Kernel-path selection for the dense ABFT compute layer.
///
/// The paper's composite-strategy model assumes the protected kernels run at
/// realistic speed (its φ ≈ 1.03 overhead constant is a ratio of *fast*
/// kernel times). Two implementations back every BLAS-level entry point in
/// blas.hpp:
///
///   * `naive`   — the original reference loops; simple, branch-free,
///                 bitwise-stable. The ground truth for equivalence tests.
///   * `blocked` — packed-panel, register-tiled, cache-blocked GEMM with
///                 row-panel multithreading, plus blocked triangular solves
///                 and factorizations that delegate their O(n³) update steps
///                 to that GEMM.
///
/// The active `KernelPolicy` is a process-global knob; benches A/B the two
/// paths and tests pin it with `KernelPolicyGuard`. Results are deterministic
/// for a fixed path regardless of the thread count: work is partitioned so
/// every output element is accumulated by exactly one thread in a fixed
/// order.

#include "abft/matrix.hpp"

namespace abftc::abft {

enum class Trans { No, Yes };

enum class KernelPath { naive, blocked };

struct KernelPolicy {
  KernelPath path = KernelPath::blocked;
  /// Worker threads for the blocked path; 0 = hardware concurrency.
  unsigned threads = 0;
  /// NUMA opt-in: pin executor workers round-robin across the machine's
  /// nodes and place GEMM packing node-locally (each worker's A-panel
  /// scratch is first-touched on its own node; the packed B panel is
  /// replicated once per node instead of read cross-socket). Single-node
  /// machines ignore it. Placement never changes results — only where
  /// buffers live.
  bool numa_pin = false;
};

/// The worker count `p.threads` resolves to (cached hardware concurrency
/// for 0) — what benches report as the policy's resolved thread count.
[[nodiscard]] unsigned resolved_threads(const KernelPolicy& p) noexcept;

/// The process-global policy consulted by every dispatching kernel.
///
/// Concurrency contract (audited for multi-tenant service use): *reading*
/// the policy — what every kernel dispatch and every concurrent
/// Experiment::run does — is safe from any number of threads. *Mutating*
/// it (set_kernel_policy, KernelPolicyGuard) while kernels run on other
/// threads is undefined: configure the policy at setup time, before
/// serving concurrent work, exactly like evaluator registration
/// (core::EvaluatorRegistry). The built-in model/sim evaluators never
/// touch the kernel layer, so sweep-service traffic does not dispatch
/// through this policy at all unless a custom evaluator does.
[[nodiscard]] const KernelPolicy& kernel_policy() noexcept;
void set_kernel_policy(KernelPolicy p) noexcept;

/// RAII override: installs `p` for the current scope, restores on exit.
class KernelPolicyGuard {
 public:
  explicit KernelPolicyGuard(KernelPolicy p) : saved_(kernel_policy()) {
    set_kernel_policy(p);
  }
  KernelPolicyGuard(const KernelPolicyGuard&) = delete;
  KernelPolicyGuard& operator=(const KernelPolicyGuard&) = delete;
  ~KernelPolicyGuard() { set_kernel_policy(saved_); }

 private:
  KernelPolicy saved_;
};

/// C ← α·op(A)·op(B) + β·C through the packed blocked path, explicitly —
/// bypasses the global policy (used by benches and equivalence tests).
/// `threads == 0` means hardware concurrency. The β-scale is fused into the
/// first kc pass of the micro-kernel (no standalone C sweep); β == 0 follows
/// BLAS semantics on both this and the naive path — C is overwritten, never
/// read, so NaN-poisoned output blocks are not propagated.
void blocked_gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                  Trans tb, double beta, MatrixView c, unsigned threads = 0);

/// The original reference triple loop, explicitly.
void naive_gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                Trans tb, double beta, MatrixView c);

/// True when the dispatcher would route a gemm of this shape to the blocked
/// path under the active policy (exposed so tests can assert the cutover).
[[nodiscard]] bool gemm_uses_blocked_path(std::size_t m, std::size_t n,
                                          std::size_t k) noexcept;

/// Validated (m, n, k) of C ← op(A)·op(B): the single place the
/// transpose-dependent shape derivation lives. Throws on mismatch.
struct GemmShape {
  std::size_t m, n, k;
};
[[nodiscard]] GemmShape gemm_shape(ConstMatrixView a, Trans ta,
                                   ConstMatrixView b, Trans tb, MatrixView c);

}  // namespace abftc::abft
