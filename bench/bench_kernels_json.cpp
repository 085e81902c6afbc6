/// \file bench_kernels_json.cpp
/// Dependency-free GFLOP/s probe for the kernel layer: times naive vs
/// blocked GEMM (and the blocked path at several thread counts), plus
/// reference-loop vs compact-WY blocked Householder QR (with the φ overhead
/// ratio of the ABFT-protected variant), plus the reference loops vs the
/// blocked path of the two right-side triangular solves at the LU panel
/// shape (a 64×64 factor, 1024 rows), plus the blind verification of the
/// protected LU (the residual sweep and localization next to a memcpy of
/// the same bytes), and emits BENCH_kernels.json — the perf-trajectory
/// artifact CI tracks across PRs.
///
///   bench_kernels_json [sizes…] --reps=3 --threads=0 --out=BENCH_kernels.json
///
/// Sizes default to 256 and 512. Each (size, path, threads) cell reports the
/// best of `reps` runs plus the max-abs deviation of the blocked result from
/// the naive one. QR cells are emitted for sizes divisible by the QR panel
/// width (32); the ABFT φ cell additionally needs the block count to fit the
/// 4×2 process grid. `--threads` caps the swept thread counts (0 = up to the
/// hardware concurrency); the artifact carries the active KernelPolicy
/// (path, requested and resolved worker count) as metadata.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "abft/abft_qr.hpp"
#include "abft/blas.hpp"
#include "abft/checksum.hpp"
#include "abft/kernels.hpp"
#include "abft/lu_kernel.hpp"
#include "common/cli.hpp"
#include "common/executor.hpp"
#include "common/json.hpp"
#include "dist/launcher.hpp"

using namespace abftc;
using abft::Matrix;

namespace {

struct Cell {
  std::size_t n = 0;
  std::string path;
  unsigned threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double max_abs_diff_vs_naive = 0.0;
};

struct QrCell {
  std::size_t n = 0;
  std::string path;  // "reference" or "blocked"
  unsigned threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_reference = 0.0;
  double max_abs_diff_vs_reference = 0.0;
  double abft_seconds = 0.0;  ///< AbftQr::factor under the same path (0 = n/a)
  double phi_abft = 0.0;      ///< abft_seconds / seconds
};

struct TrsmCell {
  std::string op;    // "right_upper" or "right_lower_trans"
  std::string path;  // "reference" or "blocked"
  double seconds = 0.0;
  double gflops = 0.0;
  double speedup_vs_reference = 0.0;
  double max_abs_diff_vs_reference = 0.0;
};

struct VerifyCell {
  std::size_t n = 0, nb = 0, group = 0;
  std::size_t slots = 0;  ///< checksum slots: csr × n
  std::size_t bytes = 0;  ///< payload + both stacked accumulators
  unsigned threads = 1;   ///< the dist runtime's sweep threads: min(4, hw)
  double sweep_ns_per_slot_1t = 0.0;
  double sweep_ns_per_slot = 0.0;  ///< at `threads`
  double sweep_ms_1t = 0.0;
  double locate_ms = 0.0;
  double copy_ms = 0.0;  ///< memcpy of `bytes`
  double sweep_over_copy = 0.0;  ///< sweep_ms_1t / copy_ms
  double residual = 0.0;  ///< the sweep's value (kept so it is not elided)
  std::size_t sites = 0;  ///< sites localization named (0: the state is clean)
};

// The verify cells' shapes: lu_faults' n = 192 and lu_steady's n = 1536,
// both with groups of 3 block rows.
struct VerifyShape {
  std::size_t n, nb;
};
constexpr VerifyShape kVerifyShapes[] = {{192, 32}, {1536, 64}};
constexpr std::size_t kVerifyGroup = 3;

// The LU panel shape of the trsm cells: the owner rank's B·U⁻¹ solve at
// nb = 64 over the rows below the diagonal block.
constexpr std::size_t kTrsmFactor = 64;
constexpr std::size_t kTrsmRows = 1024;

// QR bench fixtures: panel width and the process grid for the ABFT variant
// (pcols = 2 → one checksum column group per two block columns).
constexpr std::size_t kQrNb = 32;
const abft::ProcessGrid kQrGrid{4, 2};

double time_best(int reps, const std::function<void()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best = std::min(best, dt);
  }
  return best;
}

// Best of `reps` timed calls of `run`, each preceded by an untimed `reset`
// (the in-place solves need fresh input every call).
double time_best_fresh(int reps, const std::function<void()>& reset,
                       const std::function<void()>& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    reset();
    best = std::min(best, time_best(1, run));
  }
  return best;
}

// Best over `reps` samples of the mean time of `inner` back-to-back calls.
double time_per_call(int reps, int inner, const std::function<void()>& run) {
  return time_best(reps, [&] {
           for (int i = 0; i < inner; ++i) run();
         }) /
         inner;
}

// A protected-LU state halfway through the factorization (half the block
// rows frozen), then the sweep, localization and a same-byte memcpy.
VerifyCell verify_cell(std::size_t n, std::size_t nb, int reps) {
  common::Rng rng(29);
  Matrix a = Matrix::diag_dominant(n, rng);
  Matrix active = abft::row_group_checksum_pair(a, nb, kVerifyGroup);
  Matrix frozen = Matrix::zeros(active.rows(), active.cols());
  const abft::LuView s{a.view(), active.view(), frozen.view(), nb,
                       kVerifyGroup};
  const std::size_t nbk = n / nb, frozen_steps = nbk / 2;
  for (std::size_t k = 0; k < frozen_steps; ++k) {
    abft::lu_panel(s, k);
    abft::lu_update(s, k, 0, nbk);
  }

  VerifyCell c;
  c.n = n;
  c.nb = nb;
  c.group = kVerifyGroup;
  c.slots = s.active.rows() / 2 * n;
  c.bytes = (a.storage().size() + 2 * active.storage().size()) *
            sizeof(double);
  c.threads = std::min(4u, common::effective_threads(0));
  // ~2M slots per timed sample, so the n=192 sweep is not timer noise.
  const int inner =
      static_cast<int>(std::max<std::size_t>(1, 2'000'000 / c.slots));
  const auto sweep = [&](unsigned threads) {
    return time_per_call(reps, inner, [&] {
      c.residual = std::max(
          c.residual, abft::lu_checksum_residual(s, frozen_steps, threads));
    });
  };
  const double t1 = sweep(1), tn = sweep(c.threads);
  c.sweep_ms_1t = t1 * 1e3;
  c.sweep_ns_per_slot_1t = t1 / static_cast<double>(c.slots) * 1e9;
  c.sweep_ns_per_slot = tn / static_cast<double>(c.slots) * 1e9;
  c.locate_ms = time_per_call(reps, inner, [&] {
                  c.sites += dist::locate_corruption(a, active, frozen, nb,
                                                     kVerifyGroup,
                                                     frozen_steps)
                                 .sites.size();
                }) *
                1e3;

  // The copy reads the same three arrays once into pre-faulted buffers.
  std::vector<double> dst(c.bytes / sizeof(double), 1.0);
  c.copy_ms = time_per_call(reps, inner, [&] {
                double* out = dst.data();
                for (const Matrix* m : {&a, &active, &frozen}) {
                  std::memcpy(out, m->storage().data(),
                              m->storage().size() * sizeof(double));
                  out += m->storage().size();
                }
              }) *
              1e3;
  c.sweep_over_copy = c.sweep_ms_1t / c.copy_ms;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const unsigned max_threads =
      static_cast<unsigned>(args.get_int("threads", 0));
  args.warn_unknown(std::cerr);

  std::vector<std::size_t> sizes;
  for (const std::string& p : args.positional()) {
    // std::stoul wraps negatives, so validate the digits ourselves.
    const bool digits_only =
        !p.empty() && p.find_first_not_of("0123456789") == std::string::npos;
    std::size_t n = 0;
    if (digits_only) {
      try {
        n = static_cast<std::size_t>(std::stoul(p));
      } catch (const std::exception&) {
        n = 0;  // out of range
      }
    }
    if (n == 0 || n > 100000) {
      std::cerr << "error: matrix size must be a positive integer (≤ 100000), "
                   "got '"
                << p << "'\n";
      return 2;
    }
    sizes.push_back(n);
  }
  if (sizes.empty()) sizes = {256, 512};

  const unsigned hw = common::effective_threads(0);
  const unsigned sweep_cap = max_threads == 0 ? hw : max_threads;
  std::vector<unsigned> thread_counts{1};
  for (unsigned t = 2; t <= sweep_cap; t *= 2) thread_counts.push_back(t);

  std::vector<Cell> cells;
  for (const std::size_t n : sizes) {
    common::Rng rng(5);
    const Matrix a = Matrix::random(n, n, rng);
    const Matrix b = Matrix::random(n, n, rng);
    const double flops = 2.0 * static_cast<double>(n) * n * n;

    Matrix c_naive(n, n, 0.0);
    Cell naive{n, "naive", 1, 0.0, 0.0, 0.0};
    naive.seconds = time_best(reps, [&] {
      abft::naive_gemm(1.0, a.view(), abft::Trans::No, b.view(),
                       abft::Trans::No, 0.0, c_naive.view());
    });
    naive.gflops = flops / naive.seconds / 1e9;
    cells.push_back(naive);

    for (const unsigned t : thread_counts) {
      Matrix c_blocked(n, n, 0.0);
      Cell blocked{n, "blocked", t, 0.0, 0.0, 0.0};
      blocked.seconds = time_best(reps, [&] {
        abft::blocked_gemm(1.0, a.view(), abft::Trans::No, b.view(),
                           abft::Trans::No, 0.0, c_blocked.view(), t);
      });
      blocked.gflops = flops / blocked.seconds / 1e9;
      blocked.max_abs_diff_vs_naive = abft::max_abs_diff(c_blocked, c_naive);
      cells.push_back(blocked);
    }
  }

  // Compact-WY blocked QR vs the reference reflector loops. QR flops are
  // the standard 4/3·n³ Householder count; the ABFT cell times the full
  // protected factorization (checksum columns included) to ground φ_qr.
  std::vector<QrCell> qr_cells;
  for (const std::size_t n : sizes) {
    if (n % kQrNb != 0) continue;
    common::Rng rng(17);
    const Matrix a0 = Matrix::random(n, n, rng);
    const double flops = 4.0 / 3.0 * static_cast<double>(n) * n * n;
    const bool abft_fits = (n / kQrNb) % kQrGrid.pcols == 0;

    Matrix qr_ref = a0;
    QrCell ref{n, "reference", 1};
    {
      const abft::KernelPolicyGuard guard({abft::KernelPath::naive, 1});
      ref.seconds = time_best(reps, [&] {
        qr_ref = a0;
        abft::plain_blocked_qr(qr_ref, kQrNb);
      });
      ref.gflops = flops / ref.seconds / 1e9;
      ref.speedup_vs_reference = 1.0;
      if (abft_fits) {
        ref.abft_seconds = time_best(reps, [&] {
          abft::AbftQr qr(a0, kQrNb, kQrGrid);
          qr.factor();
        });
        ref.phi_abft = ref.abft_seconds / ref.seconds;
      }
    }
    qr_cells.push_back(ref);

    for (const unsigned t : thread_counts) {
      Matrix qr_blk = a0;
      QrCell blocked{n, "blocked", t};
      const abft::KernelPolicyGuard guard({abft::KernelPath::blocked, t});
      blocked.seconds = time_best(reps, [&] {
        qr_blk = a0;
        abft::plain_blocked_qr(qr_blk, kQrNb);
      });
      blocked.gflops = flops / blocked.seconds / 1e9;
      blocked.speedup_vs_reference = ref.seconds / blocked.seconds;
      blocked.max_abs_diff_vs_reference = abft::max_abs_diff(qr_blk, qr_ref);
      if (abft_fits) {
        blocked.abft_seconds = time_best(reps, [&] {
          abft::AbftQr qr(a0, kQrNb, kQrGrid);
          qr.factor();
        });
        blocked.phi_abft = blocked.abft_seconds / blocked.seconds;
      }
      qr_cells.push_back(blocked);
    }
  }

  // Right-side triangular solves at the LU panel shape: reference loops vs
  // the blocked path (row-tiled diagonal block). Each call does m·n² flops.
  std::vector<TrsmCell> trsm_cells;
  {
    common::Rng rng(23);
    const Matrix f = Matrix::diag_dominant(kTrsmFactor, rng);
    const Matrix b0 = Matrix::random(kTrsmRows, kTrsmFactor, rng);
    const double flops = static_cast<double>(kTrsmRows) * kTrsmFactor *
                         static_cast<double>(kTrsmFactor);
    const int trsm_reps = std::max(reps, 1) * 20;
    using Solve = void (*)(abft::ConstMatrixView, abft::MatrixView);
    const std::pair<const char*, Solve> ops[] = {
        {"right_upper", abft::trsm_right_upper},
        {"right_lower_trans", abft::trsm_right_lower_trans}};
    for (const auto& [op, solve] : ops) {
      Matrix b_ref = b0, b_blk = b0;
      TrsmCell ref{op, "reference"};
      TrsmCell blk{op, "blocked"};
      {
        const abft::KernelPolicyGuard guard({abft::KernelPath::naive, 1});
        ref.seconds = time_best_fresh(
            trsm_reps, [&] { b_ref = b0; },
            [&] { solve(f.view(), b_ref.view()); });
      }
      {
        const abft::KernelPolicyGuard guard({abft::KernelPath::blocked, 1});
        blk.seconds = time_best_fresh(
            trsm_reps, [&] { b_blk = b0; },
            [&] { solve(f.view(), b_blk.view()); });
      }
      ref.gflops = flops / ref.seconds / 1e9;
      blk.gflops = flops / blk.seconds / 1e9;
      ref.speedup_vs_reference = 1.0;
      blk.speedup_vs_reference = ref.seconds / blk.seconds;
      blk.max_abs_diff_vs_reference = abft::max_abs_diff(b_blk, b_ref);
      trsm_cells.push_back(ref);
      trsm_cells.push_back(blk);
    }
  }

  std::vector<VerifyCell> verify_cells;
  for (const VerifyShape& shape : kVerifyShapes)
    verify_cells.push_back(verify_cell(shape.n, shape.nb, std::max(reps, 3)));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open '" << out_path << "' for writing\n";
    return 2;
  }
  const abft::KernelPolicy& policy = abft::kernel_policy();
  common::JsonWriter json(out);
  json.begin_object();
  json.kv("bench", "abft_kernels_gemm");
  json.kv("hardware_threads", hw);
  json.key("policy").begin_object();
  json.kv("path", policy.path == abft::KernelPath::blocked ? "blocked"
                                                           : "naive");
  json.kv("threads", policy.threads);
  json.kv("resolved_threads", abft::resolved_threads(policy));
  json.end_object();
  json.key("results").begin_array();
  for (const Cell& c : cells) {
    json.begin_object();
    json.kv("n", c.n);
    json.kv("path", c.path);
    json.kv("threads", c.threads);
    json.kv("seconds", c.seconds);
    json.kv("gflops", c.gflops);
    json.kv("max_abs_diff_vs_naive", c.max_abs_diff_vs_naive);
    json.end_object();
  }
  json.end_array();
  json.key("qr").begin_array();
  for (const QrCell& c : qr_cells) {
    json.begin_object();
    json.kv("n", c.n);
    json.kv("path", c.path);
    json.kv("threads", c.threads);
    json.kv("seconds", c.seconds);
    json.kv("gflops", c.gflops);
    json.kv("speedup_vs_reference", c.speedup_vs_reference);
    json.kv("max_abs_diff_vs_reference", c.max_abs_diff_vs_reference);
    json.kv("abft_seconds", c.abft_seconds);
    json.kv("phi_abft", c.phi_abft);
    json.end_object();
  }
  json.end_array();
  json.key("trsm").begin_array();
  for (const TrsmCell& c : trsm_cells) {
    json.begin_object();
    json.kv("op", c.op);
    json.kv("path", c.path);
    json.kv("factor", kTrsmFactor);
    json.kv("rows", kTrsmRows);
    json.kv("seconds", c.seconds);
    json.kv("gflops", c.gflops);
    json.kv("speedup_vs_reference", c.speedup_vs_reference);
    json.kv("max_abs_diff_vs_reference", c.max_abs_diff_vs_reference);
    json.end_object();
  }
  json.end_array();
  json.key("verify").begin_array();
  for (const VerifyCell& c : verify_cells) {
    json.begin_object();
    json.kv("n", c.n);
    json.kv("nb", c.nb);
    json.kv("group", c.group);
    json.kv("slots", c.slots);
    json.kv("bytes", c.bytes);
    json.kv("threads", c.threads);
    json.kv("sweep_ns_per_slot_1t", c.sweep_ns_per_slot_1t);
    json.kv("sweep_ns_per_slot", c.sweep_ns_per_slot);
    json.kv("sweep_ms_1t", c.sweep_ms_1t);
    json.kv("locate_ms", c.locate_ms);
    json.kv("copy_ms", c.copy_ms);
    json.kv("sweep_over_copy", c.sweep_over_copy);
    json.kv("residual", c.residual);
    json.kv("sites", c.sites);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  for (const Cell& c : cells)
    std::cout << "n=" << c.n << " path=" << c.path << " threads=" << c.threads
              << " time=" << c.seconds << "s gflops=" << c.gflops
              << " maxdiff=" << c.max_abs_diff_vs_naive << "\n";
  for (const QrCell& c : qr_cells)
    std::cout << "qr n=" << c.n << " path=" << c.path
              << " threads=" << c.threads << " time=" << c.seconds
              << "s gflops=" << c.gflops
              << " speedup=" << c.speedup_vs_reference
              << " phi_abft=" << c.phi_abft << "\n";
  for (const TrsmCell& c : trsm_cells)
    std::cout << "trsm op=" << c.op << " path=" << c.path
              << " time=" << c.seconds << "s gflops=" << c.gflops
              << " speedup=" << c.speedup_vs_reference
              << " maxdiff=" << c.max_abs_diff_vs_reference << "\n";
  for (const VerifyCell& c : verify_cells)
    std::cout << "verify n=" << c.n << " nb=" << c.nb
              << " sweep_1t=" << c.sweep_ns_per_slot_1t << "ns/slot"
              << " sweep_" << c.threads << "t=" << c.sweep_ns_per_slot
              << "ns/slot locate=" << c.locate_ms << "ms copy=" << c.copy_ms
              << "ms sweep/copy=" << c.sweep_over_copy
              << " residual=" << c.residual << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
