#include "abft/kernels.hpp"

#include <algorithm>
#include <new>

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

#include "common/executor.hpp"

namespace abftc::abft {

namespace {

KernelPolicy g_policy{};

// Blocking parameters (doubles): the packed A panel (kMc × kKc) targets L2,
// the packed B panel (kKc × kNc) streams through L3, and the register tile
// is sized to keep the micro-kernel FMA-bound on the widest ISA available:
// 8 × 16 in zmm registers (16 accumulators of 32) with AVX-512, 6 × 8 in
// ymm registers (12 accumulators of 16, the classic AVX2 dgemm shape)
// otherwise.
#if defined(__AVX512F__)
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 16;
constexpr std::size_t kMc = 128;
constexpr std::size_t kKc = 192;
#else
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 8;
constexpr std::size_t kMc = 96;
constexpr std::size_t kKc = 256;
#endif
constexpr std::size_t kNc = 2048;

// Below this flop count the packing overhead beats the cache savings and the
// dispatcher keeps the reference loops.
constexpr std::size_t kBlockedFlopCutoff = 32 * 32 * 32;

/// 64-byte-aligned scratch for the packed panels: keeps every 32-byte B-row
/// load inside one cache line (std::vector's 16-byte alignment splits half
/// of them). Grows on demand and keeps its largest size.
class AlignedBuf {
 public:
  AlignedBuf() = default;
  ~AlignedBuf() { release(); }
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;

  /// Room for at least `count` doubles; the contents do not survive growth.
  [[nodiscard]] double* reserve(std::size_t count) {
    if (count > cap_) {
      release();
      p_ = static_cast<double*>(
          ::operator new[](count * sizeof(double), std::align_val_t{64}));
      cap_ = count;
    }
    return p_;
  }

 private:
  void release() noexcept {
    if (p_ != nullptr) ::operator delete[](p_, std::align_val_t{64});
  }
  double* p_ = nullptr;
  std::size_t cap_ = 0;
};

/// Reusable per-thread A-panel scratch, sized for the largest (mc × pc)
/// panel once and kept for the thread's lifetime, so no GEMM call pays an
/// allocation for it.
double* thread_apack() {
  // kMc is a multiple of kMr, so kMc·kKc bounds every padded panel.
  thread_local AlignedBuf buf;
  return buf.reserve(kMc * kKc);
}

/// The calling thread's B-pack scratch, grown to `count` doubles. Only the
/// thread that issues a GEMM packs B, and between packing and the end of
/// its loop it runs nothing but chunks of that loop (micro-kernels), so no
/// second GEMM can repack this buffer while workers still read it.
double* thread_bpack(std::size_t count) {
  thread_local AlignedBuf buf;
  return buf.reserve(count);
}

/// Columns of a packed B panel: nc rounded up to whole kNr micro-panels.
constexpr std::size_t padded_cols(std::size_t nc) {
  return (nc + kNr - 1) / kNr * kNr;
}

inline double op_at(ConstMatrixView m, Trans t, std::size_t i, std::size_t j) {
  return t == Trans::No ? m(i, j) : m(j, i);
}

// β-scale of C outside the fused epilogue. The naive path and the blocked
// path's degenerate no-product shapes share it so the β semantics cannot
// diverge across the dispatch cutover: β == 0 overwrites, never reads.
void scale_c(double beta, MatrixView c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    for (std::size_t i = 0; i < c.rows(); ++i)
      for (std::size_t j = 0; j < c.cols(); ++j) c(i, j) = 0.0;
  } else {
    for (std::size_t i = 0; i < c.rows(); ++i)
      for (std::size_t j = 0; j < c.cols(); ++j) c(i, j) *= beta;
  }
}

/// Pack op(A)(i0:i0+mc, p0:p0+pc) into micro-row-panel order: panel `ir`
/// holds rows [ir·MR, ir·MR+MR) stored column-by-column (p-major), zero-padded
/// to a full MR so the micro-kernel never branches on the row edge.
void pack_a(ConstMatrixView a, Trans ta, double alpha, std::size_t i0,
            std::size_t mc, std::size_t p0, std::size_t pc, double* buf) {
  for (std::size_t ir = 0; ir < mc; ir += kMr) {
    const std::size_t mr = std::min(kMr, mc - ir);
    for (std::size_t p = 0; p < pc; ++p) {
      for (std::size_t i = 0; i < mr; ++i)
        buf[p * kMr + i] = alpha * op_at(a, ta, i0 + ir + i, p0 + p);
      for (std::size_t i = mr; i < kMr; ++i) buf[p * kMr + i] = 0.0;
    }
    buf += pc * kMr;
  }
}

/// Pack op(B)(p0:p0+pc, j0:j0+nc) into micro-column-panel order: panel `jr`
/// holds columns [jr·NR, jr·NR+NR) stored row-by-row (p-major), zero-padded
/// to a full NR.
void pack_b(ConstMatrixView b, Trans tb, std::size_t p0, std::size_t pc,
            std::size_t j0, std::size_t nc, double* buf) {
  for (std::size_t jr = 0; jr < nc; jr += kNr) {
    const std::size_t nr = std::min(kNr, nc - jr);
    if (tb == Trans::No && nr == kNr) {
      // Contiguous rows of B: copy straight runs.
      for (std::size_t p = 0; p < pc; ++p) {
        const double* src = b.data() + (p0 + p) * b.ld() + (j0 + jr);
        double* dst = buf + p * kNr;
        for (std::size_t j = 0; j < kNr; ++j) dst[j] = src[j];
      }
    } else {
      for (std::size_t p = 0; p < pc; ++p) {
        for (std::size_t j = 0; j < nr; ++j)
          buf[p * kNr + j] = op_at(b, tb, p0 + p, j0 + jr + j);
        for (std::size_t j = nr; j < kNr; ++j) buf[p * kNr + j] = 0.0;
      }
    }
    buf += pc * kNr;
  }
}

/// C(0:mr, 0:nr) ← β·C + Σ_p ap[p·MR + i] · bp[p·NR + j]. The accumulators
/// live in registers for the whole kc loop; the packed panels are read once
/// each. β is applied in the store-back epilogue — the caller passes the
/// gemm-level β on the first kc pass and 1.0 on the rest, which fuses the
/// scale into the pass that touches C anyway (no standalone C sweep).
/// β == 0 is a BLAS-style fast path that never reads C; β ∉ {0, 1} fuses
/// scale and accumulate (FMA where the ISA has it). Each element takes the
/// same path on every run, so results stay bitwise-deterministic for a
/// fixed build regardless of worker count.
#if defined(__AVX512F__)
void micro_kernel(std::size_t pc, const double* ap, const double* bp,
                  double* c, std::size_t ldc, std::size_t mr, std::size_t nr,
                  double beta) {
  static_assert(kMr == 8 && kNr == 16, "kernel is written for an 8x16 tile");
  // 16 accumulator zmm registers + 2 B registers + 1 broadcast of 32.
  __m512d c0a = _mm512_setzero_pd(), c0b = _mm512_setzero_pd();
  __m512d c1a = _mm512_setzero_pd(), c1b = _mm512_setzero_pd();
  __m512d c2a = _mm512_setzero_pd(), c2b = _mm512_setzero_pd();
  __m512d c3a = _mm512_setzero_pd(), c3b = _mm512_setzero_pd();
  __m512d c4a = _mm512_setzero_pd(), c4b = _mm512_setzero_pd();
  __m512d c5a = _mm512_setzero_pd(), c5b = _mm512_setzero_pd();
  __m512d c6a = _mm512_setzero_pd(), c6b = _mm512_setzero_pd();
  __m512d c7a = _mm512_setzero_pd(), c7b = _mm512_setzero_pd();
  const double* a = ap;
  const double* b = bp;
  for (std::size_t p = 0; p < pc; ++p, a += kMr, b += kNr) {
    const __m512d b0 = _mm512_load_pd(b);
    const __m512d b1 = _mm512_load_pd(b + 8);
    __m512d ai = _mm512_set1_pd(a[0]);
    c0a = _mm512_fmadd_pd(ai, b0, c0a);
    c0b = _mm512_fmadd_pd(ai, b1, c0b);
    ai = _mm512_set1_pd(a[1]);
    c1a = _mm512_fmadd_pd(ai, b0, c1a);
    c1b = _mm512_fmadd_pd(ai, b1, c1b);
    ai = _mm512_set1_pd(a[2]);
    c2a = _mm512_fmadd_pd(ai, b0, c2a);
    c2b = _mm512_fmadd_pd(ai, b1, c2b);
    ai = _mm512_set1_pd(a[3]);
    c3a = _mm512_fmadd_pd(ai, b0, c3a);
    c3b = _mm512_fmadd_pd(ai, b1, c3b);
    ai = _mm512_set1_pd(a[4]);
    c4a = _mm512_fmadd_pd(ai, b0, c4a);
    c4b = _mm512_fmadd_pd(ai, b1, c4b);
    ai = _mm512_set1_pd(a[5]);
    c5a = _mm512_fmadd_pd(ai, b0, c5a);
    c5b = _mm512_fmadd_pd(ai, b1, c5b);
    ai = _mm512_set1_pd(a[6]);
    c6a = _mm512_fmadd_pd(ai, b0, c6a);
    c6b = _mm512_fmadd_pd(ai, b1, c6b);
    ai = _mm512_set1_pd(a[7]);
    c7a = _mm512_fmadd_pd(ai, b0, c7a);
    c7b = _mm512_fmadd_pd(ai, b1, c7b);
  }
  if (mr == kMr && nr == kNr) {
    const __m512d rows[kMr][2] = {{c0a, c0b}, {c1a, c1b}, {c2a, c2b},
                                  {c3a, c3b}, {c4a, c4b}, {c5a, c5b},
                                  {c6a, c6b}, {c7a, c7b}};
    double* r = c;
    if (beta == 1.0) {
      for (std::size_t i = 0; i < kMr; ++i, r += ldc) {
        _mm512_storeu_pd(r, _mm512_add_pd(_mm512_loadu_pd(r), rows[i][0]));
        _mm512_storeu_pd(r + 8,
                         _mm512_add_pd(_mm512_loadu_pd(r + 8), rows[i][1]));
      }
    } else if (beta == 0.0) {
      for (std::size_t i = 0; i < kMr; ++i, r += ldc) {
        _mm512_storeu_pd(r, rows[i][0]);
        _mm512_storeu_pd(r + 8, rows[i][1]);
      }
    } else {
      const __m512d bv = _mm512_set1_pd(beta);
      for (std::size_t i = 0; i < kMr; ++i, r += ldc) {
        _mm512_storeu_pd(
            r, _mm512_fmadd_pd(bv, _mm512_loadu_pd(r), rows[i][0]));
        _mm512_storeu_pd(
            r + 8, _mm512_fmadd_pd(bv, _mm512_loadu_pd(r + 8), rows[i][1]));
      }
    }
    return;
  }
  alignas(64) double acc[kMr][kNr];
  _mm512_store_pd(acc[0], c0a);
  _mm512_store_pd(acc[0] + 8, c0b);
  _mm512_store_pd(acc[1], c1a);
  _mm512_store_pd(acc[1] + 8, c1b);
  _mm512_store_pd(acc[2], c2a);
  _mm512_store_pd(acc[2] + 8, c2b);
  _mm512_store_pd(acc[3], c3a);
  _mm512_store_pd(acc[3] + 8, c3b);
  _mm512_store_pd(acc[4], c4a);
  _mm512_store_pd(acc[4] + 8, c4b);
  _mm512_store_pd(acc[5], c5a);
  _mm512_store_pd(acc[5] + 8, c5b);
  _mm512_store_pd(acc[6], c6a);
  _mm512_store_pd(acc[6] + 8, c6b);
  _mm512_store_pd(acc[7], c7a);
  _mm512_store_pd(acc[7] + 8, c7b);
  if (beta == 1.0) {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
  } else if (beta == 0.0) {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
  } else {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j)
        c[i * ldc + j] = beta * c[i * ldc + j] + acc[i][j];
  }
}
#elif defined(__AVX2__) && defined(__FMA__)
void micro_kernel(std::size_t pc, const double* ap, const double* bp,
                  double* c, std::size_t ldc, std::size_t mr, std::size_t nr,
                  double beta) {
  static_assert(kMr == 6 && kNr == 8, "kernel is written for a 6x8 tile");
  // 12 accumulator ymm registers + 2 B registers + 1 broadcast = 15 of 16.
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  __m256d c40 = _mm256_setzero_pd(), c41 = _mm256_setzero_pd();
  __m256d c50 = _mm256_setzero_pd(), c51 = _mm256_setzero_pd();
  const double* a = ap;
  const double* b = bp;
  for (std::size_t p = 0; p < pc; ++p, a += kMr, b += kNr) {
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + 4);
    __m256d ai = _mm256_broadcast_sd(a + 0);
    c00 = _mm256_fmadd_pd(ai, b0, c00);
    c01 = _mm256_fmadd_pd(ai, b1, c01);
    ai = _mm256_broadcast_sd(a + 1);
    c10 = _mm256_fmadd_pd(ai, b0, c10);
    c11 = _mm256_fmadd_pd(ai, b1, c11);
    ai = _mm256_broadcast_sd(a + 2);
    c20 = _mm256_fmadd_pd(ai, b0, c20);
    c21 = _mm256_fmadd_pd(ai, b1, c21);
    ai = _mm256_broadcast_sd(a + 3);
    c30 = _mm256_fmadd_pd(ai, b0, c30);
    c31 = _mm256_fmadd_pd(ai, b1, c31);
    ai = _mm256_broadcast_sd(a + 4);
    c40 = _mm256_fmadd_pd(ai, b0, c40);
    c41 = _mm256_fmadd_pd(ai, b1, c41);
    ai = _mm256_broadcast_sd(a + 5);
    c50 = _mm256_fmadd_pd(ai, b0, c50);
    c51 = _mm256_fmadd_pd(ai, b1, c51);
  }
  if (mr == kMr && nr == kNr) {
    const __m256d rows[kMr][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                                  {c30, c31}, {c40, c41}, {c50, c51}};
    double* r = c;
    if (beta == 1.0) {
      for (std::size_t i = 0; i < kMr; ++i, r += ldc) {
        _mm256_storeu_pd(r, _mm256_add_pd(_mm256_loadu_pd(r), rows[i][0]));
        _mm256_storeu_pd(r + 4,
                         _mm256_add_pd(_mm256_loadu_pd(r + 4), rows[i][1]));
      }
    } else if (beta == 0.0) {
      for (std::size_t i = 0; i < kMr; ++i, r += ldc) {
        _mm256_storeu_pd(r, rows[i][0]);
        _mm256_storeu_pd(r + 4, rows[i][1]);
      }
    } else {
      const __m256d bv = _mm256_set1_pd(beta);
      for (std::size_t i = 0; i < kMr; ++i, r += ldc) {
        _mm256_storeu_pd(r,
                         _mm256_fmadd_pd(bv, _mm256_loadu_pd(r), rows[i][0]));
        _mm256_storeu_pd(
            r + 4, _mm256_fmadd_pd(bv, _mm256_loadu_pd(r + 4), rows[i][1]));
      }
    }
    return;
  }
  alignas(32) double acc[kMr][kNr];
  _mm256_store_pd(acc[0], c00);
  _mm256_store_pd(acc[0] + 4, c01);
  _mm256_store_pd(acc[1], c10);
  _mm256_store_pd(acc[1] + 4, c11);
  _mm256_store_pd(acc[2], c20);
  _mm256_store_pd(acc[2] + 4, c21);
  _mm256_store_pd(acc[3], c30);
  _mm256_store_pd(acc[3] + 4, c31);
  _mm256_store_pd(acc[4], c40);
  _mm256_store_pd(acc[4] + 4, c41);
  _mm256_store_pd(acc[5], c50);
  _mm256_store_pd(acc[5] + 4, c51);
  if (beta == 1.0) {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
  } else if (beta == 0.0) {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
  } else {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j)
        c[i * ldc + j] = beta * c[i * ldc + j] + acc[i][j];
  }
}
#else
void micro_kernel(std::size_t pc, const double* ap, const double* bp,
                  double* c, std::size_t ldc, std::size_t mr, std::size_t nr,
                  double beta) {
  double acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < pc; ++p) {
    const double* a = ap + p * kMr;
    const double* b = bp + p * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const double ai = a[i];
      for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += ai * b[j];
    }
  }
  if (beta == 1.0) {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
  } else if (beta == 0.0) {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] = acc[i][j];
  } else {
    for (std::size_t i = 0; i < mr; ++i)
      for (std::size_t j = 0; j < nr; ++j)
        c[i * ldc + j] = beta * c[i * ldc + j] + acc[i][j];
  }
}
#endif

/// One kc pass of C ← β·C + α·op(A)·B̂ over the row panels of op(A)
/// (rows [0, m), depth [pc0, pc0 + pc)) for every packed B panel B̂ that
/// `panels` offers. `panels(tile)` calls `tile(bpack, nc, c, ldc)` once per
/// panel: `bpack` is op(B) packed by pack_b for this pass, nc columns wide,
/// and `c` its C block (row 0, leading dimension ldc). Each row panel of A
/// is packed once for all of them. Row panels of C are disjoint, so each
/// worker owns its output rows: per element the accumulation order is fixed
/// and results are bitwise-identical across thread counts.
template <typename Panels>
void kc_pass(ConstMatrixView a, Trans ta, double alpha, std::size_t m,
             std::size_t pc0, std::size_t pc, double beta, unsigned threads,
             const Panels& panels) {
  common::parallel_for(
      (m + kMc - 1) / kMc,
      [&](std::size_t ic) {
        const std::size_t i0 = ic * kMc;
        const std::size_t mc = std::min(kMc, m - i0);
        double* const apack = thread_apack();
        pack_a(a, ta, alpha, i0, mc, pc0, pc, apack);
        panels([&](const double* bpack, std::size_t nc, double* c,
                   std::size_t ldc) {
          for (std::size_t jr = 0; jr < nc; jr += kNr) {
            const std::size_t nr = std::min(kNr, nc - jr);
            const double* bp = bpack + (jr / kNr) * pc * kNr;
            for (std::size_t ir = 0; ir < mc; ir += kMr) {
              const std::size_t mr = std::min(kMr, mc - ir);
              micro_kernel(pc, apack + (ir / kMr) * pc * kMr, bp,
                           c + (i0 + ir) * ldc + jr, ldc, mr, nr, beta);
            }
          }
        });
      },
      threads);
}

}  // namespace

GemmShape gemm_shape(ConstMatrixView a, Trans ta, ConstMatrixView b, Trans tb,
                     MatrixView c) {
  GemmShape s{};
  s.m = (ta == Trans::No) ? a.rows() : a.cols();
  s.k = (ta == Trans::No) ? a.cols() : a.rows();
  const std::size_t kb = (tb == Trans::No) ? b.rows() : b.cols();
  s.n = (tb == Trans::No) ? b.cols() : b.rows();
  ABFTC_REQUIRE(s.k == kb, "gemm inner dimensions must match");
  ABFTC_REQUIRE(c.rows() == s.m && c.cols() == s.n,
                "gemm output shape mismatch");
  return s;
}

const KernelPolicy& kernel_policy() noexcept { return g_policy; }

void set_kernel_policy(KernelPolicy p) noexcept {
  g_policy = p;
}

unsigned resolved_threads(const KernelPolicy& p) noexcept {
  return common::effective_threads(p.threads);
}

bool gemm_uses_blocked_path(std::size_t m, std::size_t n,
                            std::size_t k) noexcept {
  return g_policy.path == KernelPath::blocked &&
         m * n * k >= kBlockedFlopCutoff;
}

void naive_gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                Trans tb, double beta, MatrixView c) {
  const auto [m, n, k] = gemm_shape(a, ta, b, tb, c);

  scale_c(beta, c);

  if (ta == Trans::No && tb == Trans::No) {
    // ikj order: stream through rows of B for row-major locality.
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = alpha * a(i, p);
        if (aip == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) c(i, j) += aip * b(p, j);
      }
  } else if (ta == Trans::No && tb == Trans::Yes) {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t p = 0; p < k; ++p) s += a(i, p) * b(j, p);
        c(i, j) += alpha * s;
      }
  } else if (ta == Trans::Yes && tb == Trans::No) {
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t i = 0; i < m; ++i) {
        const double api = alpha * a(p, i);
        if (api == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) c(i, j) += api * b(p, j);
      }
  } else {
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t p = 0; p < k; ++p) s += a(p, i) * b(j, p);
        c(i, j) += alpha * s;
      }
  }
}

void blocked_gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                  Trans tb, double beta, MatrixView c, unsigned threads) {
  const auto [m, n, k] = gemm_shape(a, ta, b, tb, c);

  // The β-scale is fused into the first kc pass of the micro-kernel (the
  // pass touches every C tile anyway, so the standalone C sweep is a whole
  // memory pass saved on every β ≠ 1 call). Only the degenerate no-product
  // shapes, where no pass runs, scale C here.
  if (alpha == 0.0 || k == 0) {
    scale_c(beta, c);
    return;
  }

  double* const bpack =
      thread_bpack(std::min(k, kKc) * padded_cols(std::min(n, kNc)));
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc0 = 0; pc0 < k; pc0 += kKc) {
      const std::size_t pc = std::min(kKc, k - pc0);
      // Each C element is visited by exactly one jc block, once per kc pass;
      // the first pass carries the β-scale, later passes accumulate.
      pack_b(b, tb, pc0, pc, jc, nc, bpack);
      kc_pass(a, ta, alpha, m, pc0, pc, (pc0 == 0) ? beta : 1.0, threads,
              [&](const auto& tile) { tile(bpack, nc, &c(0, jc), c.ld()); });
    }
  }
}

void gemm_sub_batch(ConstMatrixView a, std::span<const ConstMatrixView> b,
                    std::span<const MatrixView> c) {
  ABFTC_REQUIRE(b.size() == c.size(), "gemm batch needs one C per B");
  const std::size_t m = a.rows(), k = a.cols();
  std::size_t packed_cols = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    (void)gemm_shape(a, Trans::No, b[i], Trans::No, c[i]);
    if (gemm_uses_blocked_path(m, b[i].cols(), k))
      packed_cols += padded_cols(b[i].cols());
    else
      naive_gemm(-1.0, a, Trans::No, b[i], Trans::No, 1.0, c[i]);
  }
  if (packed_cols == 0) return;

  // gemm_sub's blocked calls, with every kc pass of every pair in one loop
  // over the A row panels: per element the same micro-kernel sums in the
  // same passes, so each pair is bitwise its own gemm_sub.
  double* const bpack = thread_bpack(std::min(k, kKc) * packed_cols);
  for (std::size_t pc0 = 0; pc0 < k; pc0 += kKc) {
    const std::size_t pc = std::min(kKc, k - pc0);
    const auto blocked_pairs = [&](const auto& visit) {
      double* pack = bpack;
      for (std::size_t i = 0; i < b.size(); ++i) {
        const std::size_t n = b[i].cols();
        if (!gemm_uses_blocked_path(m, n, k)) continue;
        visit(i, pack);
        pack += pc * padded_cols(n);
      }
    };
    blocked_pairs([&](std::size_t i, double* pack) {
      pack_b(b[i], Trans::No, pc0, pc, 0, b[i].cols(), pack);
    });
    kc_pass(a, Trans::No, -1.0, m, pc0, pc, 1.0, kernel_policy().threads,
            [&](const auto& tile) {
              blocked_pairs([&](std::size_t i, double* pack) {
                tile(pack, c[i].cols(), c[i].data(), c[i].ld());
              });
            });
  }
}

}  // namespace abftc::abft
