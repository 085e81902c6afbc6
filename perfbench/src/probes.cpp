#include "probes.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include "abft/abft_lu.hpp"
#include "abft/blas.hpp"
#include "abft/kernels.hpp"
#include "ckpt/io/backend.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dist/channel.hpp"
#include "trace.hpp"

namespace perfbench {

namespace ab = abftc::abft;
namespace io = abftc::ckpt::io;
namespace dist = abftc::dist;

namespace {

constexpr int kReps = 5;

std::uint32_t crc_of(const std::vector<std::byte>& bytes) {
  return abftc::common::crc32(std::span<const std::byte>(bytes));
}

/// Serial kernels, as the forked worker ranks run them.
ab::KernelPolicy serial_policy() {
  ab::KernelPolicy p = ab::kernel_policy();
  p.threads = 1;
  return p;
}

}  // namespace

double& probe_sink() {
  static double sink = 0.0;
  return sink;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  if (xs.size() % 2 == 1) return xs[mid];
  const double hi = xs[mid];
  const double lo = *std::max_element(
      xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

std::size_t snapshot_bytes(const dist::DistLayout& lay) {
  return 2 * sizeof(std::uint64_t) + (lay.n + 4 * lay.csr) * lay.n * sizeof(double);
}

namespace {

/// A snapshot shaped exactly like the dist launcher's (progress + matrix +
/// four accumulators), filled with deterministic data and valid CRCs.
io::SnapshotBlob snapshot_like(const dist::DistLayout& lay, std::uint64_t id) {
  io::SnapshotBlob blob;
  blob.meta.id = id;
  blob.meta.kind = abftc::ckpt::CkptKind::Full;
  blob.meta.when = static_cast<double>(id);
  const std::size_t sizes[] = {2 * sizeof(std::uint64_t),
                               lay.n * lay.n * sizeof(double),
                               lay.csr * lay.n * sizeof(double),
                               lay.csr * lay.n * sizeof(double),
                               lay.csr * lay.n * sizeof(double),
                               lay.csr * lay.n * sizeof(double)};
  abftc::common::Rng rng(id);
  abftc::ckpt::RegionId region = 0;
  for (const std::size_t bytes : sizes) {
    io::RegionBlob rb;
    rb.region = region++;
    rb.payload.resize(bytes);
    for (std::size_t i = 0; i + sizeof(double) <= bytes; i += sizeof(double)) {
      const double v = rng.uniform(-1.0, 1.0);
      std::memcpy(rb.payload.data() + i, &v, sizeof(v));
    }
    rb.crc = crc_of(rb.payload);
    blob.meta.bytes += bytes;
    blob.regions.push_back(std::move(rb));
  }
  return blob;
}

}  // namespace

double protected_lu_flops(const dist::DistLayout& lay) {
  const double nb = static_cast<double>(lay.nb);
  const double csr = static_cast<double>(lay.csr);
  double flops = 0.0;
  for (std::size_t k = 0; k < lay.nbk; ++k) {
    const double rest = static_cast<double>(lay.n - (k + 1) * lay.nb);
    flops += 2.0 / 3.0 * nb * nb * nb;              // getf2_nopiv
    flops += nb * nb * rest;                         // trsm_left_lower_unit
    flops += nb * nb * (rest + 2.0 * csr);           // trsm_right_upper ×3
    flops += 2.0 * (rest + 2.0 * csr) * nb * rest;   // gemm_sub ×3
  }
  return flops;
}

CkptProbe probe_ckpt(const dist::DistLayout& lay, const std::string& storage_spec,
                     Tracer* tracer) {
  const double bytes = static_cast<double>(snapshot_bytes(lay));
  std::vector<double> write_s, restore_s, crc_s;
  const auto backend = io::make_backend(storage_spec);
  // One snapshot in memory at a time: write it, then time a CRC pass over
  // the same regions.
  for (int r = 1; r <= kReps; ++r) {
    const io::SnapshotBlob blob =
        snapshot_like(lay, static_cast<std::uint64_t>(r));
    {
      Span span(tracer, "ckpt", "write_snapshot");
      span.arg("bytes", bytes);
      const auto t0 = Clock::now();
      backend->write_snapshot(blob);
      write_s.push_back(seconds_since(t0));
    }
    Span span(tracer, "common", "crc32");
    span.arg("bytes", bytes);
    const auto t0 = Clock::now();
    std::uint32_t fold = 0;
    for (const io::RegionBlob& rb : blob.regions) fold ^= crc_of(rb.payload);
    crc_s.push_back(seconds_since(t0));
    probe_sink() += static_cast<double>(fold);
  }
  for (int r = 0; r < kReps; ++r) {
    Span span(tracer, "ckpt", "latest_restorable");
    const auto t0 = Clock::now();
    const auto restored = io::latest_restorable(*backend);
    restore_s.push_back(seconds_since(t0));
    if (!restored || restored->meta.id != static_cast<abftc::ckpt::CkptId>(kReps))
      throw std::runtime_error("ckpt probe restored the wrong snapshot");
    probe_sink() += static_cast<double>(restored->regions.back().crc);
  }
  CkptProbe out;
  out.write_ms = median(write_s) * 1e3;
  out.restore_ms = median(restore_s) * 1e3;
  out.crc_ms = median(crc_s) * 1e3;
  out.crc_gbps = bytes / (median(crc_s) * 1e9);
  return out;
}

AbftProbe probe_abft(const dist::DistLayout& lay, std::uint64_t seed,
                     Tracer* tracer) {
  const ab::KernelPolicyGuard guard(serial_policy());
  const std::size_t n = lay.n, nb = lay.nb, csr = lay.csr;
  abftc::common::Rng rng(seed);
  const ab::Matrix a0 = ab::Matrix::diag_dominant(n, rng);
  AbftProbe out;

  // The workers' trailing updates, in step order and at their shapes. The
  // operands come from an unmodified source so replayed values stay
  // bounded; only the written blocks live in the scratch copies.
  {
    const ab::Matrix acs0 = ab::Matrix::random(csr, n, rng);
    std::vector<double> secs;
    double flops = 0.0;
    for (int r = 0; r < kReps; ++r) {
      ab::Matrix a = a0, acs = acs0, wacs = acs0;
      flops = 0.0;
      Span span(tracer, "abft", "gemm_sub replay");
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < lay.nbk; ++k) {
        const std::size_t off = k * nb, rest = n - off - nb;
        for (std::size_t j = k + 1; j < lay.nbk; ++j) {
          const std::size_t jc = j * nb;
          const ab::ConstMatrixView u = a0.block(off, jc, nb, nb);
          ab::gemm_sub(a0.block(off + nb, off, rest, nb), u,
                       a.block(off + nb, jc, rest, nb));
          ab::gemm_sub(acs0.block(0, off, csr, nb), u,
                       acs.block(0, jc, csr, nb));
          ab::gemm_sub(acs0.block(0, off, csr, nb), u,
                       wacs.block(0, jc, csr, nb));
          flops += 2.0 * static_cast<double>((rest + 2 * csr) * nb * nb);
        }
      }
      secs.push_back(seconds_since(t0));
      span.arg("flops", flops);
      probe_sink() += a(n - 1, n - 1) + acs(csr - 1, n - 1) + wacs(0, n - 1);
    }
    out.update_gflops = flops / (median(secs) * 1e9);
  }

  // The panel owner's serial work per step: factor the diagonal block, then
  // apply U_kk^{-1} to the L column and both active accumulators.
  {
    const ab::Matrix acs0 = ab::Matrix::random(csr, n, rng);
    std::vector<double> secs;
    for (int r = 0; r < kReps; ++r) {
      ab::Matrix a = a0, acs = acs0, wacs = acs0;
      double total = 0.0;
      Span span(tracer, "abft", "panel replay");
      for (std::size_t k = 0; k < lay.nbk; ++k) {
        const std::size_t off = k * nb, rest = n - off - nb;
        ab::MatrixView diag = a.block(off, off, nb, nb);
        const auto t0 = Clock::now();
        ab::getf2_nopiv(diag);
        if (rest > 0) ab::trsm_right_upper(diag, a.block(off + nb, off, rest, nb));
        ab::trsm_right_upper(diag, acs.block(0, off, csr, nb));
        ab::trsm_right_upper(diag, wacs.block(0, off, csr, nb));
        total += seconds_since(t0);
      }
      secs.push_back(total);
      probe_sink() += a(n - 1, n - 1) + acs(0, n - 1) + wacs(csr - 1, 0);
    }
    out.panel_ms = median(secs) * 1e3;
  }

  // φ: the protected factorization over the plain one, both serial.
  {
    std::vector<double> plain_s, abft_s;
    for (int r = 0; r < kReps; ++r) {
      ab::Matrix plain = a0;
      {
        Span span(tracer, "abft", "plain_blocked_lu");
        const auto t0 = Clock::now();
        ab::plain_blocked_lu(plain, nb);
        plain_s.push_back(seconds_since(t0));
      }
      ab::AbftLu lu(a0, nb, ab::ProcessGrid{lay.group, 1});
      {
        Span span(tracer, "abft", "AbftLu::factor");
        const auto t0 = Clock::now();
        lu.factor();
        abft_s.push_back(seconds_since(t0));
      }
      probe_sink() += plain(n - 1, n - 1) + lu.lu()(n - 1, n - 1);
    }
    out.phi = median(abft_s) / median(plain_s);
  }
  return out;
}

double probe_hop_us(std::size_t trips, Tracer* tracer) {
  Span span(tracer, "dist", "post/recv round trips");
  dist::SharedRegion region(2 * sizeof(dist::Mailbox));
  auto* boxes = static_cast<dist::Mailbox*>(region.data());
  dist::reset(boxes[0]);
  dist::reset(boxes[1]);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() for the hop probe failed");
  if (pid == 0) {
    // Echo every command, as a worker rank answers Done.
    std::uint64_t seen = 0;
    try {
      while (true) {
        const auto msg = dist::recv(boxes[0], seen, 30.0);
        if (!msg) ::_exit(1);
        dist::post(boxes[1], dist::MsgType::Done, msg->args[0]);
        if (msg->type == dist::MsgType::Shutdown) ::_exit(0);
      }
    } catch (...) {
      ::_exit(2);
    }
  }

  std::vector<double> rtt;
  std::uint64_t seen = 0;
  bool ok = true;
  for (std::size_t i = 0; i < trips && ok; ++i) {
    const auto t0 = Clock::now();
    dist::post(boxes[0], dist::MsgType::Update, i);
    const auto reply = dist::recv(boxes[1], seen, 5.0);
    rtt.push_back(seconds_since(t0));
    ok = reply && reply->args[0] == i;
  }
  dist::post(boxes[0], dist::MsgType::Shutdown);
  if (ok) (void)dist::recv(boxes[1], seen, 5.0);
  ::kill(pid, SIGKILL);  // no-op when it already exited
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!ok) throw std::runtime_error("hop probe child stopped answering");
  const double us = median(rtt) * 1e6;
  span.arg("trips", static_cast<double>(trips));
  span.arg("rtt_us_p50", us);
  probe_sink() += us;
  return us;
}

}  // namespace perfbench
