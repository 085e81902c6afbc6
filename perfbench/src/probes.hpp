#pragma once
/// \file probes.hpp
/// Replay probes of the traced pass: each one times calls into a single
/// layer's public functions at the shapes a workload uses, from outside the
/// program (no instrumentation inside src/). Every probe folds its results
/// into probe_sink() so the optimizer cannot delete the timed work.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dist/worker.hpp"

namespace perfbench {

class Tracer;

/// Running fold of every probe result; reported in the output so the
/// values are observably used.
[[nodiscard]] double& probe_sink();

/// Median of `xs` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> xs);

/// Payload bytes of one dist snapshot for `lay`.
[[nodiscard]] std::size_t snapshot_bytes(const abftc::dist::DistLayout& lay);

/// LU + checksum-update flop count of one protected factorization
/// (computed from the step algebra, not measured).
[[nodiscard]] double protected_lu_flops(const abftc::dist::DistLayout& lay);

struct CkptProbe {
  double write_ms = 0.0;    ///< median write_snapshot
  double restore_ms = 0.0;  ///< median latest_restorable (read + CRC verify)
  double crc_ms = 0.0;      ///< median common::crc32 over one snapshot
  double crc_gbps = 0.0;    ///< snapshot bytes / crc_ms
};
/// write_snapshot / latest_restorable on a fresh store made from
/// `storage_spec`, and crc32 over the snapshot's regions.
[[nodiscard]] CkptProbe probe_ckpt(const abftc::dist::DistLayout& lay,
                                   const std::string& storage_spec,
                                   Tracer* tracer);

struct AbftProbe {
  double update_gflops = 0.0;  ///< serial gemm_sub replay of the updates
  double panel_ms = 0.0;       ///< getf2_nopiv + 3 trsm_right_upper, Σ steps
  double phi = 0.0;            ///< serial AbftLu::factor / plain_blocked_lu
};
[[nodiscard]] AbftProbe probe_abft(const abftc::dist::DistLayout& lay,
                                   std::uint64_t seed, Tracer* tracer);

/// Median mailbox round trip (post → recv → post → recv) between this
/// process and one forked child over a dist::SharedRegion, in µs.
[[nodiscard]] double probe_hop_us(std::size_t trips, Tracer* tracer);

}  // namespace perfbench
