#pragma once
/// \file writer.hpp
/// CkptWriter: the checkpoint commit/restore pipeline over a StorageBackend.
///
/// It implements the protocol's checkpoint taxonomy (Full / Entry / Exit /
/// Incremental, ckpt/image.hpp) over any backend — the composite runtime
/// (core/runtime.hpp) drives one over a MemoryBackend, the storage
/// calibrator over the backend it measures — and pipelines the commit: each
/// region is streamed in fixed-size chunks read straight from the image (no
/// staging copy) — the caller thread hands chunk i to the backend while a
/// pool task (common::Executor::submit) runs the CRC of the same chunk
/// concurrently (common::crc32: PCLMULQDQ folding where the CPU has it,
/// slice-by-8 otherwise, same values either way). Commit latency therefore
/// approaches max(write, crc) instead of their sum; per-region CRCs are
/// folded from the chunk CRCs with crc32_combine, so the async path produces
/// bit-identical snapshots to the serial copy→CRC→write reference
/// (options.async = false, the benchmark baseline).
///
/// Restores are verify-then-apply: every region CRC of every snapshot that
/// will be applied is checked first (in parallel, on a ScopedArena) and only
/// then is any byte copied into the image — a torn, truncated, or corrupted
/// snapshot is rejected without touching application state.

#include <cstddef>
#include <optional>
#include <vector>

#include "ckpt/io/backend.hpp"

namespace abftc::common {
class Executor;  // defined in common/executor.hpp
}

namespace abftc::ckpt::io {

struct WriterOptions {
  /// Pipeline granularity: CRC-task / append size.
  std::size_t chunk_bytes = 1 << 20;
  /// false: serial copy → CRC → write reference path (same bytes on disk).
  bool async = true;
  /// Pool the CRC tasks run on; nullptr = common::Executor::global().
  common::Executor* executor = nullptr;
};

struct RestoreReport {
  double from_when = 0.0;          ///< timestamp of the protection point
  std::size_t bytes_restored = 0;  ///< bytes copied into the image
  std::vector<CkptId> applied;     ///< snapshots applied, oldest first
};

class CkptWriter {
 public:
  /// The backend must outlive the writer. Snapshot ids continue after the
  /// backend's existing content (a reopened store keeps its history).
  explicit CkptWriter(StorageBackend& backend, WriterOptions opts = {});

  /// The taxonomy (Section III). Full, Exit and Incremental clear the
  /// image's dirty flags; an Incremental needs a Full base; an Exit must
  /// name an Entry and together with it cover the whole image. `when` must
  /// be non-decreasing across calls.
  CkptId take_full(MemoryImage& image, double when);
  CkptId take_entry(MemoryImage& image, double when);
  CkptId take_exit(MemoryImage& image, double when, CkptId entry);
  CkptId take_incremental(MemoryImage& image, double when);

  /// True once the backend holds a complete protection point (a Full, or an
  /// Entry + Exit pair).
  [[nodiscard]] bool has_restore_point() const;

  /// Restore the most recent complete protection point (latest Full + later
  /// Incrementals, or Entry+Exit pair, whichever is newer). All payload
  /// CRCs are verified before the image is touched; throws io_error on any
  /// integrity failure. Clears the image's dirty flags.
  RestoreReport restore_latest(MemoryImage& image) const;

  /// Restore only the REMAINDER dataset, from the newest Entry or Full —
  /// the rollback half of ABFT recovery (Figure 2): the LIBRARY dataset is
  /// left for the ABFT kernel to reconstruct. Every region of the source
  /// snapshot is verified first, as in restore_latest; throws io_error on
  /// any integrity failure with the image untouched.
  RestoreReport restore_remainder(MemoryImage& image) const;

  /// Drop the records no restore can reach any more: exactly the `drop`
  /// set of compact::plan_compaction over the backend's records, each
  /// flagged by whether its payload verifies. Nothing is folded.
  void compact();

  [[nodiscard]] const WriterOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] StorageBackend& backend() noexcept { return backend_; }

 private:
  CkptId commit(MemoryImage& image, CkptKind kind, double when,
                CkptId entry_link, const std::vector<RegionId>& regions);
  /// Read every snapshot of `plan` and check it against the image — sizes,
  /// then payload CRCs — before the caller applies any byte.
  [[nodiscard]] std::vector<SnapshotBlob> read_verified(
      const std::vector<CkptId>& plan, const MemoryImage& image) const;
  /// Copy the blob's regions (only those of class `only`, when given) into
  /// the image.
  static void apply(const SnapshotBlob& blob, MemoryImage& image,
                    RestoreReport& report,
                    std::optional<RegionClass> only = std::nullopt);
  [[nodiscard]] common::Executor& executor() const;

  StorageBackend& backend_;
  WriterOptions opts_;
  CkptId next_id_ = 1;
  double last_when_ = 0.0;
};

}  // namespace abftc::ckpt::io
