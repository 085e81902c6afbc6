#pragma once
/// \file writer.hpp
/// CkptWriter: the checkpoint commit/restore pipeline over a StorageBackend.
///
/// It implements the protocol's checkpoint taxonomy (Full / Entry / Exit /
/// Incremental, ckpt/image.hpp) over any backend — the composite runtime
/// (core/runtime.hpp) drives one over a MemoryBackend, the storage
/// calibrator over the backend it measures. Its commits go through
/// commit_snapshot, the one commit routine, which the distributed launcher
/// (dist/launcher.hpp) calls too: the regions stream straight from the image
/// into the backend (no staging copy) while one pool task
/// (common::Executor::submit) runs their CRCs (common::crc32: PCLMULQDQ
/// folding where the CPU has it, slice-by-8 otherwise, same values either
/// way). Commit latency therefore approaches max(write, crc) instead of
/// their sum, and the snapshots are bit-identical to the serial
/// copy→CRC→write reference (options.async = false, the benchmark baseline).
///
/// Restores are verify-then-apply: every region CRC of every snapshot that
/// will be applied is checked first (in parallel, on a ScopedArena) and only
/// then is any byte copied into the image — a torn, truncated, or corrupted
/// snapshot is rejected without touching application state.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "ckpt/io/backend.hpp"

namespace abftc::common {
class Executor;  // defined in common/executor.hpp
}

namespace abftc::ckpt::io {

struct WriterOptions {
  /// Snapshots no larger than this are hashed inline: a pool task would
  /// cost more than it hides.
  std::size_t chunk_bytes = 1 << 20;
  /// false: serial copy → CRC → write reference path (same bytes on disk):
  /// CkptWriter stages a copy of the regions, commit_snapshot hashes inline.
  bool async = true;
  /// Pool the hashing task runs on; nullptr = common::Executor::global().
  common::Executor* executor = nullptr;
};

/// One region of a snapshot to commit: its id and the bytes to stream.
struct RegionSpan {
  RegionId id = 0;
  std::span<const std::byte> bytes;
};

/// Commit one snapshot: stream `regions`, in order, into a single
/// begin_snapshot session on `backend` and seal it with their CRCs
/// (`meta.bytes` is set to the region total). While the caller appends the
/// regions, one task on `opts.executor` hashes them in the same order; the
/// caller joins it before commit() and on every error, so no task outlives
/// the call and a fork after it inherits none. The regions are hashed
/// inline instead when the snapshot fits in one `opts.chunk_bytes`, when
/// `opts.async` is false, or inside a parallel region (where blocking on a
/// pool task can deadlock). The spans must not change during the call.
/// Throws io_error from the backend.
void commit_snapshot(StorageBackend& backend, SnapshotMeta meta,
                     std::span<const RegionSpan> regions,
                     const WriterOptions& opts = {});

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
