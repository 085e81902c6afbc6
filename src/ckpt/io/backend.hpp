#pragma once
/// \file backend.hpp
/// The checkpoint I/O subsystem: snapshots behind a pluggable StorageBackend.
///
/// ckpt::StorageModel *predicts* C/R from assumed bandwidths; this layer
/// *performs* the I/O so the Section V-C hypotheses (remote-PFS vs scalable
/// in-node storage, Figs 8–10) can be anchored in measured checkpoint costs.
/// Two backends implement the same contract:
///
///  * MemoryBackend — snapshots held in RAM (tests, the composite runtime and
///    the dist runtime's in-RAM store); zero durability, memcpy speed.
///  * LogBackend    — the persistent store: sharded append-only changelog
///    segments with CRC-framed records, Full+Incremental chains and
///    background compaction (log_backend.hpp). It is built for concurrent
///    committers.
///
/// Writes are two-phase: payload first, then the commit record (the log's
/// framed trailer) — a crash mid-write leaves a torn snapshot that readers
/// reject instead of half-restoring.
///
/// Reads have one primitive per backend, read_regions(): it validates the
/// snapshot's structure, then reads each region's payload into memory a
/// caller-supplied RegionSink names. read_snapshot (a heap blob),
/// latest_restorable and restore_latest_into (straight into caller spans,
/// CRCs verified in place) are built on it, and the last two share one
/// newest→oldest walk.
///
/// Backends are deliberately *not* thread-safe: one CkptWriter drives one
/// backend (coordinated checkpoints serialize commits by construction).
/// Parallelism lives above, in the writer's copy/CRC/write pipeline. The
/// log backend opts out via concurrent_committers() — its commit path is
/// internally locked per shard, so independent writers may share it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/image.hpp"

namespace abftc::ckpt::io {

/// Thrown when stored data cannot be read back faithfully: unknown id, torn
/// (uncommitted) snapshot, truncated segment, CRC mismatch.
class io_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything about a snapshot except its payload.
struct SnapshotMeta {
  CkptId id = 0;
  CkptKind kind = CkptKind::Full;
  double when = 0.0;
  CkptId entry_link = 0;      ///< for Exit: the Entry it completes
  std::uint64_t bytes = 0;    ///< total payload bytes across regions
};

/// One region's payload as stored.
struct RegionBlob {
  RegionId region = 0;
  std::uint32_t crc = 0;  ///< crc32 of `payload`
  std::vector<std::byte> payload;
};

/// A complete snapshot in memory (the unit of write_snapshot/read_snapshot).
struct SnapshotBlob {
  SnapshotMeta meta;
  std::vector<RegionBlob> regions;

  /// Recompute every region CRC and compare with the stored one; throws
  /// io_error naming the first mismatching region.
  void verify() const;
};

/// Where a read puts one region's payload. Called once per stored region,
/// in stored order, with the region id and its stored size; returns the
/// destination, which must be exactly that many bytes and stay valid until
/// the read returns — or an empty span, meaning "skip": the backend then
/// reads none of that region's bytes (a chain restore skips the regions a
/// newer record already supplied). A sink rejects a layout it cannot hold
/// by throwing io_error. It must not call back into the backend (the log
/// backend reads under its index lock).
using RegionSink =
    std::function<std::span<std::byte>(RegionId region, std::uint64_t bytes)>;

/// What a read reports besides the payload: the snapshot's metadata and the
/// stored CRC of each region, in the order the sink was called.
struct ReadResult {
  SnapshotMeta meta;
  std::vector<std::uint32_t> crcs;
};

/// Pluggable snapshot storage. See the file comment for the two
/// implementations and make_backend() for the `--storage=` spec syntax.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Backend kind: "memory", "log", or a decorator's own ("faulting").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when independent threads may each drive their own WriteSession
  /// concurrently (commits are internally synchronized). Callers running
  /// multiple committers against a false backend must serialize externally.
  [[nodiscard]] virtual bool concurrent_committers() const noexcept {
    return false;
  }

  /// Attach to the target: create the store on first use, rescan any
  /// existing segments after a restart. Idempotent (a re-open rescans
  /// persistent state). make_backend() calls this.
  virtual void open() = 0;

  /// Persist a complete snapshot; durable on return (the log fdatasyncs
  /// unless opened with flush=0).
  /// Rejects duplicate ids. The default implementation streams the blob
  /// through begin_snapshot() — the one write primitive a backend must
  /// provide — so blob and streaming writes cannot diverge.
  virtual void write_snapshot(const SnapshotBlob& blob);

  /// The backend's read primitive. Checks the snapshot's structure (magic,
  /// header and region-table CRCs, region sizes summing to
  /// meta.bytes) before the first sink call, then reads each region's
  /// payload straight into the span the sink returns (nothing for a region
  /// whose span is empty). Payload CRCs are the
  /// caller's to verify, so the hash pass is paid once, where the bytes
  /// land. Throws io_error for an unknown id, a torn or truncated snapshot,
  /// or a sink that rejects the layout; the spans handed out so far then
  /// hold unspecified bytes.
  [[nodiscard]] virtual ReadResult read_regions(CkptId id,
                                                const RegionSink& sink) const = 0;

  /// Read a snapshot back into a heap blob: read_regions with a sink that
  /// allocates one payload vector per region. Payload CRCs are not checked
  /// (SnapshotBlob::verify).
  [[nodiscard]] SnapshotBlob read_snapshot(CkptId id) const;

  /// Metadata of every committed snapshot, in commit order.
  [[nodiscard]] virtual std::vector<SnapshotMeta> list() const = 0;

  /// Remove one snapshot. Unknown ids throw io_error.
  virtual void drop(CkptId id) = 0;

  // --- streaming write path -------------------------------------------------

  /// A snapshot being written chunk by chunk. The payload stream is the
  /// regions in the declared order, each region contiguous; per-region CRCs
  /// arrive only at commit() so the producer can overlap hashing with the
  /// backend's writes. A session destroyed without commit() leaves no
  /// visible snapshot (torn data is rejected by readers).
  class WriteSession {
   public:
    virtual ~WriteSession() = default;
    virtual void append(std::span<const std::byte> chunk) = 0;
    /// Seal the snapshot (one CRC per declared region, in order); the
    /// snapshot is durable and visible to list()/read_snapshot() on return.
    virtual void commit(const std::vector<std::uint32_t>& region_crcs) = 0;
  };

  /// Begin a streaming write: region ids and sizes are declared up front,
  /// payload bytes stream through append(). This is the backend's write
  /// primitive (each implementation streams straight to its medium);
  /// `meta.bytes` must equal the size sum. Implementations should validate
  /// arguments with detail::require_valid_layout.
  [[nodiscard]] virtual std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta& meta, std::vector<RegionId> regions,
      std::vector<std::uint64_t> region_sizes) = 0;
};

namespace detail {
/// Shared argument validation for both write paths (id != 0, aligned
/// region/size lists, meta.bytes == size sum, no zero-byte regions).
void require_valid_layout(const SnapshotMeta& meta,
                          const std::vector<RegionId>& regions,
                          const std::vector<std::uint64_t>& sizes);

/// Implement write_snapshot in terms of begin_snapshot: one session, one
/// append per region, commit with the blob's CRCs. This is the default
/// write_snapshot; it lives in detail so backends overriding
/// write_snapshot can still delegate to it.
void write_via_session(StorageBackend& backend, const SnapshotBlob& blob);
}  // namespace detail

/// Restore-on-respawn entry point: the newest snapshot that reads back
/// fully intact — structural checks *and* payload CRCs (SnapshotBlob::
/// verify) — walking list() from newest to oldest and skipping torn,
/// truncated or corrupt snapshots. nullopt when nothing restorable exists.
/// This is what a recovering process calls after a crash: a snapshot whose
/// committer died mid-write (or whose payload a fault tore) must not stop
/// an older good snapshot from being used.
[[nodiscard]] std::optional<SnapshotBlob> latest_restorable(
    const StorageBackend& backend);

/// The same newest→oldest walk over candidates, restoring straight into
/// caller memory: `regions[i]` receives the payload of region id i. A
/// candidate is restored as a chain — the newest Full plus the later
/// Incrementals up to it, the rule CkptWriter::restore_latest and
/// compaction use: walking back from the candidate in commit order, each
/// region is read from its newest copy only (older copies are skipped
/// unread, see RegionSink), and the walk stops once every region is
/// filled. Each record's ids must be in range and of their span's size,
/// each once, and every payload read must verify its CRC in place.
/// Anything else rejects the candidate and the walk falls back to the
/// next-older one: a torn, truncated or corrupt copy that is needed, a
/// different region layout, or a chain that reaches a record other than
/// an Incremental (a Full) or the oldest record with regions still
/// unfilled. A damaged copy that a newer record supersedes blocks nothing,
/// and a store of complete Fulls restores its newest intact one. If the
/// store's records change under the walk (a concurrent compaction folded
/// the chain) and nothing restored, the walk starts over on the new list.
/// Returns the candidate's meta, or nullopt when nothing restores — the
/// spans then hold unspecified bytes (pieces of rejected snapshots), so the
/// caller must rewrite them. Never writes outside the spans.
[[nodiscard]] std::optional<SnapshotMeta> restore_latest_into(
    const StorageBackend& backend,
    std::span<const std::span<std::byte>> regions);

/// Backend factory from a storage spec:
///
///   memory                 in-RAM snapshots
///   log:DIR[?shards=N&flush=0|1&compact=K]
///                          sharded append-only changelog under DIR
///                          (default 8 shards; flush=0 skips per-commit
///                          fdatasync, compact=K runs background compaction
///                          every K commits)
///
/// Option separators may be ',' or '&' interchangeably. The backend is
/// returned open()ed. Unknown schemes, unknown options and malformed values
/// throw common::precondition_error before anything is created.
[[nodiscard]] std::unique_ptr<StorageBackend> make_backend(
    std::string_view spec);

// --- concrete backends (constructible directly; make_backend wraps these) --

class MemoryBackend final : public StorageBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "memory";
  }
  void open() override {}
  [[nodiscard]] ReadResult read_regions(CkptId id,
                                        const RegionSink& sink) const override;
  [[nodiscard]] std::vector<SnapshotMeta> list() const override;
  void drop(CkptId id) override;
  /// Streams straight into the stored blob's region payloads.
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta& meta, std::vector<RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override;

  /// Bytes currently held (payloads only), for store-size accounting.
  [[nodiscard]] std::size_t stored_bytes() const noexcept;

 private:
  class Session;
  std::vector<SnapshotBlob> snapshots_;  // commit order
};

}  // namespace abftc::ckpt::io
