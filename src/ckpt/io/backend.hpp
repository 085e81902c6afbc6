#pragma once
/// \file backend.hpp
/// The checkpoint I/O subsystem: snapshots behind a pluggable StorageBackend.
///
/// ckpt::StorageModel *predicts* C/R from assumed bandwidths; this layer
/// *performs* the I/O so the Section V-C hypotheses (remote-PFS vs scalable
/// in-node storage, Figs 8–10) can be anchored in measured checkpoint costs.
/// Four backends implement the same contract:
///
///  * MemoryBackend — snapshots held in RAM (the composite runtime's store);
///    zero durability, memcpy speed.
///  * FileBackend   — one file per snapshot plus a small manifest; fsync on
///    commit, O_DIRECT optional (falls back to buffered I/O where the
///    filesystem refuses it, e.g. tmpfs).
///  * MmapBackend   — a preallocated mmap'd arena with a slot table; msync
///    on commit. Bump allocation: drop() frees the slot; space is reclaimed
///    when the dropped snapshot was the newest or the arena empties.
///  * LogBackend    — sharded append-only changelog segments with CRC-framed
///    records, background compaction and an optional io_uring submission
///    path (log_backend.hpp). The one backend built for concurrent
///    committers.
///
/// Writes are two-phase everywhere: payload first, then the commit record
/// (manifest entry / committed flag / framed trailer) — a crash mid-write
/// leaves a torn snapshot that readers reject instead of half-restoring.
///
/// Backends are deliberately *not* thread-safe: one CkptWriter drives one
/// backend (coordinated checkpoints serialize commits by construction).
/// Parallelism lives above, in the writer's copy/CRC/write pipeline. The
/// log backend opts out via concurrent_committers() — its commit path is
/// internally locked per shard, so independent writers may share it.

#include <cstddef>
#include <cstdint>
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
/// (uncommitted) snapshot, truncated file, CRC mismatch, arena exhausted.
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

/// Pluggable snapshot storage. See the file comment for the four
/// implementations and make_backend() for the `--storage=` spec syntax.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Backend kind: "memory", "file", "mmap", "log".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when independent threads may each drive their own WriteSession
  /// concurrently (commits are internally synchronized). Callers running
  /// multiple committers against a false backend must serialize externally.
  [[nodiscard]] virtual bool concurrent_committers() const noexcept {
    return false;
  }

  /// Attach to the target: create the directory/arena on first use, load
  /// any existing manifest/slot table after a restart. Idempotent (a
  /// re-open rescans persistent state). make_backend() calls this.
  virtual void open() = 0;

  /// Persist a complete snapshot; durable (fsync/msync'd) on return.
  /// Rejects duplicate ids. The default implementation streams the blob
  /// through begin_snapshot() — the one write primitive a backend must
  /// provide — so blob and streaming writes cannot diverge.
  virtual void write_snapshot(const SnapshotBlob& blob);

  /// Read a snapshot back. Structural integrity (magic, committed flag,
  /// sizes) is checked here; payload CRC verification is the reader's job
  /// (SnapshotBlob::verify), so the hash pass isn't paid twice.
  [[nodiscard]] virtual SnapshotBlob read_snapshot(CkptId id) const = 0;

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

/// Backend factory from a storage spec:
///
///   memory                 in-RAM snapshots
///   file:DIR[?direct=1]    one file per snapshot under DIR (+ MANIFEST)
///   mmap:PATH[?mb=N]       preallocated arena file (default 256 MiB)
///   log:DIR[?shards=N&uring=1&flush=0&compact=K]
///                          sharded append-only changelog under DIR
///                          (default 8 shards; uring=1 opts into io_uring
///                          submission, flush=0 skips per-commit fdatasync,
///                          compact=K runs background compaction every K
///                          commits)
///
/// Option separators may be ',' or '&' interchangeably. The backend is
/// returned open()ed. Unknown schemes / malformed specs throw
/// common::precondition_error.
[[nodiscard]] std::unique_ptr<StorageBackend> make_backend(
    std::string_view spec);

// --- concrete backends (constructible directly; make_backend wraps these) --

class MemoryBackend final : public StorageBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "memory";
  }
  void open() override {}
  [[nodiscard]] SnapshotBlob read_snapshot(CkptId id) const override;
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

class FileBackend final : public StorageBackend {
 public:
  struct Options {
    /// Open payload files with O_DIRECT (page-cache bypass, 4 KiB-aligned
    /// bounce writes). Falls back to buffered I/O when the filesystem
    /// rejects it (tmpfs does); direct_active() tells which happened.
    bool direct = false;
  };

  explicit FileBackend(std::string directory);
  FileBackend(std::string directory, Options opts);
  ~FileBackend() override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "file";
  }
  void open() override;
  [[nodiscard]] SnapshotBlob read_snapshot(CkptId id) const override;
  [[nodiscard]] std::vector<SnapshotMeta> list() const override;
  void drop(CkptId id) override;
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta& meta, std::vector<RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override;

  /// True when the last payload file was actually written with O_DIRECT.
  [[nodiscard]] bool direct_active() const noexcept { return direct_active_; }
  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

 private:
  class Session;
  [[nodiscard]] std::string snapshot_path(CkptId id) const;
  void rewrite_manifest() const;
  void record_commit(const SnapshotMeta& meta);

  std::string dir_;
  Options opts_;
  bool direct_active_ = false;
  std::vector<SnapshotMeta> manifest_;  // commit order
};

class MmapBackend final : public StorageBackend {
 public:
  static constexpr std::size_t kDefaultCapacity = 256ull << 20;  // 256 MiB

  explicit MmapBackend(std::string path,
                       std::size_t capacity_bytes = kDefaultCapacity);
  ~MmapBackend() override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "mmap";
  }
  void open() override;
  [[nodiscard]] SnapshotBlob read_snapshot(CkptId id) const override;
  [[nodiscard]] std::vector<SnapshotMeta> list() const override;
  void drop(CkptId id) override;
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta& meta, std::vector<RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Arena bytes past the bump cursor still available for payloads.
  [[nodiscard]] std::size_t free_bytes() const noexcept;

 private:
  class Session;
  struct Arena;  // the mapped layout (header + slots + data)
  void close_map() noexcept;
  [[nodiscard]] Arena* arena() const;

  std::string path_;
  std::size_t capacity_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
};

}  // namespace abftc::ckpt::io
