#pragma once
/// \file log_backend.hpp
/// LogBackend: an append-only changelog checkpoint store.
///
/// The one persistent backend. It appends self-describing records to one
/// chain of segment files (`wal_0_<gen>.log`) and needs no manifest at all:
/// commit = append + flush + sequence advance. One writer lock is held by a
/// WriteSession from begin to commit and by drop(); it orders the one
/// committer against the background compaction pass, the store's only
/// concurrency.
///
/// Record framing (all integers little-endian, 8-byte alignment):
///
///   RecordHeader 72 B   magic, type (snapshot/tombstone), meta, seq,
///                       header CRC
///   RegionEntry  24 B × region_count, then table CRC + pad (8 B)
///   payload      —      regions concatenated, zero-padded to 8 B
///   trailer       8 B   record CRC (table ∥ payload), trailer magic
///
/// Recovery is a scan, not a manifest load: open() walks every segment —
/// every `wal_<k>_<gen>.log` and `frozen_<gen>.log`, so stores whose
/// segments came from several writers still replay — keeps records whose
/// framing and CRCs hold, and discards exactly the torn suffix of each wal
/// segment (a record whose framing never completed, or a tail record whose
/// payload CRC does not match — the shape an unacknowledged commit leaves).
/// A *mid-file* record with a bad payload is kept: its commit was
/// acknowledged, so the damage is corruption, and readers reject it at
/// verify time (latest_restorable falls back past it).
/// drop() appends a tombstone record; replay applies tombstones in sequence
/// order. A reopened store appends to a fresh segment, never to one it
/// recovered.
///
/// Compaction (compaction.hpp) periodically rolls the writable segment,
/// folds the live Full + Incremental chain into one equivalent Full in a
/// fresh `frozen_<gen>.log`, and unlinks segments no live record references
/// — so `ckpt_every` campaigns replay a bounded log suffix instead of an
/// unbounded incremental history. Passes run on Executor::submit when
/// Options::compact_every > 0, or on demand via compact_now(). A crash
/// between the frozen segment's rename and the old segments' unlink leaves
/// duplicate records; the scan dedupes by sequence number (highest
/// generation wins), so recovery is unaffected.
///
/// Writes: each payload chunk is one pwrite at its final offset; the header
/// and trailer are written at commit, then one fdatasync (Options::flush).

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/io/backend.hpp"
#include "ckpt/io/compaction.hpp"

namespace abftc::common {
class Executor;  // defined in common/executor.hpp
}

namespace abftc::ckpt::io {

class LogBackend final : public StorageBackend {
 public:
  struct Options {
    /// fdatasync each commit (and tombstone). false trades durability of
    /// the last few records for commit latency: a crash can tear several
    /// tail records instead of at most one.
    bool flush = true;
    /// Run a background compaction pass every N commits (0 = only via
    /// compact_now()).
    unsigned compact_every = 0;
    /// Pool for background passes; nullptr = common::Executor::global().
    common::Executor* executor = nullptr;
  };

  explicit LogBackend(std::string directory);
  LogBackend(std::string directory, Options opts);
  ~LogBackend() override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "log";
  }
  void open() override;
  [[nodiscard]] ReadResult read_regions(CkptId id,
                                        const RegionSink& sink) const override;
  [[nodiscard]] std::vector<SnapshotMeta> list() const override;
  void drop(CkptId id) override;
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta& meta, std::vector<RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override;

  /// Run one compaction pass synchronously; returns the cumulative stats.
  /// Safe to call while a commit is in flight (the committer blocks only
  /// for the brief segment roll, not for the rewrite).
  CompactionStats compact_now();
  /// Block until a background pass queued by maybe_compact() finished.
  void wait_for_compaction();
  [[nodiscard]] CompactionStats compaction_stats() const;

  /// Framed bytes of live (listed) records — what a full rewrite would keep.
  [[nodiscard]] std::uint64_t live_bytes() const;
  /// Bytes across all segment files on disk (live + superseded + torn).
  [[nodiscard]] std::uint64_t segment_bytes() const;
  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

 private:
  class Session;

  /// Where a committed record lives. `meta` is duplicated here so list()
  /// and the compaction planner never touch the disk.
  struct RecordLoc {
    std::string file;
    std::uint64_t offset = 0;        ///< record (header) start
    std::uint64_t record_bytes = 0;  ///< full framed length
    SnapshotMeta meta;
  };

  /// Open a fresh segment if none is writable (after open() or a
  /// compaction roll). Requires write_m_.
  void ensure_writable();
  /// Post-commit hook (no locks held): queue a background pass when
  /// compact_every commits accumulated.
  void maybe_compact();

  /// The read primitive over one record: validate its framing and region
  /// table, then read each region into the sink's span (payload CRCs are
  /// the caller's). Opens its own fd; the caller must guarantee the file
  /// outlives the call (hold index_m_, or be the compaction pass, which is
  /// the only deleter).
  [[nodiscard]] ReadResult read_record_into(const RecordLoc& loc,
                                            const RegionSink& sink) const;
  /// read_record_into with the allocating sink (compaction's reads).
  [[nodiscard]] SnapshotBlob read_record(const RecordLoc& loc) const;
  /// Serialize a snapshot as one framed record (compaction's fold output).
  [[nodiscard]] static std::vector<std::byte> encode_record(
      const SnapshotBlob& blob, std::uint64_t seq);

  std::string dir_;
  Options opts_;

  /// The writer lock: held by a Session from begin to commit, by drop()
  /// and by compaction's segment roll. Guards the writable segment and the
  /// seq/gen counters below.
  std::mutex write_m_;
  int fd_ = -1;            ///< writable wal fd; -1 until the first append
  std::string path_;       ///< its path
  std::uint64_t tail_ = 0; ///< append offset (committed bytes)
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_gen_ = 1;

  /// Guards the index (order_/by_id_) and stats_. Lock order: write_m_ may
  /// be held when taking index_m_, never the reverse.
  mutable std::mutex index_m_;
  std::map<std::uint64_t, RecordLoc> order_;  ///< seq → record, commit order
  std::unordered_map<CkptId, std::uint64_t> by_id_;
  CompactionStats stats_;

  std::mutex compact_m_;  ///< serializes whole passes
  std::atomic<bool> compact_pending_{false};
  std::atomic<std::uint64_t> commits_since_compact_{0};
  std::mutex compact_future_m_;
  std::future<void> compact_future_;
};

}  // namespace abftc::ckpt::io
