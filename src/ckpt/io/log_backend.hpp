#pragma once
/// \file log_backend.hpp
/// LogBackend: an append-only, sharded changelog checkpoint store.
///
/// The one persistent backend. It appends self-describing records to N
/// shard segment files (`wal_<shard>_<gen>.log`) and needs no manifest at
/// all: commit = append + flush + sequence advance. Each commit takes a
/// free shard (its id's hashed shard if no one holds it), so up to N
/// concurrent committers never contend on an inode — this is the backend's
/// reason to exist, and the one deliberate departure from the "backends are
/// not thread-safe" rule in backend.hpp (concurrent_committers() is true;
/// committers beyond N wait on a shard lock).
///
/// Record framing (all integers little-endian, 8-byte alignment):
///
///   RecordHeader 72 B   magic, type (snapshot/tombstone), meta, seq,
///                       header CRC
///   RegionEntry  24 B × region_count, then table CRC + pad (8 B)
///   payload      —      regions concatenated, zero-padded to 8 B
///   trailer       8 B   record CRC (table ∥ payload), trailer magic
///
/// Recovery is a scan, not a manifest load: open() walks every segment,
/// keeps records whose framing and CRCs hold, and discards exactly the torn
/// suffix of each writable segment (a record whose framing never completed,
/// or a tail record whose payload CRC does not match — the shape an
/// unacknowledged commit leaves). A *mid-file* record with a bad payload is
/// kept: its commit was acknowledged, so the damage is corruption, and
/// readers reject it at verify time (latest_restorable falls back past it).
/// drop() appends a tombstone record; replay applies tombstones in sequence
/// order.
///
/// Compaction (compaction.hpp) periodically freezes the writable segments,
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
#include <unordered_set>
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
    /// Segment shards: the number of committers that append at once.
    unsigned shards = 8;
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
  [[nodiscard]] bool concurrent_committers() const noexcept override {
    return true;
  }

  /// Run one compaction pass synchronously; returns the cumulative stats.
  /// Safe to call while committers are active (they block only for the
  /// brief segment roll, not for the rewrite).
  CompactionStats compact_now();
  /// Block until a background pass queued by maybe_compact() finished.
  void wait_for_compaction();
  [[nodiscard]] CompactionStats compaction_stats() const;

  /// Framed bytes of live (listed) records — what a full rewrite would keep.
  [[nodiscard]] std::uint64_t live_bytes() const;
  /// Bytes across all segment files on disk (live + superseded + torn).
  [[nodiscard]] std::uint64_t segment_bytes() const;
  [[nodiscard]] unsigned shard_count() const noexcept {
    return opts_.shards;
  }
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

  struct Shard {
    unsigned index = 0;
    std::mutex m;  ///< held by a Session from begin to commit
    int fd = -1;   ///< writable wal fd; -1 until first append after a roll
    std::string path;
    std::uint64_t gen = 0;
    std::uint64_t tail = 0;  ///< append offset (committed bytes)
  };

  /// Lock a shard to append one record to: the id's hashed shard if it is
  /// free, else the next free one, else wait for the hashed one. The index
  /// maps an id to its file, so a record may live on any shard, and
  /// committers whose ids hash together still append in parallel.
  [[nodiscard]] Shard& lock_shard(CkptId id, std::unique_lock<std::mutex>& lock);
  /// Open (or create, after a roll) the shard's writable segment. Requires
  /// the shard lock.
  void ensure_writable(Shard& shard);
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

  /// Guards the index (order_/by_id_/in_flight_), the seq/gen counters and
  /// stats_. Lock order: a shard lock may be held when taking index_m_,
  /// never the reverse.
  mutable std::mutex index_m_;
  std::map<std::uint64_t, RecordLoc> order_;  ///< seq → record, commit order
  std::unordered_map<CkptId, std::uint64_t> by_id_;
  std::unordered_set<CkptId> in_flight_;  ///< ids with an open session
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_gen_ = 1;
  CompactionStats stats_;

  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex compact_m_;  ///< serializes whole passes
  std::atomic<bool> compact_pending_{false};
  std::atomic<std::uint64_t> commits_since_compact_{0};
  std::mutex compact_future_m_;
  std::future<void> compact_future_;
};

}  // namespace abftc::ckpt::io
