/// \file compaction.cpp
/// The log backend's compaction pass: plan (pure, compaction.hpp), then a
/// four-phase rewrite — roll the shards, verify + plan offline, write the
/// frozen segment, publish and unlink. Committers only block for phase 1;
/// the expensive verification and rewrite run without any backend lock.

#include "ckpt/io/compaction.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/io/detail.hpp"
#include "ckpt/io/log_backend.hpp"
#include "ckpt/io/log_format.hpp"
#include "common/crc32.hpp"

namespace abftc::ckpt::io {

namespace fs = std::filesystem;

using detail::FdGuard;
using detail::fsync_dir_best_effort;
using detail::fsync_or_throw;
using detail::pread_all;
using detail::pwrite_all;
using detail::sys_error;

namespace compact {

CompactionPlan plan_compaction(const std::vector<LiveRecord>& live) {
  CompactionPlan plan;

  // The newest verified protection point, mirroring restore_latest: a Full
  // needs itself plus every later Incremental intact; an Exit needs itself
  // plus its linked Entry.
  const auto chain_ok = [&](std::size_t i) {
    const LiveRecord& r = live[i];
    if (!r.verified) return false;
    if (r.meta.kind == CkptKind::Full) {
      for (std::size_t j = i + 1; j < live.size(); ++j)
        if (live[j].meta.kind == CkptKind::Incremental && !live[j].verified)
          return false;
      return true;
    }
    if (r.meta.kind == CkptKind::Exit) {
      for (const LiveRecord& e : live)
        if (e.meta.id == r.meta.entry_link)
          return e.verified;
      return false;
    }
    return false;
  };

  std::size_t base = live.size();
  for (std::size_t i = live.size(); i-- > 0;) {
    const CkptKind k = live[i].meta.kind;
    if ((k == CkptKind::Full || k == CkptKind::Exit) && chain_ok(i)) {
      base = i;
      break;
    }
  }
  if (base == live.size()) {
    // Nothing restorable verified: never discard what latest_restorable()
    // might still salvage.
    for (const LiveRecord& r : live) plan.carry.push_back(r.seq);
    return plan;
  }

  // Keep the base and everything after it, plus the Entry of any kept Exit
  // (restore of an Exit reads its Entry, whatever its age).
  std::set<std::uint64_t> keep;
  std::unordered_map<CkptId, std::uint64_t> seq_of;
  for (const LiveRecord& r : live) seq_of[r.meta.id] = r.seq;
  for (std::size_t i = base; i < live.size(); ++i) {
    keep.insert(live[i].seq);
    if (live[i].meta.kind == CkptKind::Exit) {
      const auto it = seq_of.find(live[i].meta.entry_link);
      if (it != seq_of.end()) keep.insert(it->second);
    }
  }
  for (const LiveRecord& r : live)
    if (!keep.contains(r.seq)) plan.drop.push_back(r.seq);

  // Fold only the clean shape: a Full base whose entire suffix is verified
  // Incrementals. Any interleaved Entry/Exit/Full keeps the records apart —
  // correctness first, the next pass gets another chance.
  bool foldable = live[base].meta.kind == CkptKind::Full &&
                  base + 1 < live.size();
  for (std::size_t i = base + 1; foldable && i < live.size(); ++i)
    if (live[i].meta.kind != CkptKind::Incremental || !live[i].verified)
      foldable = false;
  if (foldable) {
    for (std::size_t i = base; i < live.size(); ++i)
      plan.fold.push_back(live[i].seq);
    for (const std::uint64_t s : keep)
      if (!std::binary_search(plan.fold.begin(), plan.fold.end(), s))
        plan.carry.push_back(s);
  } else {
    plan.carry.assign(keep.begin(), keep.end());
  }
  return plan;
}

}  // namespace compact

namespace {

/// Fold a Full + Incrementals chain (oldest first, as read back) into the
/// equivalent Full: later payloads override by region id, regions keep the
/// base's order, regions first seen in an incremental append in encounter
/// order. This is restore composition run at rest.
SnapshotBlob merge_chain(std::vector<SnapshotBlob> chain) {
  SnapshotBlob out = std::move(chain.front());
  std::unordered_map<RegionId, std::size_t> slot;
  for (std::size_t i = 0; i < out.regions.size(); ++i)
    slot[out.regions[i].region] = i;
  for (std::size_t c = 1; c < chain.size(); ++c) {
    for (RegionBlob& r : chain[c].regions) {
      const auto it = slot.find(r.region);
      if (it != slot.end()) {
        out.regions[it->second] = std::move(r);
      } else {
        slot[r.region] = out.regions.size();
        out.regions.push_back(std::move(r));
      }
    }
  }
  const SnapshotMeta& newest = chain.back().meta;
  out.meta.id = newest.id;
  out.meta.when = newest.when;
  out.meta.kind = CkptKind::Full;
  out.meta.entry_link = 0;
  out.meta.bytes = 0;
  for (const RegionBlob& r : out.regions) out.meta.bytes += r.payload.size();
  return out;
}

/// All segment files currently in `dir` (absolute paths).
std::set<std::string> segment_files(const std::string& dir) {
  std::set<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if ((name.starts_with("wal_") || name.starts_with("frozen_")) &&
        name.ends_with(".log"))
      out.insert(entry.path().string());
  }
  return out;
}

struct ClearOnExit {
  std::atomic<bool>& flag;
  ~ClearOnExit() { flag.store(false); }
};

}  // namespace

CompactionStats LogBackend::compact_now() {
  // One pass at a time; compact_pending_ re-arms maybe_compact() whenever
  // this frame exits, success or throw.
  std::lock_guard pass(compact_m_);
  ClearOnExit rearm{compact_pending_};

  // --- Phase 1: roll every shard and snapshot the live set --------------
  // All shard locks (ascending index — the only multi-shard acquisition in
  // the backend, so unordered Sessions cannot deadlock against it), then
  // the index lock, per the shard→index order.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (const auto& s : shards_) shard_locks.emplace_back(s->m);

  std::vector<std::pair<std::uint64_t, RecordLoc>> live;
  std::uint64_t frozen_gen = 0;
  std::set<std::string> before;
  {
    std::lock_guard idx(index_m_);
    for (const auto& s : shards_) {
      if (s->fd >= 0) ::close(s->fd);
      s->fd = -1;
      s->path.clear();
      s->gen = 0;
      s->tail = 0;
    }
    live.reserve(order_.size());
    for (const auto& [seq, loc] : order_) live.emplace_back(seq, loc);
    frozen_gen = next_gen_++;
    // Exact while the shard locks pin every writer: no new segment can
    // appear until phase 1 ends, and records only move *into* the frozen
    // segment we are about to write.
    before = segment_files(dir_);
  }
  for (auto& l : shard_locks) l.unlock();

  // --- Phase 2: verify and plan (no locks) ------------------------------
  // The records in `live` sit in rolled (no longer written) or frozen
  // segments; only this pass ever unlinks those, and passes are serialized
  // by compact_m_, so lock-free reads are safe.
  std::vector<compact::LiveRecord> planned;
  planned.reserve(live.size());
  for (const auto& [seq, loc] : live) {
    compact::LiveRecord r;
    r.seq = seq;
    r.meta = loc.meta;
    try {
      read_record(loc).verify();
      r.verified = true;
    } catch (const io_error&) {
      r.verified = false;  // reject at restore, carry as-is here
    }
    planned.push_back(r);
  }
  const compact::CompactionPlan plan = compact::plan_compaction(planned);

  // The plan only sees *live* records, but drop() and torn recoveries also
  // leave dead bytes (superseded records, tombstones) in the segments: the
  // rewrite is worthwhile whenever the on-disk bytes exceed the live framed
  // bytes plus one header per file. After a rewrite the frozen segment is
  // exactly live-sized, so this criterion self-quiesces.
  std::uint64_t before_bytes = 0;
  for (const std::string& path : before) {
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0)
      before_bytes += static_cast<std::uint64_t>(st.st_size);
  }
  std::uint64_t live_framed = 0;
  for (const auto& [seq, loc] : live) live_framed += loc.record_bytes;
  const bool reclaimable =
      before_bytes >
      live_framed + before.size() * sizeof(logf::SegmentHeader);

  if (plan.drop.empty() && plan.fold.empty() && !reclaimable) {
    std::lock_guard idx(index_m_);
    ++stats_.passes;
    return stats_;
  }

  // --- Phase 3: write the frozen segment (no locks) ---------------------
  std::unordered_map<std::uint64_t, const RecordLoc*> loc_of;
  for (const auto& [seq, loc] : live) loc_of[seq] = &loc;

  const std::string frozen_path =
      dir_ + "/frozen_" + std::to_string(frozen_gen) + ".log";
  const std::string tmp_path = frozen_path + ".tmp";
  std::unordered_map<std::uint64_t, std::uint64_t> new_offset;
  std::uint64_t fold_offset = 0;
  std::uint64_t fold_length = 0;
  SnapshotMeta fold_meta;
  {
    FdGuard fd{::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
    if (fd.fd < 0) sys_error("create " + tmp_path);
    logf::SegmentHeader sh;
    sh.shard = logf::kFrozenShard;
    sh.gen = frozen_gen;
    pwrite_all(fd.fd, &sh, sizeof(sh), 0, "frozen segment header");
    std::uint64_t off = sizeof(sh);

    // Interleave carried copies and the folded record in seq order so the
    // frozen segment replays identically to the store it condenses.
    const std::uint64_t fold_seq =
        plan.fold.empty() ? 0 : plan.fold.back();
    std::vector<std::uint64_t> emit = plan.carry;
    if (fold_seq != 0) emit.push_back(fold_seq);
    std::sort(emit.begin(), emit.end());
    std::vector<std::byte> buf;
    for (const std::uint64_t seq : emit) {
      if (seq == fold_seq && !plan.fold.empty()) {
        std::vector<SnapshotBlob> chain;
        chain.reserve(plan.fold.size());
        for (const std::uint64_t m : plan.fold)
          chain.push_back(read_record(*loc_of.at(m)));
        const SnapshotBlob folded = merge_chain(std::move(chain));
        const std::vector<std::byte> rec = encode_record(folded, seq);
        pwrite_all(fd.fd, rec.data(), rec.size(), off, "folded record");
        fold_offset = off;
        fold_length = rec.size();
        fold_meta = folded.meta;
        off += rec.size();
        continue;
      }
      const RecordLoc& loc = *loc_of.at(seq);
      buf.resize(loc.record_bytes);
      FdGuard src{::open(loc.file.c_str(), O_RDONLY)};
      if (src.fd < 0) sys_error("open " + loc.file);
      pread_all(src.fd, buf.data(), buf.size(), loc.offset, loc.file);
      pwrite_all(fd.fd, buf.data(), buf.size(), off, "carried record");
      new_offset[seq] = off;
      off += buf.size();
    }
    fsync_or_throw(fd.fd, "frozen segment");
  }
  if (::rename(tmp_path.c_str(), frozen_path.c_str()) != 0)
    sys_error("rename " + tmp_path);
  fsync_dir_best_effort(dir_);

  // --- Phase 4: publish and unlink (index lock) -------------------------
  CompactionStats snapshot;
  {
    std::lock_guard idx(index_m_);
    for (const auto& [seq, off] : new_offset) {
      const auto it = order_.find(seq);
      if (it == order_.end()) continue;  // dropped concurrently: skip
      it->second.file = frozen_path;
      it->second.offset = off;
    }
    if (!plan.fold.empty()) {
      // Publish the folded Full only if every member is still live — a
      // concurrent drop() of one member means the fold no longer equals
      // the surviving chain, so the members keep their old (still on
      // disk) locations and the next pass re-plans.
      const bool all_present = std::all_of(
          plan.fold.begin(), plan.fold.end(),
          [&](std::uint64_t s) { return order_.contains(s); });
      if (all_present) {
        const std::uint64_t target = plan.fold.back();
        for (const std::uint64_t m : plan.fold) {
          if (m == target) continue;
          by_id_.erase(order_.at(m).meta.id);
          order_.erase(m);
        }
        order_[target] =
            RecordLoc{frozen_path, fold_offset, fold_length, fold_meta};
        stats_.records_folded += plan.fold.size();
      }
    }
    for (const std::uint64_t seq : plan.drop) {
      const auto it = order_.find(seq);
      if (it == order_.end()) continue;
      by_id_.erase(it->second.meta.id);
      order_.erase(it);
      ++stats_.records_dropped;
    }
    ++stats_.passes;

    // Unlink exactly the segments that existed at roll time and are no
    // longer referenced by any live record. Inside the index lock so a
    // reader holding it can never see its file vanish mid-read.
    std::unordered_set<std::string> referenced;
    for (const auto& [seq, loc] : order_) referenced.insert(loc.file);
    for (const std::string& path : before) {
      if (referenced.contains(path)) continue;
      struct stat st {};
      if (::stat(path.c_str(), &st) == 0)
        stats_.bytes_reclaimed += static_cast<std::uint64_t>(st.st_size);
      if (::unlink(path.c_str()) == 0) ++stats_.segments_deleted;
    }
    snapshot = stats_;
  }
  return snapshot;
}

}  // namespace abftc::ckpt::io
