#pragma once
/// \file compaction.hpp
/// Compaction planning for the log backend: which live records a pass
/// carries, folds, or drops.
///
/// The plan mirrors the restore composition (CkptWriter::restore_latest):
/// the effective protection point is the newest Full (restored together
/// with every later Incremental) or the newest Exit (restored with its
/// linked Entry). Everything older is unreachable by any restore and can be
/// dropped; a Full-plus-Incrementals chain can further be *folded* into one
/// equivalent Full so restores replay a bounded suffix instead of the whole
/// campaign's incremental history.
///
/// Planning follows restore around damage: a chain member that cannot be
/// read, or a damaged region whose newest copy in the chain is that damaged
/// one, disqualifies the chain (a damaged copy that newer records supersede
/// is never restored, so it blocks nothing and folds away), and when no
/// chain holds at all the plan carries everything — compaction must never
/// take away a fallback that latest_restorable() could still have used.
/// The planner is a pure function over record metadata + verification
/// flags so these rules are unit-testable without a store.

#include <cstdint>
#include <vector>

#include "ckpt/io/backend.hpp"

namespace abftc::ckpt::io {

/// Totals across one backend's compaction passes (LogBackend::compact_now).
struct CompactionStats {
  std::uint64_t passes = 0;
  std::uint64_t records_folded = 0;   ///< chain members merged into a Full
  std::uint64_t records_dropped = 0;  ///< superseded records discarded
  std::uint64_t segments_deleted = 0; ///< segment files unlinked
  std::uint64_t bytes_reclaimed = 0;  ///< bytes of those files
};

namespace compact {

/// One live record as the planner sees it: position, metadata, and how its
/// payload verified (read back + per-region CRCs checked). A record that
/// could not be read at all has `verified` false and `damaged` empty.
struct LiveRecord {
  std::uint64_t seq = 0;
  SnapshotMeta meta;
  bool verified = false;          ///< read back, every region's CRC holds
  std::vector<RegionId> regions;  ///< stored region ids (when read back)
  std::vector<RegionId> damaged;  ///< those whose payload CRC failed
};

/// The pass's decision, in terms of record seqs. `fold` is either empty or
/// a Full followed by one or more Incrementals, oldest first; the folded
/// result replaces all members under the newest member's id/when/seq.
/// carry ∪ fold ∪ drop partitions the input.
struct CompactionPlan {
  std::vector<std::uint64_t> carry;
  std::vector<std::uint64_t> fold;
  std::vector<std::uint64_t> drop;
};

/// `live` must be sorted by seq ascending (the backend's list order).
[[nodiscard]] CompactionPlan plan_compaction(
    const std::vector<LiveRecord>& live);

}  // namespace compact
}  // namespace abftc::ckpt::io
