#include "ckpt/io/writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <optional>

#include "ckpt/io/compaction.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"

namespace abftc::ckpt::io {

namespace {

std::vector<RegionId> select_regions(const MemoryImage& image,
                                     std::optional<RegionClass> cls,
                                     bool dirty_only) {
  std::vector<RegionId> out;
  for (RegionId id = 0; id < image.region_count(); ++id) {
    const auto& info = image.info(id);
    if (cls && info.cls != *cls) continue;
    if (dirty_only && !info.dirty) continue;
    out.push_back(id);
  }
  return out;
}

std::optional<SnapshotMeta> find_meta(const std::vector<SnapshotMeta>& metas,
                                      CkptId id) {
  for (const SnapshotMeta& m : metas)
    if (m.id == id) return m;
  return std::nullopt;
}

}  // namespace

void commit_snapshot(StorageBackend& backend, SnapshotMeta meta,
                     std::span<const RegionSpan> regions,
                     const WriterOptions& opts) {
  std::vector<RegionId> ids;
  std::vector<std::uint64_t> sizes;
  ids.reserve(regions.size());
  sizes.reserve(regions.size());
  meta.bytes = 0;
  for (const RegionSpan& r : regions) {
    ids.push_back(r.id);
    sizes.push_back(r.bytes.size());
    meta.bytes += r.bytes.size();
  }
  const auto session =
      backend.begin_snapshot(meta, std::move(ids), std::move(sizes));
  std::vector<std::uint32_t> crcs(regions.size());
  const auto hash = [regions, &crcs] {
    for (std::size_t r = 0; r < regions.size(); ++r)
      crcs[r] = common::crc32(regions[r].bytes);
  };
  // The payload is one stream, so regions whose bytes are adjacent in
  // memory (a dist snapshot's matrix and accumulators share one arena
  // span) go out as one append: same record bytes, fewer backend calls.
  const auto append = [regions, &session] {
    std::span<const std::byte> run;
    for (const RegionSpan& r : regions) {
      if (!run.empty() && run.data() + run.size() == r.bytes.data()) {
        run = {run.data(), run.size() + r.bytes.size()};
        continue;
      }
      if (!run.empty()) session->append(run);
      run = r.bytes;
    }
    if (!run.empty()) session->append(run);
  };

  // Inside a parallel region the pool may have no free worker to run the
  // hashing task, and blocking on its future there can deadlock (unlike
  // parallel_for, submit() has no caller-participates fallback).
  if (!opts.async || meta.bytes <= opts.chunk_bytes ||
      common::Executor::inside_parallel_region()) {
    hash();
    append();
  } else {
    common::Executor& ex = opts.executor != nullptr
                               ? *opts.executor
                               : common::Executor::global();
    std::future<void> hashed = ex.submit(hash);
    try {
      append();
    } catch (...) {
      hashed.wait();  // the task reads the regions and writes `crcs`
      throw;
    }
    hashed.get();
  }
  session->commit(crcs);
}

CkptWriter::CkptWriter(StorageBackend& backend, WriterOptions opts)
    : backend_(backend), opts_(opts) {
  ABFTC_REQUIRE(opts_.chunk_bytes > 0, "chunk size must be positive");
  for (const SnapshotMeta& m : backend_.list()) {
    next_id_ = std::max(next_id_, m.id + 1);
    last_when_ = std::max(last_when_, m.when);
  }
}

common::Executor& CkptWriter::executor() const {
  return opts_.executor != nullptr ? *opts_.executor
                                   : common::Executor::global();
}

CkptId CkptWriter::commit(MemoryImage& image, CkptKind kind, double when,
                          CkptId entry_link,
                          const std::vector<RegionId>& regions) {
  // Finite only: +inf would pass the ordering check below and then refuse
  // every later checkpoint.
  ABFTC_REQUIRE(std::isfinite(when), "checkpoint timestamp must be finite");
  ABFTC_REQUIRE(when >= last_when_,
                "checkpoint timestamps must be non-decreasing");
  // An empty selection (an Incremental with nothing dirty) still records a
  // snapshot: "nothing changed since the previous one".

  SnapshotMeta meta;
  meta.id = next_id_;
  meta.kind = kind;
  meta.when = when;
  meta.entry_link = entry_link;
  // The reference path (async = false) first copies every region into
  // staging, so its copy, CRC and write costs sum; the bytes and CRCs are
  // identical either way.
  std::vector<std::vector<std::byte>> staging;
  if (!opts_.async) staging.reserve(regions.size());
  std::vector<RegionSpan> spans;
  spans.reserve(regions.size());
  for (const RegionId id : regions) {
    std::span<const std::byte> bytes = image.bytes(id);
    if (!opts_.async) bytes = staging.emplace_back(bytes.begin(), bytes.end());
    spans.push_back({id, bytes});
  }
  commit_snapshot(backend_, meta, spans, opts_);

  last_when_ = when;
  return next_id_++;
}

CkptId CkptWriter::take_full(MemoryImage& image, double when) {
  ABFTC_REQUIRE(image.region_count() > 0, "image has no regions");
  const CkptId id =
      commit(image, CkptKind::Full, when, 0, select_regions(image, {}, false));
  image.clear_dirty_all();
  return id;
}

CkptId CkptWriter::take_entry(MemoryImage& image, double when) {
  ABFTC_REQUIRE(image.region_count() > 0, "image has no regions");
  return commit(image, CkptKind::Entry, when, 0,
                select_regions(image, RegionClass::Remainder, false));
}

CkptId CkptWriter::take_exit(MemoryImage& image, double when, CkptId entry) {
  const auto entry_meta = find_meta(backend_.list(), entry);
  ABFTC_REQUIRE(entry_meta.has_value(), "unknown entry checkpoint id");
  ABFTC_REQUIRE(entry_meta->kind == CkptKind::Entry,
                "take_exit must reference an Entry checkpoint");
  const auto regions = select_regions(image, RegionClass::Library, false);
  std::size_t exit_bytes = 0;
  for (const RegionId id : regions) exit_bytes += image.bytes(id).size();
  // "A split, but complete, coordinated checkpoint" (Section III-A).
  ABFTC_REQUIRE(entry_meta->bytes + exit_bytes == image.total_bytes(),
                "entry+exit checkpoints do not cover the full image");
  const CkptId id = commit(image, CkptKind::Exit, when, entry, regions);
  image.clear_dirty_all();
  return id;
}

CkptId CkptWriter::take_incremental(MemoryImage& image, double when) {
  bool has_full = false;
  for (const SnapshotMeta& m : backend_.list())
    has_full |= m.kind == CkptKind::Full;
  ABFTC_REQUIRE(has_full, "incremental checkpoint requires a Full base");
  const CkptId id = commit(image, CkptKind::Incremental, when, 0,
                           select_regions(image, {}, true));
  image.clear_dirty_all();
  return id;
}

bool CkptWriter::has_restore_point() const {
  for (const SnapshotMeta& m : backend_.list())
    if (m.kind == CkptKind::Full || m.kind == CkptKind::Exit) return true;
  return false;
}

void CkptWriter::apply(const SnapshotBlob& blob, MemoryImage& image,
                       RestoreReport& report, std::optional<RegionClass> only) {
  for (const RegionBlob& r : blob.regions) {
    if (only && image.info(r.region).cls != *only) continue;
    auto dst = image.mutable_bytes(r.region);
    std::memcpy(dst.data(), r.payload.data(), r.payload.size());
    report.bytes_restored += r.payload.size();
  }
  report.applied.push_back(blob.meta.id);
}

RestoreReport CkptWriter::restore_latest(MemoryImage& image) const {
  const auto metas = backend_.list();
  // Newest complete protection point, scanning backwards.
  std::optional<std::size_t> point;
  for (std::size_t i = metas.size(); i-- > 0;) {
    if (metas[i].kind == CkptKind::Full || metas[i].kind == CkptKind::Exit) {
      point = i;
      break;
    }
  }
  ABFTC_REQUIRE(point.has_value(), "no complete checkpoint to restore from");

  RestoreReport report;
  report.from_when = metas[*point].when;
  std::vector<CkptId> plan;
  if (metas[*point].kind == CkptKind::Full) {
    plan.push_back(metas[*point].id);
    for (std::size_t i = *point + 1; i < metas.size(); ++i)
      if (metas[i].kind == CkptKind::Incremental) {
        plan.push_back(metas[i].id);
        report.from_when = metas[i].when;
      }
  } else {  // Exit: its Entry (remainder) first, then the Exit (library)
    plan.push_back(metas[*point].entry_link);
    plan.push_back(metas[*point].id);
  }

  for (const SnapshotBlob& blob : read_verified(plan, image))
    apply(blob, image, report);
  image.clear_dirty_all();
  return report;
}

std::vector<SnapshotBlob> CkptWriter::read_verified(
    const std::vector<CkptId>& plan, const MemoryImage& image) const {
  // Read + verify everything before mutating the image: a torn/corrupted
  // snapshot must not leave a half-restored application state behind.
  std::vector<SnapshotBlob> blobs;
  blobs.reserve(plan.size());
  for (const CkptId id : plan) blobs.push_back(backend_.read_snapshot(id));
  for (const SnapshotBlob& blob : blobs) {
    std::uint64_t total = 0;
    for (const RegionBlob& r : blob.regions) {
      ABFTC_REQUIRE(r.region < image.region_count(),
                    "snapshot references a region the image does not have");
      if (image.bytes(r.region).size() != r.payload.size())
        throw io_error("region size changed since the checkpoint was taken");
      total += r.payload.size();
    }
    if (total != blob.meta.bytes)
      throw io_error("snapshot payload does not match its metadata");
  }
  if (common::Executor::inside_parallel_region()) {
    // Arena tasks only run on pool workers; from parallel code, waiting on
    // them can deadlock — verify inline instead.
    for (const SnapshotBlob& blob : blobs) blob.verify();
  } else {
    // End-to-end CRC verification, one pool task per snapshot.
    common::Executor::ScopedArena arena(executor());
    for (const SnapshotBlob& blob : blobs)
      arena.submit([&blob] { blob.verify(); });
    arena.wait();  // rethrows the first io_error
  }
  return blobs;
}

RestoreReport CkptWriter::restore_remainder(MemoryImage& image) const {
  // Newest snapshot that holds the REMAINDER dataset: an Entry or a Full.
  const auto metas = backend_.list();
  const auto source =
      std::find_if(metas.rbegin(), metas.rend(), [](const SnapshotMeta& m) {
        return m.kind == CkptKind::Entry || m.kind == CkptKind::Full;
      });
  ABFTC_REQUIRE(source != metas.rend(),
                "no checkpoint containing the REMAINDER dataset");

  RestoreReport report;
  report.from_when = source->when;
  // A Full's LIBRARY copies are verified too, though never applied: a
  // snapshot that fails its CRCs anywhere is not trusted anywhere.
  apply(read_verified({source->id}, image).front(), image, report,
        RegionClass::Remainder);
  return report;
}

void CkptWriter::compact() {
  const auto metas = backend_.list();
  std::vector<compact::LiveRecord> live;
  live.reserve(metas.size());
  for (std::size_t i = 0; i < metas.size(); ++i) {
    compact::LiveRecord& r = live.emplace_back();
    r.seq = i;
    r.meta = metas[i];
    try {
      backend_.read_snapshot(metas[i].id).verify();
      r.verified = true;
    } catch (const io_error&) {
      r.verified = false;  // no region detail: it blocks its chains
    }
  }
  for (const std::uint64_t seq : compact::plan_compaction(live).drop)
    backend_.drop(metas[seq].id);
}

}  // namespace abftc::ckpt::io
