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
  // Finite only: the file backend serializes `when` into its manifest, and
  // a non-finite value would render as `null` and poison every later open.
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
  std::vector<std::uint64_t> sizes;
  sizes.reserve(regions.size());
  for (const RegionId id : regions) {
    sizes.push_back(image.bytes(id).size());
    meta.bytes += sizes.back();
  }
  auto session = backend_.begin_snapshot(meta, regions, sizes);
  std::vector<std::uint32_t> crcs(regions.size());

  // Inside a parallel region the pool may have no free worker to run the
  // CRC tasks, and blocking on futures there can deadlock (unlike
  // parallel_for, submit() has no caller-participates fallback) — commits
  // issued from parallel code run the serial path instead.
  const bool async =
      opts_.async && !common::Executor::inside_parallel_region();
  if (!async) {
    // Reference path: whole-region copy, then the CRC pass, then the write —
    // the costs sum. Bytes and CRCs are identical to the pipeline below.
    std::vector<std::byte> staging;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const auto src = image.bytes(regions[r]);
      staging.resize(src.size());
      std::memcpy(staging.data(), src.data(), src.size());
      common::Crc32 acc;
      for (std::size_t off = 0; off < staging.size();
           off += opts_.chunk_bytes)
        acc.update(std::span(staging)
                       .subspan(off, std::min(opts_.chunk_bytes,
                                              staging.size() - off)));
      crcs[r] = acc.value();
      session->append(std::span(staging));
    }
    session->commit(crcs);
  } else {
    // The pipeline: regions flattened into fixed chunks, each read straight
    // from the image. Per chunk a pool task CRCs the span while the caller
    // hands the same span to the backend. No staging copy is needed: the
    // image is caller-owned and outlives this synchronous commit, and every
    // backend that keeps bytes past append() copies them.
    struct Chunk {
      std::size_t region;  // index into `regions`
      std::span<const std::byte> bytes;
    };
    std::vector<Chunk> chunks;
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const auto src = image.bytes(regions[r]);
      for (std::size_t off = 0; off < src.size(); off += opts_.chunk_bytes)
        chunks.push_back(
            {r, src.subspan(off, std::min(opts_.chunk_bytes,
                                          src.size() - off))});
    }

    std::vector<std::future<std::uint32_t>> futs(chunks.size());
    std::vector<std::uint32_t> chunk_crcs(chunks.size());
    common::Executor& ex = executor();

    // Outstanding CRC tasks read the image; never unwind past them.
    const auto drain = [&] {
      for (auto& f : futs)
        if (f.valid()) f.wait();
    };
    try {
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        futs[i] = ex.submit(
            [bytes = chunks[i].bytes] { return common::crc32(bytes); });
        session->append(chunks[i].bytes);
      }
      for (std::size_t i = 0; i < chunks.size(); ++i)
        chunk_crcs[i] = futs[i].get();
    } catch (...) {
      drain();
      throw;
    }

    // Fold the chunk CRCs per region, in chunk order.
    std::vector<common::Crc32Chunks> folds(regions.size());
    for (std::size_t i = 0; i < chunks.size(); ++i)
      folds[chunks[i].region].add(chunk_crcs[i], chunks[i].bytes.size());
    for (std::size_t r = 0; r < regions.size(); ++r)
      crcs[r] = folds[r].value();
    session->commit(crcs);
  }

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
    bool verified = true;
    try {
      backend_.read_snapshot(metas[i].id).verify();
    } catch (const io_error&) {
      verified = false;
    }
    live.push_back({i, metas[i], verified});
  }
  for (const std::uint64_t seq : compact::plan_compaction(live).drop)
    backend_.drop(metas[seq].id);
}

}  // namespace abftc::ckpt::io
