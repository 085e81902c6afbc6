// Tests for the checkpoint I/O subsystem: backend conformance
// (memory/log through one parameterized suite, including the restore
// straight into caller spans), the CkptWriter async pipeline (bitwise-equal
// to the serial reference, all checkpoint kinds, split restore composition
// across a backend reopen), the log's recovery and integrity rejection
// (corrupted payload, truncated tail, torn record), the MeasuredStorage
// calibrator, the --storage resolver, and the chunked CRC fold the writer's
// pipeline relies on.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/io/backend.hpp"
#include "ckpt/io/calibrate.hpp"
#include "ckpt/io/faulting.hpp"
#include "ckpt/io/log_backend.hpp"
#include "ckpt/io/log_format.hpp"
#include "ckpt/io/writer.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"
#include "core/measured_storage.hpp"

namespace {

using namespace abftc;
using namespace abftc::ckpt;
using namespace abftc::ckpt::io;
namespace fs = std::filesystem;

// --- helpers ----------------------------------------------------------------

/// Fresh per-test scratch directory under $TMPDIR (so CI can point the
/// whole suite at tmpfs or a real disk; older gtest TempDir() ignores it).
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string leaf = std::string("abftc_io_") + info->test_suite_name() +
                       "_" + info->name();
    // Parameterized test names contain '/', which is a path separator.
    std::replace(leaf.begin(), leaf.end(), '/', '_');
    const char* env = std::getenv("TMPDIR");
    const fs::path base = (env != nullptr && *env != '\0')
                              ? fs::path(env)
                              : fs::path(::testing::TempDir());
    path_ = base / leaf;
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  std::mt19937 rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

SnapshotBlob sample_blob(CkptId id, std::size_t bytes_a, std::size_t bytes_b) {
  SnapshotBlob blob;
  blob.meta.id = id;
  blob.meta.kind = CkptKind::Full;
  blob.meta.when = static_cast<double>(id);
  blob.meta.bytes = bytes_a + bytes_b;
  const std::pair<RegionId, std::size_t> layout[] = {{0, bytes_a},
                                                     {1, bytes_b}};
  for (const auto& [region, bytes] : layout) {
    RegionBlob r;
    r.region = region;
    r.payload = pattern_bytes(bytes, static_cast<unsigned>(id * 7 + region));
    r.crc = common::crc32(std::span(r.payload));
    blob.regions.push_back(std::move(r));
  }
  return blob;
}

/// An image over caller-owned buffers: one LIBRARY + one REMAINDER region.
struct ImageFixture {
  std::vector<std::byte> lib, rem;
  MemoryImage image;

  explicit ImageFixture(std::size_t lib_bytes = 300000,
                        std::size_t rem_bytes = 120000)
      : lib(pattern_bytes(lib_bytes, 1)), rem(pattern_bytes(rem_bytes, 2)) {
    image.add_region("lib", std::span(lib), RegionClass::Library);
    image.add_region("rem", std::span(rem), RegionClass::Remainder);
  }
};

/// The one segment of a single-shard log store.
fs::path only_segment(const fs::path& store) {
  fs::path wal;
  for (const auto& entry : fs::directory_iterator(store))
    if (entry.path().filename().string().starts_with("wal_")) {
      EXPECT_TRUE(wal.empty()) << "more than one segment in " << store;
      wal = entry.path();
    }
  EXPECT_FALSE(wal.empty()) << "no segment in " << store;
  return wal;
}

/// XOR one byte of `file` at `pos` with `mask`.
void flip_file_byte(const fs::path& file, std::streamoff pos, char mask) {
  std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.good()) << file;
  char b = 0;
  io.seekg(pos);
  io.read(&b, 1);
  b = static_cast<char>(b ^ mask);
  io.seekp(pos);
  io.write(&b, 1);
}

/// Log segment layout (log_format.hpp): a 32-byte segment header, then
/// records. A two-region record's payload starts after its 72-byte header,
/// its region table and the table CRC + pad.
constexpr std::streamoff kSegmentHeader = 32;
constexpr std::streamoff kPayloadInRecord = 72 + 2 * 24 + 8;

/// Store spec for a parameterized suite: "memory", or a log store in `tmp`.
std::string backend_spec(const std::string& kind, const TempDir& tmp) {
  if (kind == "memory") return "memory";
  return "log:" + (tmp.path() / "store").string() + "?shards=4";
}

// --- backend conformance (same suite for memory / log) ----------------------

class BackendConformance : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::string spec() const {
    return backend_spec(GetParam(), tmp_);
  }
  TempDir tmp_;
};

TEST_P(BackendConformance, RoundTripsSnapshots) {
  const auto backend = make_backend(spec());
  EXPECT_EQ(backend->name(), std::string(GetParam()));
  const SnapshotBlob blob = sample_blob(1, 70000, 30000);
  backend->write_snapshot(blob);

  const SnapshotBlob back = backend->read_snapshot(1);
  EXPECT_EQ(back.meta.id, blob.meta.id);
  EXPECT_EQ(back.meta.kind, blob.meta.kind);
  EXPECT_DOUBLE_EQ(back.meta.when, blob.meta.when);
  EXPECT_EQ(back.meta.bytes, blob.meta.bytes);
  ASSERT_EQ(back.regions.size(), blob.regions.size());
  for (std::size_t i = 0; i < back.regions.size(); ++i) {
    EXPECT_EQ(back.regions[i].region, blob.regions[i].region);
    EXPECT_EQ(back.regions[i].crc, blob.regions[i].crc);
    EXPECT_EQ(back.regions[i].payload, blob.regions[i].payload);
  }
  EXPECT_NO_THROW(back.verify());
}

TEST_P(BackendConformance, ListsInCommitOrderAndDrops) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(sample_blob(3, 1000, 500));
  backend->write_snapshot(sample_blob(1, 2000, 100));
  backend->write_snapshot(sample_blob(2, 300, 300));

  auto metas = backend->list();
  ASSERT_EQ(metas.size(), 3u);
  EXPECT_EQ(metas[0].id, 3u);  // commit order, not id order
  EXPECT_EQ(metas[1].id, 1u);
  EXPECT_EQ(metas[2].id, 2u);

  backend->drop(1);
  metas = backend->list();
  ASSERT_EQ(metas.size(), 2u);
  EXPECT_EQ(metas[0].id, 3u);
  EXPECT_EQ(metas[1].id, 2u);
  EXPECT_THROW((void)backend->read_snapshot(1), io_error);
  EXPECT_THROW(backend->drop(1), io_error);
}

TEST_P(BackendConformance, RejectsUnknownIdsAndDuplicates) {
  const auto backend = make_backend(spec());
  EXPECT_THROW((void)backend->read_snapshot(42), io_error);
  backend->write_snapshot(sample_blob(7, 100, 100));
  EXPECT_THROW(backend->write_snapshot(sample_blob(7, 100, 100)),
               common::precondition_error);
}

TEST_P(BackendConformance, StreamingSessionMatchesBlobWrite) {
  const auto backend = make_backend(spec());
  const SnapshotBlob blob = sample_blob(5, 50000, 20000);
  auto session = backend->begin_snapshot(
      blob.meta, {blob.regions[0].region, blob.regions[1].region},
      {blob.regions[0].payload.size(), blob.regions[1].payload.size()});
  // Append in deliberately awkward chunk sizes.
  for (const RegionBlob& r : blob.regions) {
    std::span<const std::byte> rest(r.payload);
    while (!rest.empty()) {
      const std::size_t take = std::min<std::size_t>(rest.size(), 7777);
      session->append(rest.first(take));
      rest = rest.subspan(take);
    }
  }
  session->commit({blob.regions[0].crc, blob.regions[1].crc});

  const SnapshotBlob back = backend->read_snapshot(5);
  EXPECT_EQ(back.regions[0].payload, blob.regions[0].payload);
  EXPECT_EQ(back.regions[1].payload, blob.regions[1].payload);
  EXPECT_NO_THROW(back.verify());
}

TEST_P(BackendConformance, AbandonedSessionLeavesNoSnapshot) {
  const auto backend = make_backend(spec());
  {
    auto session = backend->begin_snapshot(
        SnapshotMeta{9, CkptKind::Full, 1.0, 0, 1000}, {0}, {1000});
    const auto junk = pattern_bytes(500, 3);
    session->append(std::span(junk));
    // destroyed uncommitted
  }
  EXPECT_TRUE(backend->list().empty());
  EXPECT_THROW((void)backend->read_snapshot(9), io_error);
  // The backend remains fully usable afterwards.
  backend->write_snapshot(sample_blob(9, 100, 100));
  EXPECT_EQ(backend->list().size(), 1u);
}

/// Caller memory for restore_latest_into: `sizes` spans carved out of one
/// buffer with a sentinel-filled guard gap before, between and after them,
/// so a write outside any span shows up.
struct GuardedSpans {
  static constexpr std::size_t kGuard = 64;
  static constexpr std::byte kSentinel{0xA5};
  std::vector<std::byte> buf;
  std::vector<std::span<std::byte>> spans;

  explicit GuardedSpans(const std::vector<std::size_t>& sizes) {
    std::size_t total = kGuard;
    for (const std::size_t s : sizes) total += s + kGuard;
    buf.assign(total, kSentinel);
    std::size_t off = kGuard;
    for (const std::size_t s : sizes) {
      spans.emplace_back(buf.data() + off, s);
      off += s + kGuard;
    }
  }
  [[nodiscard]] bool guards_intact() const {
    std::size_t off = 0;
    for (const auto& s : spans) {
      const auto lo = static_cast<std::size_t>(s.data() - buf.data());
      for (; off < lo; ++off)
        if (buf[off] != kSentinel) return false;
      off = lo + s.size();
    }
    for (; off < buf.size(); ++off)
      if (buf[off] != kSentinel) return false;
    return true;
  }
};

TEST_P(BackendConformance, RestoreIntoSpansMatchesLatestRestorable) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(sample_blob(1, 40000, 10000));
  backend->write_snapshot(sample_blob(2, 40000, 10000));

  const auto blob = latest_restorable(*backend);
  ASSERT_TRUE(blob.has_value());
  GuardedSpans dst({40000, 10000});
  const auto meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 2u);
  EXPECT_EQ(meta->bytes, blob->meta.bytes);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(std::ranges::equal(dst.spans[i], blob->regions[i].payload))
        << "region " << i;
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, RestoreIntoSpansFallsBackPastATornNewest) {
  const auto backend = make_backend(spec());
  FaultingBackend faulty(*backend, {{1, WriteFault::TornPayload}});
  const SnapshotBlob older = sample_blob(1, 90000, 5000);
  faulty.write_snapshot(older);
  faulty.write_snapshot(sample_blob(2, 90000, 5000));  // torn
  ASSERT_EQ(faulty.list().size(), 2u);

  GuardedSpans dst({90000, 5000});
  const auto meta = restore_latest_into(faulty, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 1u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(std::ranges::equal(dst.spans[i], older.regions[i].payload))
        << "region " << i;
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, RestoreIntoSpansRejectsAnotherRegionLayout) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(sample_blob(1, 4000, 1000));

  // Too many regions, too few, and one of the wrong size: none restores,
  // and nothing lands outside the spans.
  for (const std::vector<std::size_t>& sizes :
       {std::vector<std::size_t>{4000, 1000, 64},
        std::vector<std::size_t>{4000}, std::vector<std::size_t>{4000, 999},
        std::vector<std::size_t>{4001, 1000}}) {
    GuardedSpans dst(sizes);
    EXPECT_FALSE(restore_latest_into(*backend, dst.spans).has_value())
        << sizes.size() << " spans";
    EXPECT_TRUE(dst.guards_intact()) << sizes.size() << " spans";
  }

  // A newer snapshot of another layout falls back to the older one that
  // matches.
  backend->write_snapshot(sample_blob(2, 3000, 1000));
  GuardedSpans dst({4000, 1000});
  const auto meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 1u);
  EXPECT_TRUE(std::ranges::equal(dst.spans[0], sample_blob(1, 4000, 1000)
                                                   .regions[0]
                                                   .payload));
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, RestoreIntoSpansOfAnEmptyStoreGivesNothing) {
  const auto backend = make_backend(spec());
  GuardedSpans dst({4000, 1000});
  EXPECT_FALSE(restore_latest_into(*backend, dst.spans).has_value());
  EXPECT_FALSE(latest_restorable(*backend).has_value());
  EXPECT_TRUE(dst.guards_intact());
}

// --- chain restore: Full, then Incrementals of some regions ---------------

constexpr std::size_t kChainRegionBytes = 3000;

/// Record `id` of `kind` holding `regions`, each kChainRegionBytes of a
/// pattern drawn from (id, region), so every copy of a region differs.
SnapshotBlob chain_blob(CkptId id, CkptKind kind,
                        const std::vector<RegionId>& regions) {
  SnapshotBlob blob;
  blob.meta.id = id;
  blob.meta.kind = kind;
  blob.meta.when = static_cast<double>(id);
  for (const RegionId region : regions) {
    RegionBlob r;
    r.region = region;
    r.payload = pattern_bytes(kChainRegionBytes,
                              static_cast<unsigned>(id * 31 + region));
    r.crc = common::crc32(std::span(r.payload));
    blob.meta.bytes += r.payload.size();
    blob.regions.push_back(std::move(r));
  }
  return blob;
}

/// Whether span `region` holds record `id`'s copy of it.
bool holds_copy_of(const GuardedSpans& dst, RegionId region, CkptId id) {
  return std::ranges::equal(
      dst.spans[region],
      pattern_bytes(kChainRegionBytes, static_cast<unsigned>(id * 31 + region)));
}

/// A chain blob whose copy of `region` fails its CRC, as a payload torn in
/// that region only would.
SnapshotBlob torn_in(SnapshotBlob blob, RegionId region) {
  for (RegionBlob& r : blob.regions)
    if (r.region == region) r.payload[r.payload.size() / 2] ^= std::byte{0x10};
  return blob;
}

TEST_P(BackendConformance, ChainRestoreTakesEachRegionFromItsNewestCopy) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(chain_blob(1, CkptKind::Full, {0, 1, 2, 3}));
  backend->write_snapshot(chain_blob(2, CkptKind::Incremental, {0, 2, 3}));
  backend->write_snapshot(chain_blob(3, CkptKind::Incremental, {0, 3}));

  GuardedSpans dst(std::vector<std::size_t>(4, kChainRegionBytes));
  const auto meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 3u);
  EXPECT_EQ(meta->kind, CkptKind::Incremental);
  EXPECT_TRUE(holds_copy_of(dst, 0, 3));
  EXPECT_TRUE(holds_copy_of(dst, 1, 1));
  EXPECT_TRUE(holds_copy_of(dst, 2, 2));
  EXPECT_TRUE(holds_copy_of(dst, 3, 3));
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, ReadRegionsLeavesASkippedRegionUnread) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(chain_blob(1, CkptKind::Full, {0, 1, 2}));

  GuardedSpans dst(std::vector<std::size_t>(3, kChainRegionBytes));
  std::vector<RegionId> seen;
  const ReadResult read =
      backend->read_regions(1, [&](RegionId region, std::uint64_t) {
        seen.push_back(region);
        return region == 1 ? std::span<std::byte>{} : dst.spans[region];
      });
  EXPECT_EQ(seen, (std::vector<RegionId>{0, 1, 2}));
  ASSERT_EQ(read.crcs.size(), 3u);  // one per stored region, skipped or not
  EXPECT_TRUE(holds_copy_of(dst, 0, 1));
  EXPECT_TRUE(holds_copy_of(dst, 2, 1));
  EXPECT_TRUE(std::ranges::all_of(dst.spans[1], [](std::byte b) {
    return b == GuardedSpans::kSentinel;
  }));
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, TornRecordWhoseRegionsAreAllSupersededBlocksNothing) {
  const auto backend = make_backend(spec());
  FaultingBackend faulty(*backend, {{1, WriteFault::TornPayload}});
  faulty.write_snapshot(chain_blob(1, CkptKind::Full, {0, 1, 2}));
  faulty.write_snapshot(chain_blob(2, CkptKind::Incremental, {0, 2}));  // torn
  faulty.write_snapshot(chain_blob(3, CkptKind::Incremental, {0, 2}));
  ASSERT_EQ(faulty.faults_fired(), 1u);

  GuardedSpans dst(std::vector<std::size_t>(3, kChainRegionBytes));
  const auto meta = restore_latest_into(faulty, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 3u);
  EXPECT_TRUE(holds_copy_of(dst, 0, 3));
  EXPECT_TRUE(holds_copy_of(dst, 1, 1));
  EXPECT_TRUE(holds_copy_of(dst, 2, 3));
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, TornRegionThatIsNeededFallsBackOneCandidate) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(chain_blob(1, CkptKind::Full, {0, 1, 2}));
  backend->write_snapshot(
      torn_in(chain_blob(2, CkptKind::Incremental, {0, 1, 2}), 1));
  backend->write_snapshot(chain_blob(3, CkptKind::Incremental, {0, 1}));
  GuardedSpans dst(std::vector<std::size_t>(3, kChainRegionBytes));

  // Record 2's torn copy of region 1 is superseded by record 3's: the
  // chain of 3 does not read it.
  auto meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 3u);
  EXPECT_TRUE(holds_copy_of(dst, 2, 2));

  // Record 4 needs its own copy of region 1, which is torn: the walk falls
  // back one candidate, to 3.
  backend->write_snapshot(
      torn_in(chain_blob(4, CkptKind::Incremental, {0, 1}), 1));
  meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 3u);
  EXPECT_TRUE(holds_copy_of(dst, 0, 3));
  EXPECT_TRUE(holds_copy_of(dst, 1, 3));
  EXPECT_TRUE(holds_copy_of(dst, 2, 2));

  // Record 5 needs region 2 from record 2, whose copy is intact: the torn
  // region 1 of 2 stays unread and 5 restores.
  backend->write_snapshot(chain_blob(5, CkptKind::Incremental, {0, 1}));
  meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 5u);
  EXPECT_TRUE(holds_copy_of(dst, 1, 5));
  EXPECT_TRUE(holds_copy_of(dst, 2, 2));
  EXPECT_TRUE(dst.guards_intact());
}

TEST_P(BackendConformance, ChainWithoutAFullThatFillsEveryRegionIsRejected) {
  const auto backend = make_backend(spec());
  backend->write_snapshot(chain_blob(1, CkptKind::Incremental, {0}));
  backend->write_snapshot(chain_blob(2, CkptKind::Incremental, {0, 1}));
  GuardedSpans dst(std::vector<std::size_t>(3, kChainRegionBytes));
  EXPECT_FALSE(restore_latest_into(*backend, dst.spans).has_value());
  EXPECT_TRUE(dst.guards_intact());

  // A Full ends the walk: the chain of 5 stops at Full 4, which lacks
  // region 1, so the walk falls back past 5 and 4 to Full 3, though
  // Full 3 holds region 1.
  backend->write_snapshot(chain_blob(3, CkptKind::Full, {0, 1, 2}));
  backend->write_snapshot(chain_blob(4, CkptKind::Full, {0, 2}));
  backend->write_snapshot(chain_blob(5, CkptKind::Incremental, {0}));
  const auto meta = restore_latest_into(*backend, dst.spans);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->id, 3u);
  for (RegionId r = 0; r < 3; ++r) EXPECT_TRUE(holds_copy_of(dst, r, 3));
  EXPECT_TRUE(dst.guards_intact());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformance, ::testing::Values("memory", "log"),
    [](const auto& info) { return std::string(info.param); });

// --- CkptWriter: pipeline correctness & taxonomy ----------------------------

class WriterRoundTrip : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::string spec() const {
    return backend_spec(GetParam(), tmp_);
  }
  TempDir tmp_;
};

TEST_P(WriterRoundTrip, FullAndIncrementalRestore) {
  const auto backend = make_backend(spec());
  WriterOptions opts;
  opts.chunk_bytes = 64 * 1024;  // several chunks per region
  CkptWriter writer(*backend, opts);
  ImageFixture f;

  writer.take_full(f.image, 1.0);
  f.rem[0] = std::byte{0xAA};
  f.image.mark_dirty(1);
  writer.take_incremental(f.image, 2.0);

  // Scramble and restore: incremental on top of the full base.
  const auto lib_orig = f.lib, rem_orig = f.rem;
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0xFF});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0xFF});
  const auto report = writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_orig);
  EXPECT_EQ(f.rem, rem_orig);
  EXPECT_DOUBLE_EQ(report.from_when, 2.0);
  EXPECT_EQ(report.applied.size(), 2u);
}

TEST_P(WriterRoundTrip, SplitEntryExitComposition) {
  const auto backend = make_backend(spec());
  CkptWriter writer(*backend, WriterOptions{.chunk_bytes = 64 * 1024});
  ImageFixture f;

  const CkptId entry = writer.take_entry(f.image, 1.0);
  f.lib[7] = std::byte{0x55};  // the library call mutates its dataset
  writer.take_exit(f.image, 2.0, entry);

  const auto lib_at_exit = f.lib, rem_at_entry = f.rem;
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0});
  const auto report = writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_at_exit);
  EXPECT_EQ(f.rem, rem_at_entry);
  EXPECT_EQ(report.applied.size(), 2u);
  EXPECT_EQ(report.bytes_restored, f.image.total_bytes());
}

TEST_P(WriterRoundTrip, AsyncAndSerialProduceIdenticalSnapshots) {
  const auto backend = make_backend(spec());
  ImageFixture f;
  {
    CkptWriter serial(*backend,
                      WriterOptions{.chunk_bytes = 64 * 1024, .async = false});
    serial.take_full(f.image, 1.0);
  }
  {
    CkptWriter async(*backend,
                     WriterOptions{.chunk_bytes = 64 * 1024, .async = true});
    async.take_full(f.image, 2.0);
  }
  const auto metas = backend->list();
  ASSERT_EQ(metas.size(), 2u);
  const SnapshotBlob a = backend->read_snapshot(metas[0].id);
  const SnapshotBlob b = backend->read_snapshot(metas[1].id);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].crc, b.regions[i].crc) << "region " << i;
    EXPECT_EQ(a.regions[i].payload, b.regions[i].payload) << "region " << i;
  }
}

TEST_P(WriterRoundTrip, InlineAndPooledHashingMatchTheSerialReference) {
  // A 4.2 KB image: one chunk at 64 KiB, so hashed inline; five chunks at
  // 1 KiB, so hashed by a pool task while the caller appends.
  const auto backend = make_backend(spec());
  ImageFixture f(3000, 1200);
  // The same bytes with both regions in one buffer, back to back (as a
  // dist snapshot's arena regions are): streamed as one append, except by
  // the serial reference, which stages a copy of each region.
  std::vector<std::byte> joined(f.lib);
  joined.insert(joined.end(), f.rem.begin(), f.rem.end());
  MemoryImage adjacent;
  adjacent.add_region("lib", std::span(joined).first(f.lib.size()),
                      RegionClass::Library);
  adjacent.add_region("rem", std::span(joined).subspan(f.lib.size()),
                      RegionClass::Remainder);
  const WriterOptions modes[] = {
      {.chunk_bytes = 64 * 1024, .async = false},
      {.chunk_bytes = 64 * 1024, .async = true},
      {.chunk_bytes = 1024, .async = true}};
  double when = 1.0;
  for (MemoryImage* image : {&f.image, &adjacent}) {
    for (const WriterOptions& opts : modes) {
      CkptWriter writer(*backend, opts);
      writer.take_full(*image, when);
      when += 1.0;
    }
  }
  const auto metas = backend->list();
  ASSERT_EQ(metas.size(), 6u);
  const SnapshotBlob ref = backend->read_snapshot(metas[0].id);
  for (std::size_t m = 1; m < metas.size(); ++m) {
    const SnapshotBlob blob = backend->read_snapshot(metas[m].id);
    ASSERT_EQ(blob.regions.size(), ref.regions.size());
    for (std::size_t i = 0; i < ref.regions.size(); ++i) {
      EXPECT_EQ(blob.regions[i].crc, ref.regions[i].crc)
          << "mode " << m << " region " << i;
      EXPECT_EQ(blob.regions[i].payload, ref.regions[i].payload)
          << "mode " << m << " region " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WriterRoundTrip, ::testing::Values("memory", "log"),
    [](const auto& info) { return std::string(info.param); });

// A backend whose sessions fail on their second append and store nothing.
class FailingAppendBackend final : public StorageBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "failing-append";
  }
  void open() override {}
  [[nodiscard]] ReadResult read_regions(CkptId,
                                        const RegionSink&) const override {
    throw io_error("nothing stored");
  }
  [[nodiscard]] std::vector<SnapshotMeta> list() const override { return {}; }
  void drop(CkptId) override {}
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta&, std::vector<RegionId>,
      std::vector<std::uint64_t>) override {
    return std::make_unique<Session>();
  }

 private:
  class Session final : public WriteSession {
   public:
    void append(std::span<const std::byte>) override {
      if (++appends_ == 2) throw io_error("injected append failure");
    }
    void commit(const std::vector<std::uint32_t>&) override {
      ADD_FAILURE() << "commit after a failed append";
    }

   private:
    int appends_ = 0;
  };
};

TEST(CommitSnapshot, AppendFailureJoinsTheHashingTaskAndRethrows) {
  // Two 1 MiB regions at 64 KiB chunks: the pool task hashes both while
  // the second append throws. The task reads the regions and writes the
  // routine's CRC slots, so it must be joined before the error leaves the
  // call; the sanitizer jobs catch a task that outlives it.
  FailingAppendBackend backend;
  common::Executor ex(2);
  for (int round = 0; round < 8; ++round) {
    const auto a = pattern_bytes(1 << 20, 1);
    const auto b = pattern_bytes(1 << 20, 2);
    const RegionSpan regions[] = {{0, a}, {1, b}};
    SnapshotMeta meta;
    meta.id = 1;
    EXPECT_THROW(commit_snapshot(backend, meta, regions,
                                 {.chunk_bytes = 64 * 1024, .executor = &ex}),
                 io_error);
  }
}

TEST(CkptWriter, ExitValidatesCoverageAndEntryKind) {
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  const CkptId full = writer.take_full(f.image, 1.0);
  EXPECT_THROW(writer.take_exit(f.image, 2.0, full),
               common::precondition_error);
  EXPECT_THROW(writer.take_exit(f.image, 2.0, 999),
               common::precondition_error);
  EXPECT_THROW(writer.take_incremental(f.image, 0.5),  // when decreasing
               common::precondition_error);
  EXPECT_THROW(writer.take_full(f.image, 0.5), common::precondition_error);
}

TEST(CkptWriter, IncrementalNeedsFullBaseAndSavesOnlyDirtyBytes) {
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  EXPECT_THROW(writer.take_incremental(f.image, 1.0),
               common::precondition_error);
  writer.take_full(f.image, 1.0);  // clears dirty
  f.image.mark_dirty(1);
  writer.take_incremental(f.image, 2.0);
  EXPECT_EQ(backend.list().back().bytes, f.rem.size());
  EXPECT_EQ(backend.stored_bytes(), f.image.total_bytes() + f.rem.size());
}

TEST(CkptWriter, EmptyIncrementalStillRestores) {
  // An Incremental with nothing dirty records an empty snapshot and keeps
  // restoring cleanly.
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  writer.take_full(f.image, 1.0);
  writer.take_incremental(f.image, 2.0);  // nothing dirty
  EXPECT_EQ(backend.list().back().bytes, 0u);

  const auto lib_orig = f.lib;
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0});
  const auto report = writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_orig);
  EXPECT_DOUBLE_EQ(report.from_when, 2.0);
  EXPECT_EQ(report.applied.size(), 2u);
}

TEST(CkptWriter, EntryAloneIsNotARestorePoint) {
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  EXPECT_FALSE(writer.has_restore_point());
  writer.take_entry(f.image, 1.0);
  EXPECT_FALSE(writer.has_restore_point());
  EXPECT_THROW(writer.restore_latest(f.image), common::precondition_error);
}

TEST(CkptWriter, NewerSplitBeatsOlderFull) {
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  writer.take_full(f.image, 1.0);
  f.rem[0] = std::byte{0x77};
  const CkptId entry = writer.take_entry(f.image, 2.0);
  f.lib[0] = std::byte{0x88};
  writer.take_exit(f.image, 3.0, entry);
  const auto lib_at_exit = f.lib, rem_at_entry = f.rem;
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0});
  const auto report = writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_at_exit);
  EXPECT_EQ(f.rem, rem_at_entry);
  EXPECT_EQ(report.applied, (std::vector<CkptId>{entry, entry + 1}));
}

TEST(CkptWriter, RestoreRemainderLeavesLibraryUntouched) {
  // From an Entry, and from a Full when that is the newest source: only the
  // REMAINDER dataset comes back; the live (ABFT-reconstructed) LIBRARY
  // state survives.
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  const auto rem_orig = f.rem;
  writer.take_full(f.image, 1.0);
  for (const bool from_entry : {false, true}) {
    if (from_entry) writer.take_entry(f.image, 2.0);
    std::fill(f.rem.begin(), f.rem.end(), std::byte{0});
    f.lib[5] = std::byte{0x55};
    const auto lib_live = f.lib;
    const auto report = writer.restore_remainder(f.image);
    EXPECT_EQ(f.rem, rem_orig) << "from_entry=" << from_entry;
    EXPECT_EQ(f.lib, lib_live) << "from_entry=" << from_entry;
    EXPECT_EQ(report.bytes_restored, f.rem.size());
    EXPECT_EQ(report.applied,
              (std::vector<CkptId>{from_entry ? CkptId{2} : CkptId{1}}));
    EXPECT_DOUBLE_EQ(report.from_when, from_entry ? 2.0 : 1.0);
  }
}

TEST(CkptWriter, RestoreRemainderRejectsTornSourceUntouched) {
  // A torn Entry, or a torn Full as the only source: restore_remainder
  // verifies every region before copying, so it throws and the image keeps
  // every byte it had.
  for (const bool torn_entry : {false, true}) {
    MemoryBackend inner;
    FaultingBackend faulty(
        inner, {{torn_entry ? 1u : 0u, WriteFault::TornPayload}});
    CkptWriter writer(faulty);
    ImageFixture f;
    writer.take_full(f.image, 1.0);
    if (torn_entry) writer.take_entry(f.image, 2.0);
    ASSERT_EQ(faulty.faults_fired(), 1u);
    std::fill(f.rem.begin(), f.rem.end(), std::byte{0x3C});
    const auto lib_before = f.lib, rem_before = f.rem;
    EXPECT_THROW(writer.restore_remainder(f.image), io_error)
        << "torn_entry=" << torn_entry;
    EXPECT_EQ(f.lib, lib_before) << "torn_entry=" << torn_entry;
    EXPECT_EQ(f.rem, rem_before) << "torn_entry=" << torn_entry;
  }
}

TEST(CkptWriter, CompactDropsObsoleteSnapshots) {
  MemoryBackend backend;
  CkptWriter writer(backend);
  ImageFixture f;
  writer.take_full(f.image, 1.0);
  writer.take_full(f.image, 2.0);
  const CkptId entry = writer.take_entry(f.image, 3.0);
  const CkptId exit = writer.take_exit(f.image, 4.0, entry);
  ASSERT_EQ(backend.list().size(), 4u);
  writer.compact();
  const auto metas = backend.list();
  ASSERT_EQ(metas.size(), 2u);  // the entry+exit pair survives
  EXPECT_EQ(metas[0].id, entry);
  EXPECT_EQ(metas[1].id, exit);
  const auto lib_orig = f.lib, rem_orig = f.rem;
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0});
  writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_orig);
  EXPECT_EQ(f.rem, rem_orig);
}

TEST(CkptWriter, SplitSurvivesBackendReopen) {
  // Entry+Exit written through one LogBackend instance, restored through a
  // fresh one — the composition works from persistent state alone.
  TempDir tmp;
  const std::string spec =
      "log:" + (tmp.path() / "store").string() + "?shards=4";
  ImageFixture f;
  std::vector<std::byte> lib_at_exit, rem_at_entry;
  {
    const auto backend = make_backend(spec);
    CkptWriter writer(*backend, WriterOptions{.chunk_bytes = 32 * 1024});
    const CkptId entry = writer.take_entry(f.image, 1.0);
    f.lib[11] = std::byte{0x77};
    writer.take_exit(f.image, 2.0, entry);
    lib_at_exit = f.lib;
    rem_at_entry = f.rem;
  }
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0});

  const auto backend = make_backend(spec);
  CkptWriter writer(*backend);
  ASSERT_TRUE(writer.has_restore_point());
  writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_at_exit);
  EXPECT_EQ(f.rem, rem_at_entry);
  // Ids continue after the reopened history.
  const CkptId next = writer.take_full(f.image, 3.0);
  EXPECT_EQ(next, 3u);
}

// --- integrity rejection ----------------------------------------------------

TEST(LatestRestorable, SkipsCorruptNewestAndFallsBack) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const auto backend = make_backend("log:" + store.string() + "?shards=1");
  EXPECT_FALSE(latest_restorable(*backend).has_value());  // empty store
  backend->write_snapshot(sample_blob(1, 4000, 1000));
  const auto second_at =
      static_cast<std::streamoff>(fs::file_size(only_segment(store)));
  backend->write_snapshot(sample_blob(2, 4000, 1000));
  auto best = latest_restorable(*backend);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 2u);  // newest wins while it verifies

  // Corrupt the newest payload under the open store: it stays listed, and
  // the walk falls back past it.
  flip_file_byte(only_segment(store), second_at + kPayloadInRecord + 100,
                 0x01);
  ASSERT_EQ(backend->list().size(), 2u);
  best = latest_restorable(*backend);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 1u);
  EXPECT_NO_THROW(best->verify());
}

TEST(LogBackendIntegrity, CorruptedPayloadFailsRestore) {
  // A Full + Incremental chain whose Full (mid-file, so kept as committed)
  // carries a flipped payload byte: the restore throws, and verify-then-
  // apply leaves every byte of the image as it was.
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "log:" + store.string() + "?shards=1";
  ImageFixture f;
  {
    const auto backend = make_backend(spec);
    CkptWriter writer(*backend);
    writer.take_full(f.image, 1.0);
    f.image.mark_dirty(1);
    writer.take_incremental(f.image, 2.0);
  }
  flip_file_byte(only_segment(store),
                 kSegmentHeader + kPayloadInRecord + 100, 0x01);

  const auto backend = make_backend(spec);
  ASSERT_EQ(backend->list().size(), 2u);
  CkptWriter writer(*backend);
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0x3C});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0x3C});
  const auto lib_before = f.lib, rem_before = f.rem;
  EXPECT_THROW(writer.restore_latest(f.image), io_error);
  EXPECT_EQ(f.lib, lib_before);
  EXPECT_EQ(f.rem, rem_before);
}

// --- log backend ------------------------------------------------------------

TEST(LogBackendReads, ASkippedRegionIsNeverReadFromTheSegment) {
  // Cut the segment inside the record's last region: reading that region
  // runs off the file, skipping it reads nothing there.
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const auto backend = make_backend("log:" + store.string() + "?shards=1");
  backend->write_snapshot(sample_blob(1, 4000, 1000));
  fs::resize_file(only_segment(store),
                  kSegmentHeader + kPayloadInRecord + 4000 + 500);

  std::vector<std::byte> first(4000), second(1000);
  const auto into = [&](bool skip_second) {
    return [&, skip_second](RegionId region, std::uint64_t) {
      if (region == 0) return std::span(first);
      return skip_second ? std::span<std::byte>{} : std::span(second);
    };
  };
  EXPECT_THROW((void)backend->read_regions(1, into(false)), io_error);
  const ReadResult read = backend->read_regions(1, into(true));
  EXPECT_EQ(read.meta.id, 1u);
  EXPECT_TRUE(
      std::ranges::equal(first, sample_blob(1, 4000, 1000).regions[0].payload));
}

TEST(LogBackendPersistence, SurvivesReopenAcrossShards) {
  TempDir tmp;
  const std::string spec =
      "log:" + (tmp.path() / "store").string() + "?shards=4";
  {
    const auto backend = make_backend(spec);
    for (CkptId id = 1; id <= 9; ++id)
      backend->write_snapshot(sample_blob(id, 3000 + id * 100, 1000));
  }
  const auto reopened = make_backend(spec);
  const auto metas = reopened->list();
  ASSERT_EQ(metas.size(), 9u);
  for (CkptId id = 1; id <= 9; ++id) {
    const SnapshotBlob back = reopened->read_snapshot(id);
    EXPECT_NO_THROW(back.verify());
    EXPECT_EQ(back.meta.bytes, 4000u + id * 100);
  }
  // list() preserves commit (sequence) order across the reopen.
  for (std::size_t i = 0; i < metas.size(); ++i)
    EXPECT_EQ(metas[i].id, i + 1);
}

TEST(LogBackendPersistence, TombstoneSurvivesReopen) {
  TempDir tmp;
  const std::string spec =
      "log:" + (tmp.path() / "store").string() + "?shards=2";
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 4000, 1000));
    backend->write_snapshot(sample_blob(2, 4000, 1000));
    backend->drop(1);
  }
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 1u);
  EXPECT_EQ(reopened->list()[0].id, 2u);
  EXPECT_THROW((void)reopened->read_snapshot(1), io_error);
}

TEST(LogBackendPersistence, CommittersWhoseIdsShareAShardAppendInParallel) {
  // Ids 2 and 4 hash to the same shard of a 2-shard store. While a session
  // for id 2 holds that shard, a commit of id 4 takes the other one instead
  // of waiting; both records survive a reopen.
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "log:" + store.string() + "?shards=2";
  {
    const auto backend = make_backend(spec);
    const SnapshotBlob held = sample_blob(2, 4000, 1000);
    auto session = backend->begin_snapshot(
        held.meta, {held.regions[0].region, held.regions[1].region},
        {held.regions[0].payload.size(), held.regions[1].payload.size()});
    auto other = std::async(std::launch::async, [&] {
      backend->write_snapshot(sample_blob(4, 5000, 1000));
    });
    EXPECT_EQ(other.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "a commit waited on a shard while another shard was free";
    for (const RegionBlob& r : held.regions) session->append(r.payload);
    session->commit({held.regions[0].crc, held.regions[1].crc});
    other.get();
  }
  int segments = 0;
  for (const auto& entry : fs::directory_iterator(store))
    segments += entry.path().filename().string().starts_with("wal_") ? 1 : 0;
  EXPECT_EQ(segments, 2);
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 2u);
  for (const CkptId id : {CkptId{2}, CkptId{4}})
    EXPECT_NO_THROW(reopened->read_snapshot(id).verify());
}

TEST(LogBackendRecovery, TruncatesExactlyTheTornSuffix) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  // One shard, so both records and the torn garbage share a segment.
  const std::string spec = "log:" + store.string() + "?shards=1";
  std::uintmax_t committed_bytes = 0;
  fs::path wal;
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 4000, 1000));
    backend->write_snapshot(sample_blob(2, 2000, 500));
    wal = only_segment(store);
    committed_bytes = fs::file_size(wal);
  }
  // A crashed committer's half-written record: framing never completes.
  {
    std::ofstream io(wal, std::ios::binary | std::ios::app);
    const std::vector<char> garbage(1000, 0x5C);
    io.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 2u);
  EXPECT_NO_THROW(reopened->read_snapshot(1).verify());
  EXPECT_NO_THROW(reopened->read_snapshot(2).verify());
  // The suffix — and only the suffix — was cut back, and the reclaimed
  // space takes the next commit.
  EXPECT_EQ(fs::file_size(wal), committed_bytes);
  reopened->write_snapshot(sample_blob(3, 100, 100));
  EXPECT_EQ(make_backend(spec)->list().size(), 3u);
}

TEST(LogBackendRecovery, TailHeaderClaimingBytesPastTheSegmentIsTorn) {
  // A crash can leave a tail header that reached the medium intact (its
  // own CRC holds) while its region table and payload did not. Its lengths
  // describe bytes the segment does not have: recovery must cut it, not
  // serve it, and keep the store writable.
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "log:" + store.string() + "?shards=1";
  std::uintmax_t committed_bytes = 0;
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 1000, 500));
    committed_bytes = fs::file_size(only_segment(store));
  }
  {
    logf::RecordHeader h;
    h.id = 77;
    h.region_count = 1;
    h.payload_bytes = 1ull << 40;  // far past the segment's end
    h.seq = 2;
    h.header_crc = common::crc32(std::span(
        reinterpret_cast<const std::byte*>(&h),
        offsetof(logf::RecordHeader, header_crc)));
    std::ofstream io(only_segment(store), std::ios::binary | std::ios::app);
    io.write(reinterpret_cast<const char*>(&h), sizeof(h));
  }
  const auto backend = make_backend(spec);
  ASSERT_EQ(backend->list().size(), 1u);
  EXPECT_EQ(backend->list()[0].id, 1u);
  EXPECT_THROW((void)backend->read_snapshot(77), io_error);
  EXPECT_EQ(fs::file_size(only_segment(store)), committed_bytes);
  EXPECT_NO_THROW(backend->write_snapshot(sample_blob(2, 100, 100)));
}

TEST(LogBackendRecovery, TruncatedTailRecordIsRejectedThenCut) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "log:" + store.string() + "?shards=1";
  const auto backend = make_backend(spec);
  backend->write_snapshot(sample_blob(1, 4000, 1000));
  const fs::path wal = only_segment(store);
  const std::uintmax_t after_first = fs::file_size(wal);
  backend->write_snapshot(sample_blob(2, 4000, 1000));
  fs::resize_file(wal, fs::file_size(wal) - 1000);

  // Under the open store the cut record fails its read, and the restore
  // walks past it.
  EXPECT_THROW((void)backend->read_snapshot(2), io_error);
  const auto best = latest_restorable(*backend);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 1u);

  // A reopen discards the truncated tail record as torn.
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 1u);
  EXPECT_THROW((void)reopened->read_snapshot(2), io_error);
  EXPECT_NO_THROW(reopened->read_snapshot(1).verify());
  EXPECT_EQ(fs::file_size(wal), after_first);
}

TEST(LogBackendRecovery, CorruptTailRecordIsDiscardedAsTorn) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "log:" + store.string() + "?shards=1";
  std::uintmax_t after_first = 0;
  fs::path wal;
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 4000, 1000));
    wal = only_segment(store);
    after_first = fs::file_size(wal);
    backend->write_snapshot(sample_blob(2, 2000, 500));
  }
  // Flip one payload byte of the *tail* record: its commit was never
  // acknowledged as far as recovery can tell, so it is torn, not corrupt.
  flip_file_byte(
      wal, static_cast<std::streamoff>(after_first) + kPayloadInRecord + 100,
      0x40);
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 1u);
  EXPECT_EQ(reopened->list()[0].id, 1u);
  EXPECT_NO_THROW(reopened->read_snapshot(1).verify());
  EXPECT_EQ(fs::file_size(wal), after_first);
}

TEST(LogBackendRecovery, MidFileCorruptionKeptButRejectedAtVerify) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "log:" + store.string() + "?shards=1";
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 4000, 1000));
    backend->write_snapshot(sample_blob(2, 2000, 500));
  }
  // Flip a payload byte of the *first* record: mid-file, so its commit was
  // acknowledged — recovery keeps it and verify() rejects it.
  flip_file_byte(only_segment(store), kSegmentHeader + kPayloadInRecord + 100,
                 0x01);
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 2u);
  EXPECT_THROW(reopened->read_snapshot(1).verify(), io_error);
  const auto best = latest_restorable(*reopened);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 2u);
}

TEST(FaultingBackend, TornPayloadFlipsEveryByteAcrossBouncePieces) {
  // Regions larger than the tear's bounce buffer, appended in one chunk
  // each, and in odd pieces: every stored byte is the original XOR 0xFF.
  MemoryBackend inner;
  FaultingBackend faulty(inner, {{0, WriteFault::TornPayload},
                                 {1, WriteFault::TornPayload}});
  const SnapshotBlob blob = sample_blob(1, 300000, 70001);
  faulty.write_snapshot(blob);
  const SnapshotBlob streamed = sample_blob(2, 200000, 5);
  {
    auto session = faulty.begin_snapshot(
        streamed.meta, {0, 1},
        {streamed.regions[0].payload.size(), streamed.regions[1].payload.size()});
    for (const RegionBlob& r : streamed.regions) {
      std::span<const std::byte> rest(r.payload);
      while (!rest.empty()) {
        const std::size_t take = std::min<std::size_t>(rest.size(), 99999);
        session->append(rest.first(take));
        rest = rest.subspan(take);
      }
    }
    session->commit({streamed.regions[0].crc, streamed.regions[1].crc});
  }
  EXPECT_EQ(faulty.faults_fired(), 2u);

  for (const SnapshotBlob* want : {&blob, &streamed}) {
    const SnapshotBlob back = inner.read_snapshot(want->meta.id);
    ASSERT_EQ(back.regions.size(), want->regions.size());
    for (std::size_t i = 0; i < back.regions.size(); ++i) {
      const auto& got = back.regions[i].payload;
      const auto& orig = want->regions[i].payload;
      ASSERT_EQ(got.size(), orig.size());
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_EQ(got[k], orig[k] ^ std::byte{0xFF})
            << "snapshot " << want->meta.id << " region " << i << " byte "
            << k;
    }
    EXPECT_THROW(back.verify(), io_error);
  }
}

TEST(LogBackendFaults, TornPayloadFallsBackAndFailedCommitLeavesNothing) {
  TempDir tmp;
  LogBackend inner((tmp.path() / "store").string(),
                   LogBackend::Options{.shards = 2});
  inner.open();
  FaultingBackend faulty(
      inner, {{1, WriteFault::TornPayload}, {2, WriteFault::FailedCommit}});
  faulty.open();

  faulty.write_snapshot(sample_blob(1, 4000, 1000));  // clean
  faulty.write_snapshot(sample_blob(2, 4000, 1000));  // torn payload
  EXPECT_THROW(faulty.write_snapshot(sample_blob(3, 4000, 1000)), io_error);
  EXPECT_EQ(faulty.faults_fired(), 2u);

  ASSERT_EQ(inner.list().size(), 2u);  // the failed commit never landed
  EXPECT_THROW(inner.read_snapshot(2).verify(), io_error);
  const auto best = latest_restorable(inner);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 1u);  // falls back past the torn newest
  // The store stays writable after both fault shapes.
  faulty.write_snapshot(sample_blob(4, 100, 100));
  EXPECT_EQ(inner.list().size(), 3u);
}

TEST(LogBackendCompaction, FoldsChainToBitwiseEqualRestore) {
  TempDir tmp;
  LogBackend backend((tmp.path() / "store").string(),
                     LogBackend::Options{.shards = 2});
  backend.open();
  CkptWriter writer(backend, WriterOptions{.chunk_bytes = 64 * 1024});
  ImageFixture f;

  writer.take_full(f.image, 1.0);
  for (int k = 0; k < 4; ++k) {
    f.rem[static_cast<std::size_t>(k) * 11] = static_cast<std::byte>(0xB0 + k);
    f.image.mark_dirty(1);
    writer.take_incremental(f.image, 2.0 + k);
  }
  const auto lib_orig = f.lib, rem_orig = f.rem;
  const std::uint64_t before_live = backend.live_bytes();
  ASSERT_EQ(backend.list().size(), 5u);

  const CompactionStats stats = backend.compact_now();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.records_folded, 5u);
  EXPECT_GE(stats.segments_deleted, 1u);
  EXPECT_GT(stats.bytes_reclaimed, 0u);

  // The chain collapsed to one Full under the newest member's identity.
  const auto metas = backend.list();
  ASSERT_EQ(metas.size(), 1u);
  EXPECT_EQ(metas[0].kind, CkptKind::Full);
  EXPECT_DOUBLE_EQ(metas[0].when, 5.0);
  EXPECT_LT(backend.live_bytes(), before_live);

  // Restore from the folded record is bitwise-equal to the chain replay.
  std::fill(f.lib.begin(), f.lib.end(), std::byte{0xFF});
  std::fill(f.rem.begin(), f.rem.end(), std::byte{0xFF});
  const auto report = writer.restore_latest(f.image);
  EXPECT_EQ(f.lib, lib_orig);
  EXPECT_EQ(f.rem, rem_orig);
  EXPECT_DOUBLE_EQ(report.from_when, 5.0);

  // And the folded store survives a reopen.
  LogBackend reopened((tmp.path() / "store").string(),
                      LogBackend::Options{.shards = 2});
  reopened.open();
  ASSERT_EQ(reopened.list().size(), 1u);
  EXPECT_NO_THROW(reopened.read_snapshot(metas[0].id).verify());
}

TEST(LogBackendCompaction, BoundsLiveBytesUnderDropChurn) {
  TempDir tmp;
  LogBackend backend((tmp.path() / "store").string(),
                     LogBackend::Options{.shards = 2});
  backend.open();
  // A ckpt_every-style campaign: keep the newest full, drop the old one.
  for (CkptId id = 1; id <= 20; ++id) {
    backend.write_snapshot(sample_blob(id, 8000, 2000));
    if (id > 1) backend.drop(id - 1);
  }
  (void)backend.compact_now();
  ASSERT_EQ(backend.list().size(), 1u);
  // Segment bytes on disk stay within small-change of one live snapshot
  // (frozen segment + at most per-shard headers), not twenty of them.
  EXPECT_LT(backend.segment_bytes(), 3 * backend.live_bytes() + 4096);
  EXPECT_NO_THROW(backend.read_snapshot(20).verify());
}

TEST(LogBackendCompaction, RacingCommitterLosesNoCommittedSnapshot) {
  TempDir tmp;
  common::Executor executor(2);
  LogBackend::Options opts;
  opts.shards = 4;
  opts.compact_every = 6;  // background passes mid-storm
  opts.executor = &executor;
  LogBackend backend((tmp.path() / "store").string(), opts);
  backend.open();

  constexpr int kThreads = 4, kEach = 12;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kEach; ++c) {
        const auto id = static_cast<CkptId>(t * kEach + c + 1);
        backend.write_snapshot(sample_blob(id, 3000, 800));
        // Interleave reads with the compactor's relocations. The read may
        // find the record already dropped — every snapshot here is a Full,
        // so a racing pass supersedes older ones — but a record that is
        // still present must read back intact; any other io_error (torn
        // frame, CRC mismatch) is a genuine loss.
        try {
          backend.read_snapshot(id).verify();
        } catch (const io_error& e) {
          EXPECT_NE(std::string(e.what()).find("unknown snapshot id"),
                    std::string::npos)
              << e.what();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  backend.wait_for_compaction();
  (void)backend.compact_now();

  // Compaction may drop superseded records but must keep a restorable
  // newest; every record it kept must verify.
  const auto best = latest_restorable(backend);
  ASSERT_TRUE(best.has_value());
  for (const SnapshotMeta& m : backend.list())
    EXPECT_NO_THROW(backend.read_snapshot(m.id).verify());
  EXPECT_GE(backend.compaction_stats().passes, 1u);
}

TEST(CompactionPlan, FoldsFullPlusIncrementalsAndDropsOlder) {
  using compact::LiveRecord;
  const auto rec = [](std::uint64_t seq, CkptId id, CkptKind kind,
                      bool verified, CkptId link = 0) {
    LiveRecord r;
    r.seq = seq;
    r.meta.id = id;
    r.meta.kind = kind;
    r.meta.entry_link = link;
    r.verified = verified;
    return r;
  };
  const auto plan = compact::plan_compaction({
      rec(1, 10, CkptKind::Full, true),
      rec(2, 11, CkptKind::Incremental, true),
      rec(3, 12, CkptKind::Full, true),
      rec(4, 13, CkptKind::Incremental, true),
      rec(5, 14, CkptKind::Incremental, true),
  });
  EXPECT_EQ(plan.fold, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(plan.drop, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(plan.carry.empty());
}

TEST(CompactionPlan, ConservativeWhenDamagedOrMixed) {
  using compact::LiveRecord;
  const auto rec = [](std::uint64_t seq, CkptId id, CkptKind kind,
                      bool verified, CkptId link = 0) {
    LiveRecord r;
    r.seq = seq;
    r.meta.id = id;
    r.meta.kind = kind;
    r.meta.entry_link = link;
    r.verified = verified;
    return r;
  };
  // An unverified chain member: nothing folds, nothing restorable-looking
  // is dropped (the damaged chain disqualifies its Full as a base, so the
  // older verified Full is the protection point and survives).
  auto plan = compact::plan_compaction({
      rec(1, 10, CkptKind::Full, true),
      rec(2, 12, CkptKind::Full, true),
      rec(3, 13, CkptKind::Incremental, false),
  });
  EXPECT_TRUE(plan.fold.empty());
  EXPECT_TRUE(plan.drop.empty());
  EXPECT_EQ(plan.carry.size(), 3u);

  // Nothing verifies at all: carry everything, drop nothing.
  plan = compact::plan_compaction({
      rec(1, 10, CkptKind::Full, false),
      rec(2, 11, CkptKind::Incremental, false),
  });
  EXPECT_EQ(plan.carry.size(), 2u);
  EXPECT_TRUE(plan.drop.empty());

  // An Exit base keeps its (older) Entry, drops the rest.
  plan = compact::plan_compaction({
      rec(1, 10, CkptKind::Full, true),
      rec(2, 20, CkptKind::Entry, true),
      rec(3, 21, CkptKind::Exit, true, 20),
  });
  EXPECT_TRUE(plan.fold.empty());
  EXPECT_EQ(plan.drop, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(plan.carry, (std::vector<std::uint64_t>{2, 3}));
}

// --- calibrator -------------------------------------------------------------

TEST(Calibrator, FitsBandwidthWithinTwoXOfMeasured) {
  MemoryBackend backend;
  CalibrationOptions opts;
  opts.sizes = {1u << 20, 4u << 20, 16u << 20};
  opts.reps = 3;
  const Calibration cal = calibrate_backend(backend, opts);

  // The backend is left empty and the model is well-formed.
  EXPECT_TRUE(backend.list().empty());
  EXPECT_GT(cal.write_bandwidth, 0.0);
  ASSERT_EQ(cal.points.size(), 3u);
  EXPECT_EQ(cal.model.name, "measured:memory");

  // Fitted bandwidth within 2x of the raw throughput of the largest
  // measurement (the fit smooths latency out, so they differ but must
  // agree to a factor of two).
  const auto& big = cal.points.back();
  const double measured =
      static_cast<double>(big.bytes) / big.write_seconds;
  EXPECT_GT(cal.write_bandwidth, measured / 2.0);
  EXPECT_LT(cal.write_bandwidth, measured * 2.0);

  // And the model's write_time prediction is within 2x of the measurement.
  const double predicted = cal.model.write_time(
      static_cast<double>(big.bytes), 1);
  EXPECT_GT(predicted, big.write_seconds / 2.0);
  EXPECT_LT(predicted, big.write_seconds * 2.0);
}

TEST(Calibrator, WorksOnABackendWithExistingHistory) {
  // Calibration timestamps must start past the backend's history, and the
  // history must survive the calibration run.
  MemoryBackend backend;
  ImageFixture f(4096, 4096);
  {
    CkptWriter writer(backend);
    writer.take_full(f.image, 100.0);
  }
  CalibrationOptions opts;
  opts.sizes = {1u << 16};
  opts.reps = 1;
  EXPECT_NO_THROW((void)calibrate_backend(backend, opts));
  ASSERT_EQ(backend.list().size(), 1u);
  EXPECT_DOUBLE_EQ(backend.list()[0].when, 100.0);
}

// --- the --storage resolver --------------------------------------------------

TEST(StorageResolver, ResolvesAnalyticSchemes) {
  auto& resolver = core::StorageResolver::instance();
  const auto pfs = resolver.resolve("pfs:0.5");
  EXPECT_EQ(pfs.name, "remote-pfs");
  EXPECT_DOUBLE_EQ(pfs.aggregate_bandwidth, 0.5 * 1024 * 1024 * 1024);
  const auto buddy = resolver.resolve("buddy:2,0.25");
  EXPECT_EQ(buddy.name, "buddy");
  EXPECT_DOUBLE_EQ(buddy.latency, 0.25);
  EXPECT_THROW((void)resolver.resolve("warp-drive:1"),
               common::precondition_error);
}

TEST(StorageResolver, RejectsMalformedSpecs) {
  auto& resolver = core::StorageResolver::instance();
  EXPECT_THROW((void)resolver.resolve("pfs:abc"), common::precondition_error);
  EXPECT_THROW((void)resolver.resolve("pfs:1,0.5,junk"),
               common::precondition_error);
  EXPECT_THROW((void)resolver.resolve("pfs:1.5garbage"),
               common::precondition_error);
  EXPECT_THROW((void)make_backend("log:/tmp/x?shards=abc"),
               common::precondition_error);
  EXPECT_THROW((void)make_backend("log:/tmp/x?shards=4x"),
               common::precondition_error);
  EXPECT_THROW((void)make_backend("log:"), common::precondition_error);
  // The one-file-per-snapshot and mmap-arena stores are gone: their specs
  // are unknown schemes, and the message names the ones that remain.
  TempDir tmp;
  for (const std::string scheme : {"file", "mmap"}) {
    const std::string spec = scheme + ":" + (tmp.path() / "x").string();
    for (const bool resolve : {false, true}) {
      try {
        if (resolve)
          (void)resolver.resolve(spec);
        else
          (void)make_backend(spec);
        ADD_FAILURE() << spec << " was accepted";
      } catch (const common::precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown storage"), std::string::npos) << what;
        EXPECT_NE(what.find("log"), std::string::npos) << what;
        EXPECT_NE(what.find("memory"), std::string::npos) << what;
      }
    }
  }
  // log: takes shards, flush (exactly 0 or 1) and compact, each at most
  // once; any other key, a repeated key, or a flush that is not 0/1 throws
  // from both entry points before the store directory exists. committers=
  // belongs to the resolver only.
  const std::string bad_dir = (tmp.path() / "bad").string();
  for (const std::string opts :
       {"uring=1", "shrads=2", "flush=yes", "flush=true", "flush=",
        "shards=2&shards=4"}) {
    const std::string spec = "log:" + bad_dir + "?" + opts;
    EXPECT_THROW((void)make_backend(spec), common::precondition_error)
        << spec;
    EXPECT_THROW((void)resolver.resolve(spec), common::precondition_error)
        << spec;
  }
  try {
    (void)make_backend("log:" + bad_dir + "?shrads=2");
    ADD_FAILURE() << "shrads=2 was accepted";
  } catch (const common::precondition_error& e) {
    const std::string what = e.what();
    for (const char* key : {"shrads", "shards", "flush", "compact"})
      EXPECT_NE(what.find(key), std::string::npos) << what;
  }
  EXPECT_THROW((void)make_backend("log:" + bad_dir + "?committers=2"),
               common::precondition_error);
  EXPECT_THROW(
      (void)resolver.resolve("log:" + bad_dir + "?committers=2,committers=4"),
      common::precondition_error);
  EXPECT_THROW((void)make_backend("memory?shards=2"),
               common::precondition_error);
  EXPECT_TRUE(fs::is_empty(tmp.path()));  // nothing was created

  // What the CI campaign and the calibrating resolver pass still works.
  const std::string ci_spec =
      "log:" + (tmp.path() / "ci").string() + "?shards=4&compact=6&flush=0";
  {
    const auto backend = make_backend(ci_spec);
    const auto* log = dynamic_cast<const LogBackend*>(backend.get());
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->shard_count(), 4u);
  }
  EXPECT_EQ(resolver.resolve(ci_spec).name, "measured:log");
  EXPECT_EQ(resolver
                .resolve("log:" + (tmp.path() / "calib").string() +
                         "?shards=4,committers=2")
                .name,
            "measured:log(c2)");
}

TEST(StorageResolver, CalibratesMeasuredBackends) {
  TempDir tmp;
  auto& resolver = core::StorageResolver::instance();
  const auto model =
      resolver.resolve("log:" + (tmp.path() / "store").string());
  EXPECT_EQ(model.name, "measured:log");
  EXPECT_GT(model.node_bandwidth, 0.0);
  // A measured local device is per-node storage: constant write time per
  // node count — the Fig 10 scalable regime.
  const double t1 = model.write_time(1e6, 1);
  const double t2 = model.write_time(2e6, 2);
  EXPECT_NEAR(t1, t2, 1e-9);
}

// --- chunked CRC fold -------------------------------------------------------

TEST(Crc32Chunks, ChunkedCrcMatchesOneShot) {
  // The fold the writer's pipeline uses (common::Crc32Chunks over
  // independently computed per-chunk CRCs) must equal the plain crc32 of
  // the whole buffer, for any chunk size.
  const auto buf = pattern_bytes((1 << 20) + 12345, 42);
  const std::uint32_t whole = common::crc32(std::span(buf));
  for (const std::size_t chunk : {64u * 1024u, 256u * 1024u, 1u << 20}) {
    common::Crc32Chunks fold;
    for (std::size_t lo = 0; lo < buf.size(); lo += chunk) {
      const auto piece =
          std::span(buf).subspan(lo, std::min(chunk, buf.size() - lo));
      fold.add(common::crc32(piece), piece.size());
    }
    EXPECT_EQ(fold.value(), whole) << "chunk=" << chunk;
  }
}

}  // namespace
