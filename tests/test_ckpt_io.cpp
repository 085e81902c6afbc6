// Tests for the checkpoint I/O subsystem: backend conformance
// (memory/file/mmap through one parameterized suite), the CkptWriter
// async pipeline (bitwise-equal to the serial reference, all checkpoint
// kinds, split restore composition across a backend reopen), integrity
// rejection (corrupted payload, truncated file, torn snapshot), the
// MeasuredStorage calibrator, the --storage resolver, and the chunked CRC
// fold the writer's pipeline relies on.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/io/backend.hpp"
#include "ckpt/io/calibrate.hpp"
#include "ckpt/io/faulting.hpp"
#include "ckpt/io/log_backend.hpp"
#include "ckpt/io/uring.hpp"
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

/// Option tail for log-backend specs, overridable from the environment so
/// CI can re-run the shared suites with io_uring submission enabled
/// (ABFTC_LOG_SPEC_OPTS="shards=4&uring=1"); defaults to the pwrite path.
/// Tests doing byte-offset surgery on segment files pin their own options.
std::string log_spec_options() {
  const char* opts = std::getenv("ABFTC_LOG_SPEC_OPTS");
  return (opts != nullptr && *opts != '\0') ? opts : "shards=4";
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

// --- backend conformance (same suite for memory / file / mmap) --------------

class BackendConformance : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::string spec() const {
    const std::string kind = GetParam();
    if (kind == "memory") return "memory";
    if (kind == "file") return "file:" + (tmp_.path() / "store").string();
    if (kind == "log")
      return "log:" + (tmp_.path() / "store").string() + "?" +
             log_spec_options();
    return "mmap:" + (tmp_.path() / "arena.ckpt").string() + "?mb=8";
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

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformance,
    ::testing::Values("memory", "file", "mmap", "log"),
    [](const auto& info) { return std::string(info.param); });

// --- persistence across reopen (file + mmap) --------------------------------

TEST(FileBackendPersistence, SurvivesReopen) {
  TempDir tmp;
  const std::string spec = "file:" + (tmp.path() / "store").string();
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 5000, 2000));
    backend->write_snapshot(sample_blob(2, 100, 900));
  }
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 2u);
  const SnapshotBlob back = reopened->read_snapshot(1);
  EXPECT_NO_THROW(back.verify());
  EXPECT_EQ(back.meta.bytes, 7000u);
}

TEST(MmapBackendPersistence, SurvivesReopenAndReclaimsWhenEmpty) {
  TempDir tmp;
  const std::string spec =
      "mmap:" + (tmp.path() / "arena.ckpt").string() + "?mb=8";
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 5000, 2000));
  }
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 1u);
  EXPECT_NO_THROW(reopened->read_snapshot(1).verify());

  auto* arena = dynamic_cast<MmapBackend*>(reopened.get());
  ASSERT_NE(arena, nullptr);
  const std::size_t free_before = arena->free_bytes();
  reopened->drop(1);
  EXPECT_GT(arena->free_bytes(), free_before);  // cursor rewound when empty
}

TEST(MmapBackend, DropOfNewestRewindsCursorDespiteHistory) {
  // Write/restore/drop cycles (the calibrator, rotating protection points)
  // must not leak arena space even when older snapshots stay live.
  TempDir tmp;
  const auto backend =
      make_backend("mmap:" + (tmp.path() / "arena.ckpt").string() + "?mb=8");
  backend->write_snapshot(sample_blob(1, 4000, 1000));  // long-lived history
  auto* arena = dynamic_cast<MmapBackend*>(backend.get());
  ASSERT_NE(arena, nullptr);
  const std::size_t free_baseline = arena->free_bytes();
  for (CkptId id = 2; id < 40; ++id) {
    backend->write_snapshot(sample_blob(id, 50000, 10000));
    backend->drop(id);
    ASSERT_EQ(arena->free_bytes(), free_baseline) << "cycle " << id;
  }
  EXPECT_NO_THROW(backend->read_snapshot(1).verify());
}

TEST(MmapBackend, ReclaimsTornReservationOnReopen) {
  TempDir tmp;
  const fs::path arena = tmp.path() / "arena.ckpt";
  const std::string spec = "mmap:" + arena.string() + "?mb=8";
  std::size_t free_after_commit = 0;
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 1000, 500));
    free_after_commit =
        dynamic_cast<MmapBackend*>(backend.get())->free_bytes();
  }
  {
    // Simulate a crash mid-session: a reserved-but-uncommitted slot and an
    // advanced bump cursor reach the file (MAP_SHARED) without a commit.
    std::fstream io(arena, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(io.good());
    const std::uint32_t one = 1;
    io.seekp(40 + 64);  // slot 1's `used` flag (header is 40 B, slots 64 B)
    io.write(reinterpret_cast<const char*>(&one), 4);
    std::uint64_t cursor = 0;
    io.seekg(24);  // header.data_cursor
    io.read(reinterpret_cast<char*>(&cursor), 8);
    cursor += 1 << 20;
    io.seekp(24);
    io.write(reinterpret_cast<const char*>(&cursor), 8);
  }
  const auto backend = make_backend(spec);
  ASSERT_EQ(backend->list().size(), 1u);  // the committed snapshot survives
  EXPECT_EQ(dynamic_cast<MmapBackend*>(backend.get())->free_bytes(),
            free_after_commit);  // the torn reservation was reclaimed
  EXPECT_NO_THROW(backend->write_snapshot(sample_blob(2, 100, 100)));
}

TEST(MmapBackend, ReclaimsCommittedSlotWithTornGeometryOnReopen) {
  // A SIGKILLed committer can leave a slot whose `committed` flag reached
  // the file while the rest of the record did not (the flag is stored last,
  // but page writeback order is not guaranteed across a crash). Such a slot
  // is flagged live yet describes no snapshot inside the arena — open()
  // must treat it as torn, not serve it.
  TempDir tmp;
  const fs::path arena = tmp.path() / "arena.ckpt";
  const std::string spec = "mmap:" + arena.string() + "?mb=8";
  std::size_t free_after_commit = 0;
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 1000, 500));
    free_after_commit =
        dynamic_cast<MmapBackend*>(backend.get())->free_bytes();
  }
  {
    // Fabricate slot 1 by hand: used = committed = 1, id = 77, but with an
    // offset outside the arena and seq = 0 (never issued). Header is 40 B,
    // slots are 64 B: {used u32, committed u32, id u64, kind u32,
    // region_count u32, when f64, entry_link u64, bytes u64, offset u64,
    // seq u64}.
    std::fstream io(arena, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(io.good());
    const std::uint64_t slot1 = 40 + 64;
    const std::uint32_t one = 1;
    io.seekp(static_cast<std::streamoff>(slot1));
    io.write(reinterpret_cast<const char*>(&one), 4);  // used
    io.write(reinterpret_cast<const char*>(&one), 4);  // committed
    const std::uint64_t id = 77;
    io.write(reinterpret_cast<const char*>(&id), 8);
    const std::uint64_t garbage_offset = 1ull << 40;  // far past capacity
    io.seekp(static_cast<std::streamoff>(slot1 + 48));
    io.write(reinterpret_cast<const char*>(&garbage_offset), 8);
  }
  const auto backend = make_backend(spec);
  ASSERT_EQ(backend->list().size(), 1u);  // only the real snapshot is live
  EXPECT_EQ(backend->list()[0].id, 1u);
  EXPECT_THROW((void)backend->read_snapshot(77), io_error);
  EXPECT_EQ(dynamic_cast<MmapBackend*>(backend.get())->free_bytes(),
            free_after_commit);  // the phantom slot holds no arena bytes
  EXPECT_NO_THROW(backend->write_snapshot(sample_blob(2, 100, 100)));
}

TEST(MmapBackend, ReportsArenaExhaustion) {
  TempDir tmp;
  const auto backend =
      make_backend("mmap:" + (tmp.path() / "tiny.ckpt").string() + "?mb=1");
  // ~1 MiB arena minus header: a 2 MiB snapshot cannot fit.
  SnapshotBlob blob = sample_blob(1, 1 << 21, 1024);
  EXPECT_THROW(backend->write_snapshot(blob), io_error);
  EXPECT_TRUE(backend->list().empty());
}

// --- CkptWriter: pipeline correctness & taxonomy ----------------------------

class WriterRoundTrip : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::string spec() const {
    const std::string kind = GetParam();
    if (kind == "memory") return "memory";
    if (kind == "file") return "file:" + (tmp_.path() / "store").string();
    if (kind == "log")
      return "log:" + (tmp_.path() / "store").string() + "?" +
             log_spec_options();
    return "mmap:" + (tmp_.path() / "arena.ckpt").string() + "?mb=16";
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
  const WriterOptions modes[] = {
      {.chunk_bytes = 64 * 1024, .async = false},
      {.chunk_bytes = 64 * 1024, .async = true},
      {.chunk_bytes = 1024, .async = true}};
  double when = 1.0;
  for (const WriterOptions& opts : modes) {
    CkptWriter writer(*backend, opts);
    writer.take_full(f.image, when);
    when += 1.0;
  }
  const auto metas = backend->list();
  ASSERT_EQ(metas.size(), 3u);
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
    Backends, WriterRoundTrip,
    ::testing::Values("memory", "file", "mmap", "log"),
    [](const auto& info) { return std::string(info.param); });

// A backend whose sessions fail on their second append and store nothing.
class FailingAppendBackend final : public StorageBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "failing-append";
  }
  void open() override {}
  [[nodiscard]] SnapshotBlob read_snapshot(CkptId) const override {
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
  // Entry+Exit written through one FileBackend instance, restored through a
  // fresh one — the composition works from persistent state alone.
  TempDir tmp;
  const std::string spec = "file:" + (tmp.path() / "store").string();
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

/// Flip one payload byte of the snapshot file on disk.
void corrupt_snapshot_file(const fs::path& store, CkptId id) {
  const fs::path file = store / ("snap_" + std::to_string(id) + ".ckpt");
  ASSERT_TRUE(fs::exists(file));
  std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.good());
  io.seekp(-1, std::ios::end);  // last payload byte
  const auto pos = io.tellp();
  io.seekg(pos);
  char b = 0;
  io.read(&b, 1);
  b = static_cast<char>(b ^ 0x01);
  io.seekp(pos);
  io.write(&b, 1);
}

TEST(LatestRestorable, SkipsCorruptNewestAndFallsBack) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "file:" + store.string();
  {
    const auto backend = make_backend(spec);
    EXPECT_FALSE(latest_restorable(*backend).has_value());  // empty store
    backend->write_snapshot(sample_blob(1, 4000, 1000));
    backend->write_snapshot(sample_blob(2, 4000, 1000));
    const auto best = latest_restorable(*backend);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->meta.id, 2u);  // newest wins while it verifies
  }
  corrupt_snapshot_file(store, 2);
  const auto backend = make_backend(spec);
  const auto best = latest_restorable(*backend);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 1u);  // falls back past the corrupt newest
  EXPECT_NO_THROW(best->verify());
}

TEST(FileBackendIntegrity, CorruptedPayloadFailsRestore) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "file:" + store.string();
  ImageFixture f;
  {
    const auto backend = make_backend(spec);
    CkptWriter writer(*backend);
    writer.take_full(f.image, 1.0);
  }
  corrupt_snapshot_file(store, 1);

  const auto backend = make_backend(spec);
  CkptWriter writer(*backend);
  const auto lib_before = f.lib;
  EXPECT_THROW(writer.restore_latest(f.image), io_error);
  // Verify-then-apply: the image was not half-restored.
  EXPECT_EQ(f.lib, lib_before);
}

TEST(FileBackendIntegrity, TruncatedFileIsRejected) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "file:" + store.string();
  ImageFixture f;
  {
    const auto backend = make_backend(spec);
    CkptWriter writer(*backend);
    writer.take_full(f.image, 1.0);
  }
  const fs::path file = store / "snap_1.ckpt";
  fs::resize_file(file, fs::file_size(file) - 1000);

  const auto backend = make_backend(spec);
  EXPECT_THROW((void)backend->read_snapshot(1), io_error);
  CkptWriter writer(*backend);
  EXPECT_THROW(writer.restore_latest(f.image), io_error);
}

TEST(FileBackendIntegrity, TornSnapshotIsRejected) {
  TempDir tmp;
  const fs::path store = tmp.path() / "store";
  const std::string spec = "file:" + store.string();
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 4000, 1000));
  }
  // Recreate the exact state a crash between the payload write and the
  // commit record leaves behind: committed = 0 (offset 12) with a *valid*
  // header CRC (the phase-1 header is written with its own CRC), so the
  // torn check — not the header-corruption check — must fire.
  std::fstream io(store / "snap_1.ckpt",
                  std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(io.good());
  std::array<char, 72> header{};
  io.read(header.data(), header.size());
  std::memset(header.data() + 12, 0, 4);  // committed = 0
  const std::uint32_t crc = common::crc32(
      std::span(reinterpret_cast<const std::byte*>(header.data()), 64));
  std::memcpy(header.data() + 64, &crc, 4);  // header_crc over bytes [0,64)
  io.seekp(0);
  io.write(header.data(), header.size());
  io.close();

  const auto backend = make_backend(spec);
  try {
    (void)backend->read_snapshot(1);
    FAIL() << "torn snapshot was accepted";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos)
        << "wrong rejection path: " << e.what();
  }
}

TEST(MmapBackendIntegrity, CorruptedArenaPayloadFailsRestore) {
  TempDir tmp;
  const fs::path arena = tmp.path() / "arena.ckpt";
  const std::string spec = "mmap:" + arena.string() + "?mb=8";
  ImageFixture f;
  {
    const auto backend = make_backend(spec);
    CkptWriter writer(*backend);
    writer.take_full(f.image, 1.0);
  }
  {
    // Flip a byte in the data area (past header + slot table).
    std::fstream io(arena, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(io.good());
    io.seekp(64 * 1024);
    char b = 0;
    io.seekg(64 * 1024);
    io.read(&b, 1);
    b = static_cast<char>(b ^ 0x80);
    io.seekp(64 * 1024);
    io.write(&b, 1);
  }
  const auto backend = make_backend(spec);
  CkptWriter writer(*backend);
  EXPECT_THROW(writer.restore_latest(f.image), io_error);
}

// --- log backend ------------------------------------------------------------

TEST(LogBackendPersistence, SurvivesReopenAcrossShards) {
  TempDir tmp;
  const std::string spec =
      "log:" + (tmp.path() / "store").string() + "?" + log_spec_options();
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
    for (const auto& entry : fs::directory_iterator(store))
      if (entry.path().filename().string().starts_with("wal_"))
        wal = entry.path();
    ASSERT_FALSE(wal.empty());
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
  // The suffix — and only the suffix — was cut back.
  EXPECT_EQ(fs::file_size(wal), committed_bytes);
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
    for (const auto& entry : fs::directory_iterator(store))
      if (entry.path().filename().string().starts_with("wal_"))
        wal = entry.path();
    ASSERT_FALSE(wal.empty());
    after_first = fs::file_size(wal);
    backend->write_snapshot(sample_blob(2, 2000, 500));
  }
  // Flip one payload byte of the *tail* record: its commit was never
  // acknowledged as far as recovery can tell, so it is torn, not corrupt.
  {
    std::fstream io(wal, std::ios::in | std::ios::out | std::ios::binary);
    const auto pos =
        static_cast<std::streamoff>(after_first) + 72 + 2 * 24 + 8 + 100;
    char b = 0;
    io.seekg(pos);
    io.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    io.seekp(pos);
    io.write(&b, 1);
  }
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
  fs::path wal;
  {
    const auto backend = make_backend(spec);
    backend->write_snapshot(sample_blob(1, 4000, 1000));
    backend->write_snapshot(sample_blob(2, 2000, 500));
    for (const auto& entry : fs::directory_iterator(store))
      if (entry.path().filename().string().starts_with("wal_"))
        wal = entry.path();
  }
  // Flip a payload byte of the *first* record: mid-file, so its commit was
  // acknowledged — recovery keeps it and verify() rejects it.
  {
    std::fstream io(wal, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff pos = 32 + 72 + 2 * 24 + 8 + 100;
    char b = 0;
    io.seekg(pos);
    io.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    io.seekp(pos);
    io.write(&b, 1);
  }
  const auto reopened = make_backend(spec);
  ASSERT_EQ(reopened->list().size(), 2u);
  EXPECT_THROW(reopened->read_snapshot(1).verify(), io_error);
  const auto best = latest_restorable(*reopened);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->meta.id, 2u);
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

TEST(LogBackendUring, RoundTripsWhenKernelSupportsIt) {
  if (!UringQueue::supported())
    GTEST_SKIP() << "io_uring unavailable in this kernel/container";
  TempDir tmp;
  const std::string spec =
      "log:" + (tmp.path() / "store").string() + "?shards=2&uring=1";
  const auto backend = make_backend(spec);
  auto* log = dynamic_cast<LogBackend*>(backend.get());
  ASSERT_NE(log, nullptr);
  EXPECT_TRUE(log->uring_active());
  for (CkptId id = 1; id <= 4; ++id)
    backend->write_snapshot(sample_blob(id, 60000, 20000));
  for (CkptId id = 1; id <= 4; ++id)
    EXPECT_NO_THROW(backend->read_snapshot(id).verify());
  // The uring-written store reopens fine without uring.
  LogBackend plain((tmp.path() / "store").string(),
                   LogBackend::Options{.shards = 2});
  plain.open();
  EXPECT_EQ(plain.list().size(), 4u);
}

TEST(UringQueue, WritesLandAtTheirOffsets) {
  if (!UringQueue::supported())
    GTEST_SKIP() << "io_uring unavailable in this kernel/container";
  TempDir tmp;
  const fs::path file = tmp.path() / "uring.bin";
  const int fd = ::open(file.c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  const auto a = pattern_bytes(3000, 7), b = pattern_bytes(5000, 8);
  {
    UringQueue queue(4);
    queue.submit_pwrite(fd, a.data(), a.size(), 0);
    queue.submit_pwrite(fd, b.data(), b.size(), a.size());
    queue.drain();
    EXPECT_EQ(queue.in_flight(), 0u);
  }
  ::close(fd);
  std::ifstream in(file, std::ios::binary);
  std::vector<char> back(a.size() + b.size());
  in.read(back.data(), static_cast<std::streamsize>(back.size()));
  ASSERT_EQ(static_cast<std::size_t>(in.gcount()), back.size());
  EXPECT_EQ(std::memcmp(back.data(), a.data(), a.size()), 0);
  EXPECT_EQ(std::memcmp(back.data() + a.size(), b.data(), b.size()), 0);
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
  EXPECT_THROW((void)make_backend("mmap:/tmp/x?mb=abc"),
               common::precondition_error);
  EXPECT_THROW((void)make_backend("mmap:/tmp/x?mb=4x"),
               common::precondition_error);
  EXPECT_THROW((void)make_backend("file:"), common::precondition_error);
}

TEST(StorageResolver, CalibratesMeasuredBackends) {
  TempDir tmp;
  auto& resolver = core::StorageResolver::instance();
  const auto model =
      resolver.resolve("file:" + (tmp.path() / "store").string());
  EXPECT_EQ(model.name, "measured:file");
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
