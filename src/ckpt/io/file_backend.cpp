/// \file file_backend.cpp
/// One file per snapshot (`snap_<id>.ckpt`) plus a rewritten-atomically
/// MANIFEST, under a caller-chosen directory.
///
/// Snapshot file layout (all integers little-endian, natural alignment):
///
///   FileHeader   72 B   magic, version, committed flag, meta, payload
///                       offset/size, header CRC
///   RegionEntry  24 B × region_count   (region id, bytes, payload CRC)
///   table CRC     8 B   crc32 of the table + pad
///   payload       —     regions concatenated, starting at payload_offset
///
/// Commit discipline: header (committed=0) + placeholder table first, then
/// the payload stream, fsync, then the final table and a committed=1 header,
/// fsync again, and only then the manifest entry (tmp + rename + dir fsync).
/// A crash at any point leaves either no manifest entry or a fully durable
/// snapshot; readers additionally reject committed=0 files and size
/// mismatches, so even a manifest restored from backup cannot resurrect a
/// torn snapshot.
///
/// O_DIRECT (Options::direct) applies to the payload stream only, through a
/// 4 KiB-aligned bounce buffer (metadata goes through a second, buffered fd
/// on the same file). Filesystems without O_DIRECT (tmpfs) fall back to
/// buffered writes; direct_active() reports the outcome.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ckpt/io/backend.hpp"
#include "ckpt/io/detail.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace abftc::ckpt::io {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kMagic = 0x314F494354464241ull;  // "ABFTCIO1"
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kDirectAlign = 4096;
constexpr std::size_t kBounceBytes = 1 << 20;  // O_DIRECT staging buffer

struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t committed = 0;
  std::uint64_t id = 0;
  std::uint32_t kind = 0;
  std::uint32_t region_count = 0;
  double when = 0.0;
  std::uint64_t entry_link = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_offset = 0;
  std::uint32_t header_crc = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(FileHeader) == 72, "on-disk header layout");

using detail::align_up;
using detail::fsync_dir_best_effort;
using detail::fsync_or_throw;
using detail::pread_all;
using detail::pwrite_all;
using detail::RegionEntry;
using detail::sys_error;

std::uint32_t header_crc_of(const FileHeader& h) {
  // CRC of everything before the header_crc field itself.
  return common::crc32(std::span(reinterpret_cast<const std::byte*>(&h),
                                 offsetof(FileHeader, header_crc)));
}

struct FreeDeleter {
  void operator()(void* p) const noexcept { std::free(p); }
};

std::uint64_t payload_offset_for(std::uint32_t region_count, bool direct) {
  const std::size_t meta_bytes =
      sizeof(FileHeader) + region_count * sizeof(RegionEntry) + 8;
  return align_up(meta_bytes, direct ? kDirectAlign : 8);
}

std::vector<std::byte> table_bytes(const std::vector<RegionEntry>& entries) {
  std::vector<std::byte> out(entries.size() * sizeof(RegionEntry) + 8);
  std::memcpy(out.data(), entries.data(),
              entries.size() * sizeof(RegionEntry));
  const std::uint32_t crc = common::crc32(
      std::span(out.data(), entries.size() * sizeof(RegionEntry)));
  std::memcpy(out.data() + entries.size() * sizeof(RegionEntry), &crc, 4);
  return out;
}

}  // namespace

// --- Session ----------------------------------------------------------------

class FileBackend::Session final : public StorageBackend::WriteSession {
 public:
  Session(FileBackend& backend, SnapshotMeta meta,
          std::vector<RegionId> regions, std::vector<std::uint64_t> sizes)
      : backend_(backend),
        meta_(meta),
        regions_(std::move(regions)),
        sizes_(std::move(sizes)),
        path_(backend.snapshot_path(meta.id)) {
    // Metadata fd: always buffered.
    meta_fd_.fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (meta_fd_.fd < 0) sys_error("create " + path_);
    // Payload fd: O_DIRECT when requested and the filesystem allows it.
    direct_ = backend.opts_.direct;
    if (direct_) {
      data_fd_.fd = ::open(path_.c_str(), O_WRONLY | O_DIRECT);
      if (data_fd_.fd < 0) direct_ = false;  // tmpfs etc.: fall back
    }
    if (data_fd_.fd < 0) {
      data_fd_.fd = ::open(path_.c_str(), O_WRONLY);
      if (data_fd_.fd < 0) sys_error("open payload fd " + path_);
    }
    backend.direct_active_ = direct_;
    if (direct_) {
      void* p = nullptr;
      if (posix_memalign(&p, kDirectAlign, kBounceBytes) != 0)
        throw io_error("cannot allocate aligned bounce buffer");
      bounce_.reset(static_cast<std::byte*>(p));
    }

    payload_off_ = payload_offset_for(
        static_cast<std::uint32_t>(regions_.size()), direct_);
    // Phase 1: header with committed = 0 + zeroed table placeholder.
    FileHeader h = header(0);
    pwrite_all(meta_fd_.fd, &h, sizeof(h), 0, "header");
    const std::vector<std::byte> zeros(payload_off_ - sizeof(FileHeader));
    pwrite_all(meta_fd_.fd, zeros.data(), zeros.size(), sizeof(FileHeader),
               "table placeholder");
  }

  ~Session() override {
    if (!committed_) ::unlink(path_.c_str());  // abandoned: leave no debris
  }

  void append(std::span<const std::byte> chunk) override {
    ABFTC_REQUIRE(!committed_, "append after commit");
    ABFTC_REQUIRE(received_ + chunk.size() <= meta_.bytes,
                  "payload stream exceeds the declared snapshot size");
    if (!direct_) {
      pwrite_all(data_fd_.fd, chunk.data(), chunk.size(),
                 payload_off_ + received_, "payload");
      received_ += chunk.size();
      return;
    }
    // O_DIRECT: stage through the aligned bounce buffer.
    received_ += chunk.size();
    while (!chunk.empty()) {
      const std::size_t take =
          std::min(chunk.size(), kBounceBytes - bounce_fill_);
      std::memcpy(bounce_.get() + bounce_fill_, chunk.data(), take);
      bounce_fill_ += take;
      chunk = chunk.subspan(take);
      if (bounce_fill_ == kBounceBytes) flush_bounce(kBounceBytes);
    }
  }

  void commit(const std::vector<std::uint32_t>& region_crcs) override {
    ABFTC_REQUIRE(!committed_, "double commit");
    ABFTC_REQUIRE(region_crcs.size() == regions_.size(),
                  "need one CRC per region");
    if (direct_ && bounce_fill_ > 0) {
      // Pad the tail to the block size, write, then trim the file.
      const std::size_t padded = align_up(bounce_fill_, kDirectAlign);
      std::memset(bounce_.get() + bounce_fill_, 0, padded - bounce_fill_);
      flush_bounce(padded);
    }
    ABFTC_REQUIRE(received_ == meta_.bytes,
                  "payload stream shorter than the declared snapshot size");
    if (::ftruncate(meta_fd_.fd,
                    static_cast<off_t>(payload_off_ + meta_.bytes)) != 0)
      sys_error("ftruncate " + path_);
    fsync_or_throw(data_fd_.fd, "payload");

    // Phase 2: final table, then the committed header, then durability.
    std::vector<RegionEntry> entries(regions_.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
      entries[i] = RegionEntry{regions_[i], sizes_[i], region_crcs[i], 0};
    const auto table = table_bytes(entries);
    pwrite_all(meta_fd_.fd, table.data(), table.size(), sizeof(FileHeader),
               "table");
    FileHeader h = header(1);
    pwrite_all(meta_fd_.fd, &h, sizeof(h), 0, "final header");
    fsync_or_throw(meta_fd_.fd, "snapshot");

    backend_.record_commit(meta_);
    committed_ = true;
  }

 private:
  FileHeader header(std::uint32_t committed) const {
    FileHeader h;
    h.committed = committed;
    h.id = meta_.id;
    h.kind = static_cast<std::uint32_t>(meta_.kind);
    h.region_count = static_cast<std::uint32_t>(regions_.size());
    h.when = meta_.when;
    h.entry_link = meta_.entry_link;
    h.payload_bytes = meta_.bytes;
    h.payload_offset = payload_off_;
    h.header_crc = header_crc_of(h);
    return h;
  }

  void flush_bounce(std::size_t bytes) {
    // Writes stay block-aligned because flushes happen only at full buffers
    // (1 MiB) or once, padded, at commit; the padded tail past meta_.bytes
    // is trimmed by the ftruncate in commit().
    pwrite_all(data_fd_.fd, bounce_.get(), bytes, payload_off_ + flushed_,
               "payload (direct)");
    flushed_ += bytes;
    bounce_fill_ = 0;
  }

  FileBackend& backend_;
  SnapshotMeta meta_;
  std::vector<RegionId> regions_;
  std::vector<std::uint64_t> sizes_;
  std::string path_;
  detail::FdGuard meta_fd_, data_fd_;
  bool direct_ = false;
  std::unique_ptr<std::byte, FreeDeleter> bounce_;
  std::size_t bounce_fill_ = 0;
  std::uint64_t flushed_ = 0;   // block-aligned bytes on disk (direct mode)
  std::uint64_t received_ = 0;  // logical payload bytes accepted
  std::uint64_t payload_off_ = 0;
  bool committed_ = false;
};

// --- FileBackend ------------------------------------------------------------

FileBackend::FileBackend(std::string directory)
    : FileBackend(std::move(directory), Options{}) {}

FileBackend::FileBackend(std::string directory, Options opts)
    : dir_(std::move(directory)), opts_(opts) {}

FileBackend::~FileBackend() = default;

std::string FileBackend::snapshot_path(CkptId id) const {
  return dir_ + "/snap_" + std::to_string(id) + ".ckpt";
}

void FileBackend::open() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  ABFTC_REQUIRE(!ec, "cannot create checkpoint directory " + dir_);
  manifest_.clear();
  std::ifstream in(dir_ + "/MANIFEST");
  if (!in) return;  // fresh store
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    SnapshotMeta m;
    unsigned kind = 0;
    if (!(is >> m.id >> kind >> m.when >> m.entry_link >> m.bytes))
      throw io_error("malformed MANIFEST line: " + line);
    m.kind = static_cast<CkptKind>(kind);
    manifest_.push_back(m);
  }
}

void FileBackend::rewrite_manifest() const {
  const std::string tmp = dir_ + "/MANIFEST.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw io_error("cannot write " + tmp);
    for (const SnapshotMeta& m : manifest_)
      out << m.id << ' ' << static_cast<unsigned>(m.kind) << ' '
          << common::JsonWriter::number(m.when) << ' ' << m.entry_link << ' '
          << m.bytes << '\n';
    out.flush();
    if (!out) throw io_error("short write to " + tmp);
  }
  {
    detail::FdGuard fd{::open(tmp.c_str(), O_RDONLY)};
    if (fd.fd < 0) sys_error("reopen " + tmp);
    fsync_or_throw(fd.fd, "manifest");
  }
  // Failures up to and including the rename leave the old manifest intact
  // (callers roll their in-memory copy back); past the rename the update is
  // visible, so nothing may throw anymore.
  if (std::rename(tmp.c_str(), (dir_ + "/MANIFEST").c_str()) != 0)
    sys_error("rename manifest");
  fsync_dir_best_effort(dir_);
}

void FileBackend::record_commit(const SnapshotMeta& meta) {
  manifest_.push_back(meta);
  try {
    rewrite_manifest();
  } catch (...) {
    // Failed manifest write: the snapshot never became visible, so the
    // in-memory state must not claim it either (the session's destructor
    // unlinks the data file).
    manifest_.pop_back();
    throw;
  }
}

std::unique_ptr<StorageBackend::WriteSession> FileBackend::begin_snapshot(
    const SnapshotMeta& meta, std::vector<RegionId> regions,
    std::vector<std::uint64_t> region_sizes) {
  for (const SnapshotMeta& m : manifest_)
    ABFTC_REQUIRE(m.id != meta.id, "duplicate snapshot id");
  detail::require_valid_layout(meta, regions, region_sizes);
  return std::make_unique<Session>(*this, meta, std::move(regions),
                                   std::move(region_sizes));
}

ReadResult FileBackend::read_regions(CkptId id,
                                    const RegionSink& sink) const {
  const std::string path = snapshot_path(id);
  bool known = false;
  for (const SnapshotMeta& m : manifest_) known |= m.id == id;
  if (!known) throw io_error("unknown snapshot id " + std::to_string(id));

  detail::FdGuard fd{::open(path.c_str(), O_RDONLY)};
  if (fd.fd < 0) sys_error("open " + path);

  FileHeader h;
  pread_all(fd.fd, &h, sizeof(h), 0, path);
  if (h.magic != kMagic || h.version != kVersion)
    throw io_error("not a snapshot file: " + path);
  if (h.header_crc != header_crc_of(h))
    throw io_error("snapshot header corrupted: " + path);
  if (h.committed != 1)
    throw io_error("torn (uncommitted) snapshot: " + path);
  if (h.id != id) throw io_error("snapshot id mismatch in " + path);

  struct stat st {};
  if (::fstat(fd.fd, &st) != 0) sys_error("stat " + path);
  if (static_cast<std::uint64_t>(st.st_size) !=
      h.payload_offset + h.payload_bytes)
    throw io_error("truncated snapshot file: " + path);

  std::vector<RegionEntry> entries(h.region_count);
  std::vector<std::byte> table(h.region_count * sizeof(RegionEntry) + 8);
  pread_all(fd.fd, table.data(), table.size(), sizeof(FileHeader), path);
  std::uint32_t stored_table_crc = 0;
  std::memcpy(&stored_table_crc,
              table.data() + h.region_count * sizeof(RegionEntry), 4);
  if (stored_table_crc !=
      common::crc32(
          std::span(table.data(), h.region_count * sizeof(RegionEntry))))
    throw io_error("snapshot region table corrupted: " + path);
  if (!entries.empty())
    std::memcpy(entries.data(), table.data(),
                h.region_count * sizeof(RegionEntry));
  if (detail::payload_sum(entries) != h.payload_bytes)
    throw io_error("snapshot region table does not sum to its payload: " +
                   path);

  ReadResult result{SnapshotMeta{h.id, static_cast<CkptKind>(h.kind), h.when,
                                 h.entry_link, h.payload_bytes},
                    {}};
  result.crcs.reserve(entries.size());
  std::uint64_t off = h.payload_offset;
  for (const RegionEntry& e : entries) {
    const std::span<std::byte> dst = detail::sink_span(sink, e.region, e.bytes);
    pread_all(fd.fd, dst.data(), dst.size(), off, path);
    off += e.bytes;
    result.crcs.push_back(e.crc);
  }
  return result;
}

std::vector<SnapshotMeta> FileBackend::list() const { return manifest_; }

void FileBackend::drop(CkptId id) {
  const auto it =
      std::find_if(manifest_.begin(), manifest_.end(),
                   [id](const SnapshotMeta& m) { return m.id == id; });
  if (it == manifest_.end())
    throw io_error("unknown snapshot id " + std::to_string(id));
  const SnapshotMeta dropped = *it;
  const auto index = it - manifest_.begin();
  manifest_.erase(it);
  try {
    rewrite_manifest();
  } catch (...) {
    // Keep memory and disk in agreement (mirror of record_commit): the
    // durable manifest still lists the snapshot, so we must too.
    manifest_.insert(manifest_.begin() + index, dropped);
    throw;
  }
  ::unlink(snapshot_path(id).c_str());
}

}  // namespace abftc::ckpt::io
