#pragma once
/// \file detail.hpp
/// Internal helpers shared by the backends and the log's compaction. Not
/// part of the public ckpt::io surface — the log's records and its
/// compacted segments embed the same 24-byte region record, and keeping it
/// (plus the errno/fd plumbing, the full-length read/write loops and the
/// read sinks) in one place means the commit and compaction paths and
/// their EINTR handling cannot silently drift apart.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>

#include "ckpt/io/backend.hpp"
#include "common/error.hpp"

namespace abftc::ckpt::io::detail {

/// One region's record in a log record's region table (after the
/// RecordHeader, log_format.hpp).
struct RegionEntry {
  std::uint64_t region = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(RegionEntry) == 24, "on-medium region entry layout");

/// Payload bytes a region table describes, saturating at UINT64_MAX so a
/// corrupt table cannot wrap around to a plausible sum.
inline std::uint64_t payload_sum(std::span<const RegionEntry> entries) {
  std::uint64_t total = 0;
  for (const RegionEntry& e : entries)
    total = e.bytes > UINT64_MAX - total ? UINT64_MAX : total + e.bytes;
  return total;
}

/// Ask `sink` where region `region` (`bytes` long) goes; an empty span
/// means "skip it". A span of any other size is a broken sink, reported
/// before a byte is written.
inline std::span<std::byte> sink_span(const RegionSink& sink, RegionId region,
                                      std::uint64_t bytes) {
  const std::span<std::byte> dst = sink(region, bytes);
  ABFTC_REQUIRE(dst.empty() || dst.size() == bytes,
                "read sink returned a span of the wrong size");
  return dst;
}

/// Run a read routine (`read` calls it with the sink it is given) with a
/// sink that allocates one payload vector per region, and collect the
/// result as a blob: read_snapshot, and the log backend's record reads,
/// which compaction uses too.
[[nodiscard]] SnapshotBlob read_blob(
    const std::function<ReadResult(const RegionSink&)>& read);

[[noreturn]] inline void sys_error(const std::string& what) {
  throw io_error(what + ": " + std::strerror(errno));
}

struct FdGuard {
  int fd = -1;
  FdGuard() = default;
  explicit FdGuard(int f) noexcept : fd(f) {}
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
};

inline std::size_t align_up(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) / a * a;
}

inline void pwrite_all(int fd, const void* buf, std::size_t n,
                       std::uint64_t off, const char* what) {
  const auto* p = static_cast<const std::byte*>(buf);
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      sys_error(std::string("pwrite ") + what);
    }
    p += w;
    off += static_cast<std::uint64_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

inline void pread_all(int fd, void* buf, std::size_t n, std::uint64_t off,
                      const std::string& path) {
  auto* p = static_cast<std::byte*>(buf);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      sys_error("pread " + path);
    }
    if (r == 0) throw io_error("truncated segment file: " + path);
    p += r;
    off += static_cast<std::uint64_t>(r);
    n -= static_cast<std::size_t>(r);
  }
}

inline void fsync_or_throw(int fd, const char* what) {
  if (::fsync(fd) != 0) sys_error(std::string("fsync ") + what);
}

/// Best-effort fsync of a directory so a rename inside it is durable.
/// Never throws: once the rename succeeded, the new file *is* the store's
/// state — failing here only means a crash could roll the rename back,
/// which readers handle as "commit never happened". Throwing would instead
/// desynchronize the in-memory state from the on-disk one.
inline void fsync_dir_best_effort(const std::string& dir) noexcept {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace abftc::ckpt::io::detail
