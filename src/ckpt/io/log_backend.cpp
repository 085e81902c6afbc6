/// \file log_backend.cpp
/// Sharded append-only changelog store (see log_backend.hpp for the format
/// and the recovery/locking contracts; compaction.cpp holds the rewrite
/// pass).

#include "ckpt/io/log_backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "ckpt/io/detail.hpp"
#include "ckpt/io/log_format.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"

namespace abftc::ckpt::io {

namespace {

namespace fs = std::filesystem;

using detail::align_up;
using detail::FdGuard;
using detail::fsync_or_throw;
using detail::pread_all;
using detail::pwrite_all;
using detail::RegionEntry;
using detail::sys_error;
using logf::kFrozenShard;
using logf::kLogVersion;
using logf::kRecMagic;
using logf::kSegMagic;
using logf::kTrailerMagic;
using logf::kTypeSnapshot;
using logf::kTypeTombstone;
using logf::RecordHeader;
using logf::SegmentHeader;

/// Same avalanche as the dist runtime's flip-site hashing: snapshot ids are
/// small consecutive integers, so shard = id % N would put one CkptWriter's
/// whole chain on rotating shards but *correlated* writers (rank r writes
/// ids r, r+N, ...) on one; the mix decorrelates both.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint32_t header_crc_of(const RecordHeader& h) {
  return common::crc32(std::span(reinterpret_cast<const std::byte*>(&h),
                                 offsetof(RecordHeader, header_crc)));
}

RecordHeader make_header(std::uint32_t type, const SnapshotMeta& meta,
                         std::uint32_t region_count, std::uint64_t seq) {
  RecordHeader h;
  h.type = type;
  h.id = meta.id;
  h.kind = static_cast<std::uint32_t>(meta.kind);
  h.region_count = region_count;
  h.when = meta.when;
  h.entry_link = meta.entry_link;
  h.payload_bytes = meta.bytes;
  h.seq = seq;
  h.header_crc = header_crc_of(h);
  return h;
}

/// Region table as stored: entries, table CRC, 4 B pad.
std::vector<std::byte> table_bytes(const std::vector<RegionEntry>& entries) {
  std::vector<std::byte> out(entries.size() * sizeof(RegionEntry) + 8);
  if (!entries.empty())
    std::memcpy(out.data(), entries.data(),
                entries.size() * sizeof(RegionEntry));
  const std::uint32_t crc = common::crc32(
      std::span(out.data(), entries.size() * sizeof(RegionEntry)));
  std::memcpy(out.data() + entries.size() * sizeof(RegionEntry), &crc, 4);
  return out;
}

std::uint64_t record_length(std::uint32_t region_count,
                            std::uint64_t payload_bytes) {
  return sizeof(RecordHeader) + region_count * sizeof(RegionEntry) + 8 +
         align_up(payload_bytes, 8) + logf::kTrailerBytes;
}

/// record CRC = crc32(table bytes) extended by the payload stream.
std::uint32_t record_crc_of(std::uint32_t table_crc_full,
                            std::uint32_t payload_crc,
                            std::uint64_t payload_bytes) {
  return common::crc32_combine(table_crc_full, payload_crc, payload_bytes);
}

std::array<std::byte, logf::kTrailerBytes> trailer_bytes(
    std::uint32_t record_crc) {
  std::array<std::byte, logf::kTrailerBytes> t{};
  std::memcpy(t.data(), &record_crc, 4);
  std::memcpy(t.data() + 4, &kTrailerMagic, 4);
  return t;
}

/// "wal_<shard>_<gen>.log" / "frozen_<gen>.log" → (shard, gen).
std::optional<std::pair<std::uint32_t, std::uint64_t>> parse_segment_name(
    const std::string& name) {
  const auto parse_u64 = [](const std::string& s,
                            std::uint64_t& out) {
    if (s.empty()) return false;
    out = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
  };
  if (!name.ends_with(".log")) return std::nullopt;
  const std::string stem = name.substr(0, name.size() - 4);
  if (stem.starts_with("wal_")) {
    const auto us = stem.find('_', 4);
    if (us == std::string::npos) return std::nullopt;
    std::uint64_t shard = 0, gen = 0;
    if (!parse_u64(stem.substr(4, us - 4), shard) ||
        !parse_u64(stem.substr(us + 1), gen))
      return std::nullopt;
    return std::pair{static_cast<std::uint32_t>(shard), gen};
  }
  if (stem.starts_with("frozen_")) {
    std::uint64_t gen = 0;
    if (!parse_u64(stem.substr(7), gen)) return std::nullopt;
    return std::pair{kFrozenShard, gen};
  }
  return std::nullopt;
}

}  // namespace

// --- Session ----------------------------------------------------------------

/// Holds the shard lock from construction to commit (or destruction): the
/// record occupies a contiguous extent at the shard's tail, so same-shard
/// committers serialize here while other shards proceed. The header area is
/// left unwritten until commit — an aborted or crashed session leaves bytes
/// that fail the magic check, which the recovery scan discards as a torn
/// suffix (the destructor additionally truncates them away).
class LogBackend::Session final : public StorageBackend::WriteSession {
 public:
  Session(LogBackend& backend, SnapshotMeta meta,
          std::vector<RegionId> regions, std::vector<std::uint64_t> sizes)
      : backend_(backend),
        meta_(meta),
        regions_(std::move(regions)),
        sizes_(std::move(sizes)) {
    {
      std::lock_guard idx(backend_.index_m_);
      ABFTC_REQUIRE(backend_.by_id_.find(meta_.id) == backend_.by_id_.end() &&
                        backend_.in_flight_.find(meta_.id) ==
                            backend_.in_flight_.end(),
                    "duplicate snapshot id");
      backend_.in_flight_.insert(meta_.id);
      registered_ = true;
    }
    try {
      shard_ = &backend_.lock_shard(meta_.id, lock_);
      backend_.ensure_writable(*shard_);
    } catch (...) {
      unregister();
      throw;
    }
    start_ = shard_->tail;
    payload_off_ = start_ + sizeof(RecordHeader) +
                   regions_.size() * sizeof(RegionEntry) + 8;
  }

  ~Session() override {
    if (committed_) return;
    // Abandoned/failed: cut the shard back to its committed tail.
    if (shard_ != nullptr && shard_->fd >= 0)
      (void)::ftruncate(shard_->fd, static_cast<off_t>(start_));
    unregister();
  }

  void append(std::span<const std::byte> chunk) override {
    ABFTC_REQUIRE(!committed_, "append after commit");
    ABFTC_REQUIRE(received_ + chunk.size() <= meta_.bytes,
                  "payload stream exceeds the declared snapshot size");
    const std::uint64_t off = payload_off_ + received_;
    received_ += chunk.size();
    pwrite_all(shard_->fd, chunk.data(), chunk.size(), off, "log payload");
  }

  void commit(const std::vector<std::uint32_t>& region_crcs) override {
    ABFTC_REQUIRE(!committed_, "double commit");
    ABFTC_REQUIRE(region_crcs.size() == regions_.size(),
                  "need one CRC per region");
    ABFTC_REQUIRE(received_ == meta_.bytes,
                  "payload stream shorter than the declared snapshot size");
    const std::uint64_t padded = align_up(meta_.bytes, 8);
    if (padded > meta_.bytes) {
      const std::byte zeros[8] = {};
      pwrite_all(shard_->fd, zeros, padded - meta_.bytes,
                 payload_off_ + meta_.bytes, "log payload pad");
    }

    std::uint64_t seq = 0;
    {
      std::lock_guard idx(backend_.index_m_);
      seq = backend_.next_seq_++;
    }

    std::vector<RegionEntry> entries(regions_.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
      entries[i] = RegionEntry{regions_[i], sizes_[i], region_crcs[i], 0};
    const auto table = table_bytes(entries);
    const RecordHeader h = make_header(
        kTypeSnapshot, meta_, static_cast<std::uint32_t>(regions_.size()),
        seq);
    std::vector<std::byte> head(sizeof(h) + table.size());
    std::memcpy(head.data(), &h, sizeof(h));
    std::memcpy(head.data() + sizeof(h), table.data(), table.size());
    pwrite_all(shard_->fd, head.data(), head.size(), start_, "log header");
    // The payload stream is the regions concatenated in order, so its CRC
    // folds out of the per-region CRCs the caller already computed — no
    // second hash pass over the payload on the commit path.
    common::Crc32Chunks payload_crc;
    for (std::size_t i = 0; i < region_crcs.size(); ++i)
      payload_crc.add(region_crcs[i], sizes_[i]);
    const auto trailer = trailer_bytes(record_crc_of(
        common::crc32(std::span(table)), payload_crc.value(), meta_.bytes));
    pwrite_all(shard_->fd, trailer.data(), trailer.size(),
               payload_off_ + padded, "log trailer");
    if (backend_.opts_.flush && ::fdatasync(shard_->fd) != 0)
      sys_error("fdatasync log segment");

    const std::uint64_t len =
        record_length(static_cast<std::uint32_t>(regions_.size()),
                      meta_.bytes);
    {
      std::lock_guard idx(backend_.index_m_);
      backend_.order_[seq] =
          RecordLoc{shard_->path, start_, len, meta_};
      backend_.by_id_[meta_.id] = seq;
      backend_.in_flight_.erase(meta_.id);
      registered_ = false;
    }
    shard_->tail = start_ + len;
    committed_ = true;
    shard_ = nullptr;
    lock_.unlock();
    backend_.maybe_compact();
  }

 private:
  void unregister() noexcept {
    if (!registered_) return;
    std::lock_guard idx(backend_.index_m_);
    backend_.in_flight_.erase(meta_.id);
    registered_ = false;
  }

  LogBackend& backend_;
  SnapshotMeta meta_;
  std::vector<RegionId> regions_;
  std::vector<std::uint64_t> sizes_;
  Shard* shard_ = nullptr;
  std::unique_lock<std::mutex> lock_;
  std::uint64_t start_ = 0;
  std::uint64_t payload_off_ = 0;
  std::uint64_t received_ = 0;
  bool registered_ = false;
  bool committed_ = false;
};

// --- LogBackend -------------------------------------------------------------

LogBackend::LogBackend(std::string directory)
    : LogBackend(std::move(directory), Options{}) {}

LogBackend::LogBackend(std::string directory, Options opts)
    : dir_(std::move(directory)), opts_(opts) {
  ABFTC_REQUIRE(opts_.shards >= 1 && opts_.shards <= 256,
                "log backend shard count must be in [1, 256]");
}

LogBackend::~LogBackend() {
  try {
    wait_for_compaction();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // A failed background pass left the store intact; nothing to unwind.
  }
  for (const auto& s : shards_)
    if (s->fd >= 0) ::close(s->fd);
}

LogBackend::Shard& LogBackend::lock_shard(CkptId id,
                                          std::unique_lock<std::mutex>& lock) {
  const std::size_t n = shards_.size();
  const std::size_t home = splitmix64(id) % n;
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = *shards_[(home + i) % n];
    lock = std::unique_lock(s.m, std::try_to_lock);
    if (lock.owns_lock()) return s;
  }
  lock = std::unique_lock(shards_[home]->m);
  return *shards_[home];
}

void LogBackend::ensure_writable(Shard& shard) {
  if (shard.fd >= 0) return;
  if (shard.path.empty()) {
    // Fresh shard (or just rolled by compaction): new generation segment.
    {
      std::lock_guard idx(index_m_);
      shard.gen = next_gen_++;
    }
    shard.path = dir_ + "/wal_" + std::to_string(shard.index) + "_" +
                 std::to_string(shard.gen) + ".log";
    shard.fd = ::open(shard.path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (shard.fd < 0) sys_error("create " + shard.path);
    SegmentHeader sh;
    sh.shard = shard.index;
    sh.gen = shard.gen;
    pwrite_all(shard.fd, &sh, sizeof(sh), 0, "log segment header");
    shard.tail = sizeof(SegmentHeader);
  } else {
    // Segment adopted by open(): append past the recovered tail.
    shard.fd = ::open(shard.path.c_str(), O_WRONLY);
    if (shard.fd < 0) sys_error("open " + shard.path);
  }
}

void LogBackend::open() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  ABFTC_REQUIRE(!ec, "cannot create checkpoint directory " + dir_);

  std::lock_guard idx(index_m_);
  order_.clear();
  by_id_.clear();
  in_flight_.clear();
  next_seq_ = 1;
  next_gen_ = 1;
  for (const auto& s : shards_)
    if (s->fd >= 0) ::close(s->fd);
  shards_.clear();
  for (unsigned i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = i;
  }

  /// A record that survived the scan, pending seq-level dedup.
  struct Candidate {
    RecordLoc loc;
    std::uint64_t gen = 0;
    std::uint32_t type = kTypeSnapshot;
  };
  std::map<std::uint64_t, Candidate> by_seq;

  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) {
      // A compaction pass that died before its rename; never referenced.
      fs::remove(entry.path(), ec);
      continue;
    }
    const auto parsed = parse_segment_name(name);
    if (!parsed.has_value()) continue;
    const auto [shard_idx, gen] = *parsed;
    next_gen_ = std::max(next_gen_, gen + 1);
    const std::string path = entry.path().string();
    const bool wal = shard_idx != kFrozenShard;

    FdGuard fd{::open(path.c_str(), O_RDONLY)};
    if (fd.fd < 0) sys_error("open " + path);
    struct stat st {};
    if (::fstat(fd.fd, &st) != 0) sys_error("stat " + path);
    const auto fsize = static_cast<std::uint64_t>(st.st_size);

    SegmentHeader sh;
    if (fsize < sizeof(sh)) continue;  // created but never headed: skip
    pread_all(fd.fd, &sh, sizeof(sh), 0, path);
    if (sh.magic != kSegMagic || sh.version != kLogVersion) continue;

    // Walk the records. good_end trails the last fully framed record so a
    // torn suffix can be cut; a *tail* record whose payload CRC fails is
    // part of that suffix (its commit was never acknowledged), a mid-file
    // one is kept as committed-but-corrupt for readers to reject.
    std::vector<std::pair<std::uint64_t, Candidate>> records;
    std::vector<bool> crc_ok;
    std::uint64_t off = sizeof(SegmentHeader);
    std::uint64_t good_end = off;
    std::vector<std::byte> buf;
    while (off + sizeof(RecordHeader) <= fsize) {
      RecordHeader h;
      pread_all(fd.fd, &h, sizeof(h), off, path);
      if (h.magic != kRecMagic || h.version != kLogVersion ||
          h.header_crc != header_crc_of(h))
        break;
      const std::uint64_t len = record_length(h.region_count,
                                              h.payload_bytes);
      if (off + len > fsize) break;
      const std::uint64_t table_len =
          h.region_count * sizeof(RegionEntry) + 8;
      buf.resize(table_len);
      pread_all(fd.fd, buf.data(), table_len, off + sizeof(h), path);
      std::uint32_t stored_table_crc = 0;
      std::memcpy(&stored_table_crc,
                  buf.data() + h.region_count * sizeof(RegionEntry), 4);
      if (stored_table_crc !=
          common::crc32(std::span(buf.data(),
                                  h.region_count * sizeof(RegionEntry))))
        break;
      const std::uint32_t table_crc_full =
          common::crc32(std::span(buf.data(), table_len));
      std::array<std::byte, logf::kTrailerBytes> trailer{};
      pread_all(fd.fd, trailer.data(), trailer.size(),
                off + len - logf::kTrailerBytes, path);
      std::uint32_t stored_record_crc = 0, stored_trailer_magic = 0;
      std::memcpy(&stored_record_crc, trailer.data(), 4);
      std::memcpy(&stored_trailer_magic, trailer.data() + 4, 4);
      if (stored_trailer_magic != kTrailerMagic) break;

      // Stream the payload CRC in bounded chunks.
      common::Crc32 pc;
      const std::uint64_t payload_at =
          off + sizeof(RecordHeader) + table_len;
      std::uint64_t rest = h.payload_bytes;
      std::uint64_t pos = payload_at;
      buf.resize(std::min<std::uint64_t>(rest, 1u << 20));
      while (rest > 0) {
        const std::size_t take =
            static_cast<std::size_t>(std::min<std::uint64_t>(rest,
                                                             1u << 20));
        pread_all(fd.fd, buf.data(), take, pos, path);
        pc.update(std::span(buf.data(), take));
        rest -= take;
        pos += take;
      }
      const bool ok = stored_record_crc ==
                      record_crc_of(table_crc_full, pc.value(),
                                    h.payload_bytes);
      Candidate c;
      c.type = h.type;
      c.loc = RecordLoc{path, off, len,
                        SnapshotMeta{h.id, static_cast<CkptKind>(h.kind),
                                     h.when, h.entry_link,
                                     h.payload_bytes}};
      c.gen = gen;
      records.emplace_back(h.seq, std::move(c));
      crc_ok.push_back(ok);
      good_end = off + len;
      off = good_end;
    }
    // The tail record of an unacknowledged commit: framed but its bytes
    // never all reached the medium. Discard it with the torn suffix.
    if (!records.empty() && !crc_ok.back()) {
      good_end = records.back().second.loc.offset;
      records.pop_back();
    }
    if (wal && good_end < fsize) {
      if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0)
        sys_error("truncate torn log suffix in " + path);
    }
    for (auto& [seq, cand] : records) {
      const auto it = by_seq.find(seq);
      // Duplicate seqs only arise from a crash between a compaction
      // rename and the old segments' unlink; the rewritten (higher-gen)
      // copy wins.
      if (it == by_seq.end() || it->second.gen < cand.gen)
        by_seq[seq] = std::move(cand);
    }
    if (wal && shard_idx < opts_.shards) {
      Shard& s = *shards_[shard_idx];
      if (gen > s.gen || s.path.empty()) {
        s.gen = gen;
        s.path = path;
        s.tail = good_end;
      }
    }
  }

  // Replay in sequence order: snapshots enter the index, tombstones erase
  // their (necessarily older) target.
  for (auto& [seq, cand] : by_seq) {
    next_seq_ = std::max(next_seq_, seq + 1);
    if (cand.type == kTypeTombstone) {
      const auto it = by_id_.find(cand.loc.meta.id);
      if (it != by_id_.end()) {
        order_.erase(it->second);
        by_id_.erase(it);
      }
      continue;
    }
    if (cand.type != kTypeSnapshot) continue;  // future record types
    const auto prev = by_id_.find(cand.loc.meta.id);
    if (prev != by_id_.end()) order_.erase(prev->second);
    by_id_[cand.loc.meta.id] = seq;
    order_[seq] = std::move(cand.loc);
  }
}

std::unique_ptr<StorageBackend::WriteSession> LogBackend::begin_snapshot(
    const SnapshotMeta& meta, std::vector<RegionId> regions,
    std::vector<std::uint64_t> region_sizes) {
  detail::require_valid_layout(meta, regions, region_sizes);
  return std::make_unique<Session>(*this, meta, std::move(regions),
                                   std::move(region_sizes));
}

ReadResult LogBackend::read_record_into(const RecordLoc& loc,
                                       const RegionSink& sink) const {
  FdGuard fd{::open(loc.file.c_str(), O_RDONLY)};
  if (fd.fd < 0) sys_error("open " + loc.file);

  RecordHeader h;
  pread_all(fd.fd, &h, sizeof(h), loc.offset, loc.file);
  if (h.magic != kRecMagic || h.version != kLogVersion)
    throw io_error("not a log record: " + loc.file);
  if (h.header_crc != header_crc_of(h))
    throw io_error("log record header corrupted: " + loc.file);
  if (h.type != kTypeSnapshot || h.id != loc.meta.id)
    throw io_error("log record mismatch for snapshot " +
                   std::to_string(loc.meta.id) + " in " + loc.file);

  const std::uint64_t table_len = h.region_count * sizeof(RegionEntry) + 8;
  std::vector<std::byte> table(table_len);
  pread_all(fd.fd, table.data(), table_len, loc.offset + sizeof(h),
            loc.file);
  std::uint32_t stored_table_crc = 0;
  std::memcpy(&stored_table_crc,
              table.data() + h.region_count * sizeof(RegionEntry), 4);
  if (stored_table_crc !=
      common::crc32(
          std::span(table.data(), h.region_count * sizeof(RegionEntry))))
    throw io_error("log record region table corrupted: " + loc.file);
  std::vector<RegionEntry> entries(h.region_count);
  if (h.region_count > 0)
    std::memcpy(entries.data(), table.data(),
                h.region_count * sizeof(RegionEntry));
  if (detail::payload_sum(entries) != h.payload_bytes)
    throw io_error("log record region table does not sum to its payload: " +
                   loc.file);

  ReadResult result{SnapshotMeta{h.id, static_cast<CkptKind>(h.kind), h.when,
                                 h.entry_link, h.payload_bytes},
                    {}};
  result.crcs.reserve(entries.size());
  std::uint64_t off = loc.offset + sizeof(h) + table_len;
  for (const RegionEntry& e : entries) {
    const std::span<std::byte> dst = detail::sink_span(sink, e.region, e.bytes);
    if (!dst.empty()) pread_all(fd.fd, dst.data(), dst.size(), off, loc.file);
    off += e.bytes;
    result.crcs.push_back(e.crc);
  }
  return result;
}

SnapshotBlob LogBackend::read_record(const RecordLoc& loc) const {
  return detail::read_blob([this, &loc](const RegionSink& sink) {
    return read_record_into(loc, sink);
  });
}

ReadResult LogBackend::read_regions(CkptId id, const RegionSink& sink) const {
  // Held across the whole read: the compaction pass relocates/unlinks
  // segments under this lock, so a record cannot vanish mid-read.
  std::lock_guard idx(index_m_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end())
    throw io_error("unknown snapshot id " + std::to_string(id));
  return read_record_into(order_.at(it->second), sink);
}

std::vector<SnapshotMeta> LogBackend::list() const {
  std::lock_guard idx(index_m_);
  std::vector<SnapshotMeta> out;
  out.reserve(order_.size());
  for (const auto& [seq, loc] : order_) out.push_back(loc.meta);
  return out;
}

void LogBackend::drop(CkptId id) {
  std::unique_lock<std::mutex> lock;
  Shard& shard = lock_shard(id, lock);
  {
    std::lock_guard idx(index_m_);
    if (by_id_.find(id) == by_id_.end())
      throw io_error("unknown snapshot id " + std::to_string(id));
  }
  ensure_writable(shard);

  std::uint64_t seq = 0;
  {
    std::lock_guard idx(index_m_);
    seq = next_seq_++;
  }
  SnapshotMeta tomb;
  tomb.id = id;
  const RecordHeader h = make_header(kTypeTombstone, tomb, 0, seq);
  const auto table = table_bytes({});
  std::vector<std::byte> rec(record_length(0, 0));
  std::memcpy(rec.data(), &h, sizeof(h));
  std::memcpy(rec.data() + sizeof(h), table.data(), table.size());
  const auto trailer =
      trailer_bytes(record_crc_of(common::crc32(std::span(table)), 0, 0));
  std::memcpy(rec.data() + sizeof(h) + table.size(), trailer.data(),
              trailer.size());
  pwrite_all(shard.fd, rec.data(), rec.size(), shard.tail, "log tombstone");
  if (opts_.flush && ::fdatasync(shard.fd) != 0)
    sys_error("fdatasync log segment");
  shard.tail += rec.size();

  std::lock_guard idx(index_m_);
  const auto it = by_id_.find(id);
  if (it != by_id_.end()) {
    order_.erase(it->second);
    by_id_.erase(it);
  }
}

std::vector<std::byte> LogBackend::encode_record(const SnapshotBlob& blob,
                                                 std::uint64_t seq) {
  const auto rc = static_cast<std::uint32_t>(blob.regions.size());
  std::vector<RegionEntry> entries(rc);
  for (std::size_t i = 0; i < blob.regions.size(); ++i)
    entries[i] = RegionEntry{blob.regions[i].region,
                             blob.regions[i].payload.size(),
                             blob.regions[i].crc, 0};
  const auto table = table_bytes(entries);
  const RecordHeader h = make_header(kTypeSnapshot, blob.meta, rc, seq);
  const std::uint64_t len = record_length(rc, blob.meta.bytes);

  std::vector<std::byte> out(len);  // zero-filled: payload pad comes free
  std::memcpy(out.data(), &h, sizeof(h));
  std::memcpy(out.data() + sizeof(h), table.data(), table.size());
  std::uint64_t off = sizeof(h) + table.size();
  common::Crc32 pc;
  for (const RegionBlob& r : blob.regions) {
    if (!r.payload.empty())
      std::memcpy(out.data() + off, r.payload.data(), r.payload.size());
    pc.update(std::span(r.payload));
    off += r.payload.size();
  }
  const auto trailer = trailer_bytes(record_crc_of(
      common::crc32(std::span(table)), pc.value(), blob.meta.bytes));
  std::memcpy(out.data() + len - logf::kTrailerBytes, trailer.data(),
              trailer.size());
  return out;
}

std::uint64_t LogBackend::live_bytes() const {
  std::lock_guard idx(index_m_);
  std::uint64_t total = 0;
  for (const auto& [seq, loc] : order_) total += loc.record_bytes;
  return total;
}

std::uint64_t LogBackend::segment_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!parse_segment_name(entry.path().filename().string()).has_value())
      continue;
    const auto size = fs::file_size(entry.path(), ec);
    if (!ec) total += size;
  }
  return total;
}

CompactionStats LogBackend::compaction_stats() const {
  std::lock_guard idx(index_m_);
  return stats_;
}

void LogBackend::maybe_compact() {
  if (opts_.compact_every == 0) return;
  if (commits_since_compact_.fetch_add(1, std::memory_order_relaxed) + 1 <
      opts_.compact_every)
    return;
  if (compact_pending_.exchange(true)) return;
  commits_since_compact_.store(0, std::memory_order_relaxed);
  common::Executor& ex = opts_.executor != nullptr
                             ? *opts_.executor
                             : common::Executor::global();
  // Best-effort in the background: a failed pass leaves the store exactly
  // as it was (the rewrite publishes nothing until its rename), so there
  // is no one to report to — the next pass simply tries again.
  std::future<void> f = ex.submit([this] {
    try {
      (void)compact_now();
    } catch (const io_error&) {  // NOLINT(bugprone-empty-catch)
    }
  });
  std::lock_guard fl(compact_future_m_);
  compact_future_ = std::move(f);
}

void LogBackend::wait_for_compaction() {
  std::future<void> f;
  {
    std::lock_guard fl(compact_future_m_);
    f = std::move(compact_future_);
  }
  if (f.valid()) f.wait();
}

}  // namespace abftc::ckpt::io
