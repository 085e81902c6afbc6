/// \file mmap_backend.cpp
/// A preallocated, mmap'd checkpoint arena: one file of fixed capacity
/// holding an ArenaHeader, a fixed slot table (the manifest), and a
/// bump-allocated data area of per-snapshot region tables + payloads.
///
/// Commit discipline mirrors the file backend: payload and region table are
/// memcpy'd into the data area and msync'd first, then the slot record is
/// filled and flagged committed and msync'd — a crash leaves an unused slot
/// and orphaned data bytes, never a half-visible snapshot (open() reclaims
/// such torn reservations). drop() clears the slot; data-area space is
/// bump-allocated and reclaimed when the dropped snapshot was the top of
/// the allocator or the arena empties, which matches the intended use — a
/// rotating window of a few live protection points, not a general store.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "ckpt/io/backend.hpp"
#include "ckpt/io/detail.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace abftc::ckpt::io {

namespace {

constexpr std::uint64_t kArenaMagic = 0x3152414354464241ull;  // "ABFTCAR1"
constexpr std::uint32_t kArenaVersion = 1;
constexpr std::uint32_t kSlots = 256;

struct ArenaHeader {
  std::uint64_t magic = kArenaMagic;
  std::uint32_t version = kArenaVersion;
  std::uint32_t slot_count = kSlots;
  std::uint64_t capacity = 0;
  std::uint64_t data_cursor = 0;  ///< next free byte in the data area
  std::uint64_t next_seq = 1;     ///< commit-order counter
};
static_assert(sizeof(ArenaHeader) == 40);

struct Slot {
  std::uint32_t used = 0;
  std::uint32_t committed = 0;
  std::uint64_t id = 0;
  std::uint32_t kind = 0;
  std::uint32_t region_count = 0;
  double when = 0.0;
  std::uint64_t entry_link = 0;
  std::uint64_t bytes = 0;   ///< payload bytes
  std::uint64_t offset = 0;  ///< arena offset of the region table
  std::uint64_t seq = 0;     ///< commit order
};
static_assert(sizeof(Slot) == 64);

using detail::RegionEntry;

constexpr std::size_t kDataStart =
    (sizeof(ArenaHeader) + kSlots * sizeof(Slot) + 63) / 64 * 64;

using detail::sys_error;

std::size_t align8(std::size_t v) noexcept { return detail::align_up(v, 8); }

/// msync the byte range [base+off, base+off+len), page-aligned as required.
void sync_range(void* base, std::size_t off, std::size_t len) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t lo = off / page * page;
  const std::size_t hi = off + len;
  if (::msync(static_cast<std::byte*>(base) + lo, hi - lo, MS_SYNC) != 0)
    sys_error("msync arena");
}

}  // namespace

struct MmapBackend::Arena {
  ArenaHeader header;
  Slot slots[kSlots];

  [[nodiscard]] std::byte* base() noexcept {
    return reinterpret_cast<std::byte*>(this);
  }
  [[nodiscard]] const std::byte* base() const noexcept {
    return reinterpret_cast<const std::byte*>(this);
  }
  [[nodiscard]] const Slot* find(CkptId id) const noexcept {
    for (const Slot& s : slots)
      if (s.used && s.committed && s.id == id) return &s;
    return nullptr;
  }
};

// --- Session ----------------------------------------------------------------

class MmapBackend::Session final : public StorageBackend::WriteSession {
 public:
  Session(MmapBackend& backend, SnapshotMeta meta,
          std::vector<RegionId> regions, std::vector<std::uint64_t> sizes)
      : backend_(backend),
        meta_(meta),
        regions_(std::move(regions)),
        sizes_(std::move(sizes)) {
    Arena* a = backend.arena();
    slot_ = -1;
    for (std::uint32_t i = 0; i < kSlots; ++i)
      if (!a->slots[i].used) {
        slot_ = static_cast<int>(i);
        break;
      }
    if (slot_ < 0) throw io_error("mmap arena slot table full");

    table_off_ = a->header.data_cursor;
    payload_off_ = table_off_ + align8(regions_.size() * sizeof(RegionEntry));
    const std::uint64_t end = payload_off_ + meta_.bytes;
    if (end > backend.capacity_)
      throw io_error("mmap arena full: need " + std::to_string(end) +
                     " bytes, capacity " + std::to_string(backend.capacity_) +
                     " (drop old snapshots or grow ?mb=)");
    a->header.data_cursor = end;
    a->slots[static_cast<std::size_t>(slot_)].used = 1;  // reserved, torn
  }

  ~Session() override {
    if (committed_) return;
    // Abandoned: sessions are serialized, so the reservation is still the
    // top of the bump allocator and can be rolled back.
    Arena* a = backend_.arena();
    a->header.data_cursor = table_off_;
    a->slots[static_cast<std::size_t>(slot_)] = Slot{};
  }

  void append(std::span<const std::byte> chunk) override {
    ABFTC_REQUIRE(!committed_, "append after commit");
    ABFTC_REQUIRE(written_ + chunk.size() <= meta_.bytes,
                  "payload stream exceeds the declared snapshot size");
    std::memcpy(backend_.arena()->base() + payload_off_ + written_,
                chunk.data(), chunk.size());
    written_ += chunk.size();
  }

  void commit(const std::vector<std::uint32_t>& region_crcs) override {
    ABFTC_REQUIRE(!committed_, "double commit");
    ABFTC_REQUIRE(region_crcs.size() == regions_.size(),
                  "need one CRC per region");
    ABFTC_REQUIRE(written_ == meta_.bytes,
                  "payload stream shorter than the declared snapshot size");
    Arena* a = backend_.arena();

    std::vector<RegionEntry> entries(regions_.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
      entries[i] = RegionEntry{regions_[i], sizes_[i], region_crcs[i], 0};
    std::memcpy(a->base() + table_off_, entries.data(),
                entries.size() * sizeof(RegionEntry));
    // Payload + table durable before the slot becomes visible.
    sync_range(a, table_off_, payload_off_ - table_off_ + meta_.bytes);

    Slot& s = a->slots[static_cast<std::size_t>(slot_)];
    s.id = meta_.id;
    s.kind = static_cast<std::uint32_t>(meta_.kind);
    s.region_count = static_cast<std::uint32_t>(regions_.size());
    s.when = meta_.when;
    s.entry_link = meta_.entry_link;
    s.bytes = meta_.bytes;
    s.offset = table_off_;
    s.seq = a->header.next_seq++;
    // The committed flag is set *last* with release ordering: a committer
    // SIGKILLed mid-commit must never leave a flagged slot whose other
    // fields were not yet stored (plain stores could be compiler-reordered
    // past the flag; the shared mapping makes every executed store durable
    // the instant the process dies).
    std::atomic_ref<std::uint32_t>(s.committed)
        .store(1, std::memory_order_release);
    sync_range(a, 0, kDataStart);  // header + slot table
    committed_ = true;
  }

 private:
  MmapBackend& backend_;
  SnapshotMeta meta_;
  std::vector<RegionId> regions_;
  std::vector<std::uint64_t> sizes_;
  int slot_ = -1;
  std::uint64_t table_off_ = 0;
  std::uint64_t payload_off_ = 0;
  std::uint64_t written_ = 0;
  bool committed_ = false;
};

// --- MmapBackend ------------------------------------------------------------

MmapBackend::MmapBackend(std::string path, std::size_t capacity_bytes)
    : path_(std::move(path)), capacity_(capacity_bytes) {
  ABFTC_REQUIRE(capacity_ > kDataStart + (1 << 12),
                "mmap arena capacity too small");
}

MmapBackend::~MmapBackend() { close_map(); }

void MmapBackend::close_map() noexcept {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
}

MmapBackend::Arena* MmapBackend::arena() const {
  ABFTC_REQUIRE(map_ != nullptr, "mmap backend not open()ed");
  return static_cast<Arena*>(map_);
}

void MmapBackend::open() {
  close_map();
  int fd = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) sys_error("open arena " + path_);
  detail::FdGuard guard{fd};

  struct stat st {};
  if (::fstat(fd, &st) != 0) sys_error("stat arena " + path_);
  const bool fresh = st.st_size == 0;
  if (fresh) {
    if (::ftruncate(fd, static_cast<off_t>(capacity_)) != 0)
      sys_error("preallocate arena " + path_);
  } else {
    if (static_cast<std::size_t>(st.st_size) < sizeof(ArenaHeader))
      throw io_error("truncated arena file: " + path_);
  }

  // An existing arena dictates its own capacity (persisted in the header).
  std::size_t len = fresh ? capacity_ : static_cast<std::size_t>(st.st_size);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (p == MAP_FAILED) sys_error("mmap arena " + path_);
  map_ = p;
  map_len_ = len;

  Arena* a = arena();
  if (fresh) {
    a->header = ArenaHeader{};
    a->header.capacity = capacity_;
    a->header.data_cursor = kDataStart;
    for (Slot& s : a->slots) s = Slot{};
    sync_range(a, 0, kDataStart);
  } else {
    if (a->header.magic != kArenaMagic || a->header.version != kArenaVersion)
      throw io_error("not a checkpoint arena: " + path_);
    if (a->header.capacity != map_len_)
      throw io_error("truncated arena file: " + path_);
    capacity_ = a->header.capacity;
    // Reclaim torn reservations a crash mid-session may have left behind
    // (used slot never committed, cursor advanced past orphaned bytes):
    // clear the slots and rewind the cursor to the end of the last
    // committed snapshot. A SIGKILLed committer can also leave a slot that
    // *is* flagged committed but whose record is half-written (the flag is
    // stored last, but a crash between page writebacks — or a torn write
    // from a fault injector — can still surface one); a committed slot
    // whose geometry does not describe a snapshot inside the arena is
    // equally torn and must not be treated as live.
    bool torn = false;
    std::uint64_t cursor = kDataStart;
    for (Slot& s : a->slots) {
      const std::uint64_t extent =
          s.offset + align8(s.region_count * sizeof(RegionEntry)) + s.bytes;
      const bool valid = s.id != 0 && s.offset >= kDataStart &&
                         s.offset <= capacity_ && extent >= s.offset &&
                         extent <= capacity_ && s.seq != 0 &&
                         s.seq < a->header.next_seq;
      if (s.used && (!s.committed || !valid)) {
        s = Slot{};
        torn = true;
      } else if (s.used) {
        cursor = std::max(cursor, extent);
      }
    }
    if (torn || a->header.data_cursor < cursor) {
      a->header.data_cursor = cursor;
      sync_range(a, 0, kDataStart);
    }
  }
}

std::size_t MmapBackend::free_bytes() const noexcept {
  if (map_ == nullptr) return 0;
  return capacity_ - static_cast<Arena*>(map_)->header.data_cursor;
}

std::unique_ptr<StorageBackend::WriteSession> MmapBackend::begin_snapshot(
    const SnapshotMeta& meta, std::vector<RegionId> regions,
    std::vector<std::uint64_t> region_sizes) {
  detail::require_valid_layout(meta, regions, region_sizes);
  ABFTC_REQUIRE(arena()->find(meta.id) == nullptr, "duplicate snapshot id");
  return std::make_unique<Session>(*this, meta, std::move(regions),
                                   std::move(region_sizes));
}

ReadResult MmapBackend::read_regions(CkptId id,
                                    const RegionSink& sink) const {
  const Arena* a = arena();
  const Slot* s = a->find(id);
  if (s == nullptr)
    throw io_error("unknown snapshot id " + std::to_string(id));
  if (s->offset + align8(s->region_count * sizeof(RegionEntry)) + s->bytes >
      capacity_)
    throw io_error("corrupt slot record for snapshot " + std::to_string(id));

  std::vector<RegionEntry> entries(s->region_count);
  if (!entries.empty())
    std::memcpy(entries.data(), a->base() + s->offset,
                s->region_count * sizeof(RegionEntry));
  if (detail::payload_sum(entries) != s->bytes)
    throw io_error("corrupt region table for snapshot " + std::to_string(id));

  ReadResult result{SnapshotMeta{s->id, static_cast<CkptKind>(s->kind),
                                 s->when, s->entry_link, s->bytes},
                    {}};
  result.crcs.reserve(entries.size());
  std::uint64_t off = s->offset + align8(s->region_count * sizeof(RegionEntry));
  for (const RegionEntry& e : entries) {
    const std::span<std::byte> dst = detail::sink_span(sink, e.region, e.bytes);
    std::memcpy(dst.data(), a->base() + off, dst.size());
    off += e.bytes;
    result.crcs.push_back(e.crc);
  }
  return result;
}

std::vector<SnapshotMeta> MmapBackend::list() const {
  const Arena* a = arena();
  std::vector<const Slot*> live;
  for (const Slot& s : a->slots)
    if (s.used && s.committed) live.push_back(&s);
  std::sort(live.begin(), live.end(),
            [](const Slot* x, const Slot* y) { return x->seq < y->seq; });
  std::vector<SnapshotMeta> out;
  out.reserve(live.size());
  for (const Slot* s : live)
    out.push_back(SnapshotMeta{s->id, static_cast<CkptKind>(s->kind), s->when,
                               s->entry_link, s->bytes});
  return out;
}

void MmapBackend::drop(CkptId id) {
  Arena* a = arena();
  Slot* target = nullptr;
  bool others = false;
  for (Slot& s : a->slots) {
    if (s.used && s.committed && s.id == id) target = &s;
    else if (s.used) others = true;
  }
  if (target == nullptr)
    throw io_error("unknown snapshot id " + std::to_string(id));
  const std::uint64_t begin = target->offset;
  const std::uint64_t end =
      begin + align8(target->region_count * sizeof(RegionEntry)) +
      target->bytes;
  *target = Slot{};
  // Bump allocation: dropping the top of the allocator rewinds the cursor
  // (write/restore/drop cycles — the calibrator, rotating protection
  // points — never grow the arena); dropping the last snapshot resets it.
  if (!others) a->header.data_cursor = kDataStart;
  else if (end == a->header.data_cursor) a->header.data_cursor = begin;
  sync_range(a, 0, kDataStart);
}

}  // namespace abftc::ckpt::io
