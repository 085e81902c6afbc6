#include "ckpt/io/backend.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>

#include "ckpt/io/log_backend.hpp"
#include "common/cli.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace abftc::ckpt::io {

void SnapshotBlob::verify() const {
  std::uint64_t total = 0;
  for (const RegionBlob& r : regions) {
    const std::uint32_t got = common::crc32(std::span(r.payload));
    if (got != r.crc) {
      std::ostringstream os;
      os << "snapshot " << meta.id << " region " << r.region
         << " payload CRC mismatch (stored " << r.crc << ", computed " << got
         << ")";
      throw io_error(os.str());
    }
    total += r.payload.size();
  }
  if (total != meta.bytes) {
    std::ostringstream os;
    os << "snapshot " << meta.id << " payload size " << total
       << " does not match metadata " << meta.bytes;
    throw io_error(os.str());
  }
}

namespace detail {

void require_valid_layout(const SnapshotMeta& meta,
                          const std::vector<RegionId>& regions,
                          const std::vector<std::uint64_t>& sizes) {
  ABFTC_REQUIRE(meta.id != 0, "snapshot id 0 is reserved");
  // A non-finite timestamp would serialize as `null` in the file backend's
  // manifest and poison every later open of the store.
  ABFTC_REQUIRE(std::isfinite(meta.when),
                "snapshot timestamp must be finite");
  ABFTC_REQUIRE(regions.size() == sizes.size(),
                "region id/size lists must align");
  // An empty region list is legal: an Incremental taken while nothing was
  // dirty records "no change here".
  const std::uint64_t total =
      std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
  ABFTC_REQUIRE(total == meta.bytes,
                "snapshot meta.bytes must equal the region size sum");
  for (const std::uint64_t s : sizes)
    ABFTC_REQUIRE(s > 0, "regions must not be empty");
}

void write_via_session(StorageBackend& backend, const SnapshotBlob& blob) {
  std::vector<RegionId> regions;
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint32_t> crcs;
  regions.reserve(blob.regions.size());
  sizes.reserve(blob.regions.size());
  crcs.reserve(blob.regions.size());
  for (const RegionBlob& r : blob.regions) {
    regions.push_back(r.region);
    sizes.push_back(r.payload.size());
    crcs.push_back(r.crc);
  }
  auto session =
      backend.begin_snapshot(blob.meta, std::move(regions), std::move(sizes));
  for (const RegionBlob& r : blob.regions)
    session->append(std::span(r.payload));
  session->commit(crcs);
}

}  // namespace detail

void StorageBackend::write_snapshot(const SnapshotBlob& blob) {
  detail::write_via_session(*this, blob);
}

// --- MemoryBackend ----------------------------------------------------------

/// Builds the stored SnapshotBlob in place: appends land directly in the
/// region payload vectors, commit moves the finished blob into the store.
class MemoryBackend::Session final : public StorageBackend::WriteSession {
 public:
  Session(MemoryBackend& backend, SnapshotMeta meta,
          const std::vector<RegionId>& regions,
          const std::vector<std::uint64_t>& sizes)
      : backend_(backend) {
    blob_.meta = meta;
    blob_.regions.reserve(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i) {
      RegionBlob r;
      r.region = regions[i];
      r.payload.reserve(sizes[i]);
      blob_.regions.push_back(std::move(r));
    }
    for (const std::uint64_t s : sizes) remaining_.push_back(s);
  }

  void append(std::span<const std::byte> chunk) override {
    ABFTC_REQUIRE(!committed_, "append after commit");
    while (!chunk.empty()) {
      while (region_ < remaining_.size() && remaining_[region_] == 0)
        ++region_;
      ABFTC_REQUIRE(region_ < remaining_.size(),
                    "payload stream exceeds the declared snapshot size");
      const std::size_t take =
          std::min<std::size_t>(chunk.size(), remaining_[region_]);
      auto& payload = blob_.regions[region_].payload;
      payload.insert(payload.end(), chunk.begin(),
                     chunk.begin() + static_cast<std::ptrdiff_t>(take));
      remaining_[region_] -= take;
      chunk = chunk.subspan(take);
    }
  }

  void commit(const std::vector<std::uint32_t>& region_crcs) override {
    ABFTC_REQUIRE(!committed_, "double commit");
    ABFTC_REQUIRE(region_crcs.size() == blob_.regions.size(),
                  "need one CRC per region");
    for (const std::uint64_t r : remaining_)
      ABFTC_REQUIRE(r == 0,
                    "payload stream shorter than the declared snapshot size");
    for (std::size_t i = 0; i < region_crcs.size(); ++i)
      blob_.regions[i].crc = region_crcs[i];
    backend_.snapshots_.push_back(std::move(blob_));
    committed_ = true;
  }

 private:
  MemoryBackend& backend_;
  SnapshotBlob blob_;
  std::vector<std::uint64_t> remaining_;  // per-region bytes still expected
  std::size_t region_ = 0;                // region currently being filled
  bool committed_ = false;
};

std::unique_ptr<StorageBackend::WriteSession> MemoryBackend::begin_snapshot(
    const SnapshotMeta& meta, std::vector<RegionId> regions,
    std::vector<std::uint64_t> region_sizes) {
  detail::require_valid_layout(meta, regions, region_sizes);
  for (const SnapshotBlob& s : snapshots_)
    ABFTC_REQUIRE(s.meta.id != meta.id, "duplicate snapshot id");
  return std::make_unique<Session>(*this, meta, regions, region_sizes);
}

SnapshotBlob MemoryBackend::read_snapshot(CkptId id) const {
  for (const SnapshotBlob& s : snapshots_)
    if (s.meta.id == id) return s;
  throw io_error("unknown snapshot id " + std::to_string(id));
}

std::vector<SnapshotMeta> MemoryBackend::list() const {
  std::vector<SnapshotMeta> out;
  out.reserve(snapshots_.size());
  for (const SnapshotBlob& s : snapshots_) out.push_back(s.meta);
  return out;
}

void MemoryBackend::drop(CkptId id) {
  const auto it =
      std::find_if(snapshots_.begin(), snapshots_.end(),
                   [id](const SnapshotBlob& s) { return s.meta.id == id; });
  if (it == snapshots_.end())
    throw io_error("unknown snapshot id " + std::to_string(id));
  snapshots_.erase(it);
}

std::size_t MemoryBackend::stored_bytes() const noexcept {
  std::size_t n = 0;
  for (const SnapshotBlob& s : snapshots_) n += s.meta.bytes;
  return n;
}

std::optional<SnapshotBlob> latest_restorable(const StorageBackend& backend) {
  const std::vector<SnapshotMeta> metas = backend.list();
  for (auto it = metas.rbegin(); it != metas.rend(); ++it) {
    try {
      SnapshotBlob blob = backend.read_snapshot(it->id);
      blob.verify();
      return blob;
    } catch (const io_error&) {
      // Torn, truncated or corrupt — fall back to the next-older snapshot.
    }
  }
  return std::nullopt;
}

// --- make_backend -----------------------------------------------------------

namespace {

/// Split "scheme:rest?k=v" into (scheme, rest, options-string).
struct SpecParts {
  std::string scheme;
  std::string rest;
  std::string options;
};

SpecParts split_spec(std::string_view spec) {
  SpecParts p;
  std::string_view body = spec;
  const auto qmark = body.find('?');
  if (qmark != std::string_view::npos) {
    p.options = std::string(body.substr(qmark + 1));
    // URL-style '&' and list-style ',' separators are interchangeable, so
    // specs read naturally both quoted ("log:d?shards=4&uring=1") and
    // comma-joined inside larger comma lists.
    std::replace(p.options.begin(), p.options.end(), '&', ',');
    body = body.substr(0, qmark);
  }
  const auto colon = body.find(':');
  if (colon == std::string_view::npos) {
    p.scheme = std::string(body);
  } else {
    p.scheme = std::string(body.substr(0, colon));
    p.rest = std::string(body.substr(colon + 1));
  }
  return p;
}

/// "k1=v1,k2=v2" lookup via the shared structured-spec parser; empty string
/// when the key is absent (or the whole option tail is empty).
std::string spec_option(const std::string& options, std::string_view key) {
  if (options.empty()) return {};
  const auto items = common::parse_key_values(options, ',', '=');
  return common::find_key_value(items, key).value_or(std::string{});
}

/// Strictly parse a positive integer option, with bounds.
long spec_long(const std::string& value, std::string_view what, long lo,
               long hi) {
  char* end = nullptr;
  errno = 0;
  const long val = std::strtol(value.c_str(), &end, 10);
  ABFTC_REQUIRE(end != value.c_str() && *end == '\0' && errno == 0 &&
                    val >= lo && val <= hi,
                "malformed " + std::string(what) + " '" + value + "'");
  return val;
}

}  // namespace

std::unique_ptr<StorageBackend> make_backend(std::string_view spec) {
  const SpecParts p = split_spec(spec);
  std::unique_ptr<StorageBackend> backend;
  if (p.scheme == "memory") {
    ABFTC_REQUIRE(p.rest.empty(), "memory backend takes no path");
    backend = std::make_unique<MemoryBackend>();
  } else if (p.scheme == "file") {
    ABFTC_REQUIRE(!p.rest.empty(), "file backend needs a directory: file:DIR");
    FileBackend::Options opts;
    opts.direct = spec_option(p.options, "direct") == "1";
    backend = std::make_unique<FileBackend>(p.rest, opts);
  } else if (p.scheme == "mmap") {
    ABFTC_REQUIRE(!p.rest.empty(), "mmap backend needs a path: mmap:PATH");
    std::size_t capacity = MmapBackend::kDefaultCapacity;
    if (const std::string mb = spec_option(p.options, "mb"); !mb.empty()) {
      char* end = nullptr;
      errno = 0;
      const long val = std::strtol(mb.c_str(), &end, 10);
      ABFTC_REQUIRE(end != mb.c_str() && *end == '\0' && errno == 0 &&
                        val > 0 && val <= (1l << 40),
                    "malformed mmap arena capacity '?mb=" + mb + "'");
      capacity = static_cast<std::size_t>(val) << 20;
    }
    backend = std::make_unique<MmapBackend>(p.rest, capacity);
  } else if (p.scheme == "log") {
    ABFTC_REQUIRE(!p.rest.empty(), "log backend needs a directory: log:DIR");
    LogBackend::Options opts;
    if (const std::string s = spec_option(p.options, "shards"); !s.empty())
      opts.shards =
          static_cast<unsigned>(spec_long(s, "log shard count", 1, 256));
    opts.uring = spec_option(p.options, "uring") == "1";
    if (const std::string f = spec_option(p.options, "flush"); !f.empty())
      opts.flush = f != "0";
    if (const std::string c = spec_option(p.options, "compact"); !c.empty())
      opts.compact_every = static_cast<unsigned>(
          spec_long(c, "log compaction interval", 1, 1l << 30));
    backend = std::make_unique<LogBackend>(p.rest, opts);
  } else {
    ABFTC_REQUIRE(false, "unknown storage backend scheme '" + p.scheme +
                             "' (known: memory, file:DIR, mmap:PATH, "
                             "log:DIR)");
  }
  backend->open();
  return backend;
}

}  // namespace abftc::ckpt::io
