#include "ckpt/io/backend.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>

#include "ckpt/io/detail.hpp"
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
  // A non-finite timestamp places the snapshot nowhere on the run's
  // timeline, so no restore could order it against the others.
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

SnapshotBlob read_blob(
    const std::function<ReadResult(const RegionSink&)>& read) {
  SnapshotBlob blob;
  ReadResult result =
      read([&blob](RegionId region, std::uint64_t bytes) {
        // Moving a RegionBlob when the vector grows keeps its payload
        // buffer, so spans handed out earlier stay valid.
        RegionBlob& r = blob.regions.emplace_back();
        r.region = region;
        r.payload.resize(bytes);
        return std::span(r.payload);
      });
  blob.meta = result.meta;
  for (std::size_t i = 0; i < blob.regions.size(); ++i)
    blob.regions[i].crc = result.crcs[i];
  return blob;
}

}  // namespace detail

void StorageBackend::write_snapshot(const SnapshotBlob& blob) {
  detail::write_via_session(*this, blob);
}

SnapshotBlob StorageBackend::read_snapshot(CkptId id) const {
  return detail::read_blob(
      [this, id](const RegionSink& sink) { return read_regions(id, sink); });
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

ReadResult MemoryBackend::read_regions(CkptId id,
                                      const RegionSink& sink) const {
  for (const SnapshotBlob& s : snapshots_) {
    if (s.meta.id != id) continue;
    ReadResult result{s.meta, {}};
    result.crcs.reserve(s.regions.size());
    for (const RegionBlob& r : s.regions) {
      const std::span<std::byte> dst =
          detail::sink_span(sink, r.region, r.payload.size());
      if (!dst.empty())
        std::memcpy(dst.data(), r.payload.data(), r.payload.size());
      result.crcs.push_back(r.crc);
    }
    return result;
  }
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

namespace {

/// The restore walk: list() from newest to oldest, returning what
/// `restore(metas, i)` yields for the first candidate metas[i] it does not
/// reject with io_error. When nothing restores but the store's records
/// changed meanwhile (a compaction pass folded or dropped some), the walk
/// starts over on the new list.
template <class Restore>
auto newest_restorable(const StorageBackend& backend, const Restore& restore)
    -> std::optional<decltype(restore(std::vector<SnapshotMeta>{}, 0))> {
  std::vector<SnapshotMeta> metas = backend.list();
  for (;;) {
    for (std::size_t i = metas.size(); i-- > 0;) {
      try {
        return restore(metas, i);
      } catch (const io_error&) {
        // Torn, truncated or corrupt — fall back to the next-older one.
      }
    }
    std::vector<SnapshotMeta> now = backend.list();
    if (std::ranges::equal(now, metas, {}, &SnapshotMeta::id,
                           &SnapshotMeta::id))
      return std::nullopt;
    metas = std::move(now);
  }
}

}  // namespace

std::optional<SnapshotBlob> latest_restorable(const StorageBackend& backend) {
  return newest_restorable(
      backend, [&backend](const std::vector<SnapshotMeta>& metas,
                          std::size_t i) {
        SnapshotBlob blob = backend.read_snapshot(metas[i].id);
        blob.verify();
        return blob;
      });
}

std::optional<SnapshotMeta> restore_latest_into(
    const StorageBackend& backend,
    std::span<const std::span<std::byte>> regions) {
  std::vector<bool> filled(regions.size());
  std::vector<RegionId> called;  // the current record's regions, in order
  std::vector<bool> taken;       // ... and whether the sink took each one
  const RegionSink sink = [&](RegionId region, std::uint64_t bytes) {
    if (region >= regions.size() || bytes != regions[region].size() ||
        std::find(called.begin(), called.end(), region) != called.end())
      throw io_error("snapshot region " + std::to_string(region) + " (" +
                     std::to_string(bytes) +
                     " bytes) does not match the restore layout");
    called.push_back(region);
    taken.push_back(!filled[region]);
    return filled[region] ? std::span<std::byte>{} : regions[region];
  };
  return newest_restorable(backend, [&](const std::vector<SnapshotMeta>& metas,
                                        std::size_t candidate) {
    std::fill(filled.begin(), filled.end(), false);
    std::size_t left = regions.size();
    SnapshotMeta restored;
    // Walk back from the candidate, taking each region from its newest
    // copy, until every region is filled or a Full ends the chain.
    for (std::size_t i = candidate + 1; i-- > 0;) {
      called.clear();
      taken.clear();
      const ReadResult read = backend.read_regions(metas[i].id, sink);
      for (std::size_t r = 0; r < called.size(); ++r) {
        if (!taken[r]) continue;
        if (common::crc32(regions[called[r]]) != read.crcs[r])
          throw io_error("snapshot " + std::to_string(metas[i].id) +
                         " region " + std::to_string(called[r]) +
                         " payload CRC mismatch");
        filled[called[r]] = true;
        --left;
      }
      if (i == candidate) restored = read.meta;
      if (left == 0 || read.meta.kind != CkptKind::Incremental) break;
    }
    if (left > 0)
      throw io_error("the chain of snapshot " +
                     std::to_string(metas[candidate].id) + " leaves " +
                     std::to_string(left) + " of " +
                     std::to_string(regions.size()) + " regions unfilled");
    return restored;
  });
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
    // specs read naturally both quoted ("log:d?shards=4&flush=0") and
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
    ABFTC_REQUIRE(p.rest.empty() && p.options.empty(),
                  "memory backend takes no path and no options");
    backend = std::make_unique<MemoryBackend>();
  } else if (p.scheme == "log") {
    ABFTC_REQUIRE(!p.rest.empty(), "log backend needs a directory: log:DIR");
    LogBackend::Options opts;
    if (!p.options.empty()) {
      std::vector<std::string> seen;
      for (const auto& [key, value] :
           common::parse_key_values(p.options, ',', '=')) {
        ABFTC_REQUIRE(std::find(seen.begin(), seen.end(), key) == seen.end(),
                      "duplicate log option '" + key + "'");
        seen.push_back(key);
        if (key == "shards") {
          opts.shards = static_cast<unsigned>(
              spec_long(value, "log shard count", 1, 256));
        } else if (key == "flush") {
          ABFTC_REQUIRE(value == "0" || value == "1",
                        "malformed log flush '" + value + "' (0 or 1)");
          opts.flush = value == "1";
        } else if (key == "compact") {
          opts.compact_every = static_cast<unsigned>(
              spec_long(value, "log compaction interval", 1, 1l << 30));
        } else {
          ABFTC_REQUIRE(false, "unknown log option '" + key +
                                   "' (known: shards, flush, compact)");
        }
      }
    }
    backend = std::make_unique<LogBackend>(p.rest, opts);
  } else {
    ABFTC_REQUIRE(false, "unknown storage backend scheme '" + p.scheme +
                             "' (known: memory, log:DIR)");
  }
  backend->open();
  return backend;
}

}  // namespace abftc::ckpt::io
