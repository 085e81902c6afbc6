#include "ckpt/image.hpp"

#include "common/error.hpp"

namespace abftc::ckpt {

const char* to_string(CkptKind k) noexcept {
  switch (k) {
    case CkptKind::Full:
      return "full";
    case CkptKind::Entry:
      return "entry";
    case CkptKind::Exit:
      return "exit";
    case CkptKind::Incremental:
      return "incremental";
  }
  return "?";
}

RegionId MemoryImage::add_region(std::string name, std::span<std::byte> data,
                                 RegionClass cls) {
  ABFTC_REQUIRE(!name.empty(), "region needs a name");
  ABFTC_REQUIRE(!data.empty(), "region must not be empty");
  for (const Region& r : regions_)
    ABFTC_REQUIRE(r.info.name != name, "duplicate region name: " + name);
  Region region;
  region.info = RegionInfo{std::move(name), cls, data.size(), true};
  region.data = data;
  regions_.push_back(std::move(region));
  return regions_.size() - 1;
}

std::size_t MemoryImage::region_count() const noexcept {
  return regions_.size();
}

const MemoryImage::RegionInfo& MemoryImage::info(RegionId id) const {
  ABFTC_REQUIRE(id < regions_.size(), "region id out of range");
  return regions_[id].info;
}

std::span<const std::byte> MemoryImage::bytes(RegionId id) const {
  ABFTC_REQUIRE(id < regions_.size(), "region id out of range");
  return regions_[id].data;
}

std::span<std::byte> MemoryImage::mutable_bytes(RegionId id) {
  ABFTC_REQUIRE(id < regions_.size(), "region id out of range");
  regions_[id].info.dirty = true;
  return regions_[id].data;
}

void MemoryImage::mark_dirty(RegionId id) {
  ABFTC_REQUIRE(id < regions_.size(), "region id out of range");
  regions_[id].info.dirty = true;
}

void MemoryImage::clear_dirty_all() noexcept {
  for (Region& r : regions_) r.info.dirty = false;
}

std::size_t MemoryImage::dirty_bytes() const noexcept {
  std::size_t n = 0;
  for (const Region& r : regions_)
    if (r.info.dirty) n += r.info.bytes;
  return n;
}

std::size_t MemoryImage::total_bytes() const noexcept {
  std::size_t n = 0;
  for (const Region& r : regions_) n += r.info.bytes;
  return n;
}

std::size_t MemoryImage::class_bytes(RegionClass cls) const noexcept {
  std::size_t n = 0;
  for (const Region& r : regions_)
    if (r.info.cls == cls) n += r.info.bytes;
  return n;
}

double MemoryImage::rho() const noexcept {
  const std::size_t total = total_bytes();
  if (total == 0) return 0.0;
  return static_cast<double>(class_bytes(RegionClass::Library)) /
         static_cast<double>(total);
}

}  // namespace abftc::ckpt
