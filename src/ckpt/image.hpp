#pragma once
/// \file image.hpp
/// Executable checkpoint mechanics for the composite protocol (Section III).
///
/// A MemoryImage is the application's protected state: named byte regions,
/// each classified as LIBRARY (passed to the ABFT-capable library call;
/// reconstructable from checksums) or REMAINDER (everything else). The
/// protocol's checkpoint taxonomy (CkptKind; taken and restored by
/// io::CkptWriter, ckpt/io/writer.hpp) is:
///
///  * Full        — classic coordinated checkpoint of every region,
///  * Entry       — forced partial checkpoint of the REMAINDER dataset taken
///                  when entering a LIBRARY phase,
///  * Exit        — partial checkpoint of the (modified) LIBRARY dataset at
///                  the end of the call; Entry + Exit form a *split but
///                  complete* coordinated checkpoint,
///  * Incremental — only regions dirtied since the previous snapshot
///                  (BiPeriodicCkpt's enabling mechanism).
///
/// Dirty tracking is at region granularity; every snapshot carries per-region
/// CRCs so restores can verify integrity end-to-end.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace abftc::ckpt {

enum class RegionClass : std::uint8_t { Library, Remainder };

using RegionId = std::size_t;
using CkptId = std::uint64_t;

enum class CkptKind : std::uint8_t { Full, Entry, Exit, Incremental };

[[nodiscard]] const char* to_string(CkptKind k) noexcept;

/// The application's registered state. Regions reference caller-owned
/// memory (std::span): the image never copies or frees application data.
class MemoryImage {
 public:
  struct RegionInfo {
    std::string name;
    RegionClass cls;
    std::size_t bytes;
    bool dirty;
  };

  /// Register a caller-owned byte range. The range must outlive the image.
  RegionId add_region(std::string name, std::span<std::byte> data,
                      RegionClass cls);

  /// Typed convenience for arrays of trivially copyable elements.
  template <typename T>
  RegionId add_region(std::string name, std::span<T> data, RegionClass cls) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "checkpointed regions must be trivially copyable");
    return add_region(std::move(name), std::as_writable_bytes(data), cls);
  }

  [[nodiscard]] std::size_t region_count() const noexcept;
  [[nodiscard]] const RegionInfo& info(RegionId id) const;
  [[nodiscard]] std::span<const std::byte> bytes(RegionId id) const;
  [[nodiscard]] std::span<std::byte> mutable_bytes(RegionId id);

  /// Dirty tracking (region granularity).
  void mark_dirty(RegionId id);
  void clear_dirty_all() noexcept;
  [[nodiscard]] std::size_t dirty_bytes() const noexcept;

  [[nodiscard]] std::size_t total_bytes() const noexcept;
  [[nodiscard]] std::size_t class_bytes(RegionClass cls) const noexcept;
  /// ρ = LIBRARY bytes / total bytes (the paper's memory-split parameter).
  [[nodiscard]] double rho() const noexcept;

 private:
  struct Region {
    RegionInfo info;
    std::span<std::byte> data;
  };
  std::vector<Region> regions_;
};

}  // namespace abftc::ckpt
