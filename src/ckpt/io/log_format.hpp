#pragma once
/// \file log_format.hpp
/// On-disk framing of the log backend's segments, shared by the commit path
/// (log_backend.cpp) and the compaction rewrite (compaction.cpp). All
/// integers are little-endian native; every structure is a multiple of 8
/// bytes so records stay 8-aligned without per-field packing.

#include <cstdint>

namespace abftc::ckpt::io::logf {

/// "ABFTCSG1" / "ABFTCLG1" read as little-endian u64.
inline constexpr std::uint64_t kSegMagic = 0x3147534354464241ull;
inline constexpr std::uint64_t kRecMagic = 0x31474C4354464241ull;
inline constexpr std::uint32_t kLogVersion = 1;
inline constexpr std::uint32_t kTrailerMagic = 0x43524354u;  // "TCRC"

inline constexpr std::uint32_t kTypeSnapshot = 1;
inline constexpr std::uint32_t kTypeTombstone = 2;

/// SegmentHeader::shard value marking a compaction-written frozen segment.
inline constexpr std::uint32_t kFrozenTag = 0xFFFFFFFFu;

/// Trailing {record_crc u32, trailer magic u32} of every record.
inline constexpr std::uint64_t kTrailerBytes = 8;

/// First 32 bytes of every segment file.
struct SegmentHeader {
  std::uint64_t magic = kSegMagic;
  std::uint32_t version = kLogVersion;
  std::uint32_t shard = 0;  ///< writer index (0 today), or kFrozenTag
  std::uint64_t gen = 0;    ///< store-wide generation (monotonic)
  std::uint64_t pad = 0;
};
static_assert(sizeof(SegmentHeader) == 32, "segment header layout");

/// Fixed prefix of every record; followed by the region table
/// (region_count × RegionEntry, table CRC, 4 B pad), the payload (regions
/// concatenated, zero-padded to 8 B), and the 8 B trailer. header_crc
/// covers all preceding header bytes so a torn header is detected before
/// its lengths are trusted.
struct RecordHeader {
  std::uint64_t magic = kRecMagic;
  std::uint32_t version = kLogVersion;
  std::uint32_t type = kTypeSnapshot;
  std::uint64_t id = 0;
  std::uint32_t kind = 0;  ///< CkptKind as stored
  std::uint32_t region_count = 0;
  double when = 0.0;
  std::uint64_t entry_link = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t seq = 0;  ///< store-wide commit sequence number
  std::uint32_t header_crc = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(RecordHeader) == 72, "record header layout");

}  // namespace abftc::ckpt::io::logf
