#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3 polynomial) used to verify checkpoint image integrity.
/// By default the body of every buffer of 64 bytes or more is folded with
/// carry-less multiplies (PCLMULQDQ fold-by-4 + Barrett reduction, selected
/// at runtime by a CPU probe, so portable builds get it too); slicing-by-8
/// handles the tails and CPUs without PCLMULQDQ. Both paths compute the same
/// reflected 0xEDB88320 polynomial, so every value — stored region CRCs, log
/// record trailers, crc32_combine folds — is identical to the classic
/// byte-at-a-time formulation; there is no mode tag to carry.
///
/// Three ways to compute the same value:
///  * one-shot:   crc32(data)
///  * streaming:  Crc32 acc; acc.update(chunk); ... ; acc.value()
///    (chunks in order — lets the log backend verify a record it reads
///    back in bounded pieces)
///  * parallel:   per-chunk crc32() from seed 0, folded with crc32_combine()
///    (chunks independent — the chunking, not the worker count, defines the
///    result, so parallel CRCs are bitwise reproducible)

#include <cstddef>
#include <cstdint>
#include <span>

namespace abftc::common {

/// CRC-32 of a byte range; `seed` allows incremental computation by passing
/// the previous result.
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> data,
                                  std::uint32_t seed = 0);

/// CRC of the concatenation A||B from crc32(A), crc32(B) and |B| alone, in
/// O(log |B|) GF(2) matrix operations (the zlib crc32_combine construction):
/// extending A by |B| zero bytes is a linear operator on the CRC register.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a,
                                          std::uint32_t crc_b,
                                          std::size_t len_b);

/// Fold of *independently* computed chunk CRCs (each from seed 0): add()
/// them in chunk order and value() equals the one-shot crc32 of the
/// concatenation. This is the one authoritative combine-order/length
/// pairing for CRC folds (the log backend's record CRC) — a wrong
/// len pairing yields a stable but wrong CRC, so don't hand-roll the fold.
/// Starting from 0 needs no seeding special case: crc32_combine(0, c, n)
/// == c for every n (the zero register is a fixed point of the operator).
class Crc32Chunks {
 public:
  Crc32Chunks& add(std::uint32_t chunk_crc, std::size_t chunk_len) {
    crc_ = crc32_combine(crc_, chunk_crc, chunk_len);
    return *this;
  }
  [[nodiscard]] std::uint32_t value() const noexcept { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

/// Streaming accumulator: feed byte ranges in order; value() equals the
/// one-shot crc32 of their concatenation at any point.
class Crc32 {
 public:
  Crc32& update(std::span<const std::byte> chunk) {
    crc_ = crc32(chunk, crc_);
    return *this;
  }
  [[nodiscard]] std::uint32_t value() const noexcept { return crc_; }
  void reset() noexcept { crc_ = 0; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace abftc::common
