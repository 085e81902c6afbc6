#include "ckpt/io/faulting.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace abftc::ckpt::io {

/// Wraps the inner session. TornPayload streams a bit-flipped copy of every
/// chunk (XOR 0xFF — guaranteed to differ from the real payload, so the
/// caller-supplied CRCs cannot match at restore) and commits normally. The
/// copy goes through one reused bounce buffer of at most kBounceBytes, in
/// pieces, so a torn commit allocates nothing per chunk.
/// FailedCommit streams faithfully but throws from commit() without ever
/// committing the inner session; destroying the inner session uncommitted
/// leaves no visible snapshot, exactly like a writer killed pre-commit.
class FaultingBackend::Session final : public StorageBackend::WriteSession {
 public:
  static constexpr std::size_t kBounceBytes = 64 * 1024;

  Session(std::unique_ptr<WriteSession> inner, WriteFault fault)
      : inner_(std::move(inner)),
        fault_(fault),
        bounce_(fault == WriteFault::TornPayload ? kBounceBytes : 0) {}

  void append(std::span<const std::byte> chunk) override {
    if (fault_ != WriteFault::TornPayload) {
      inner_->append(chunk);
      return;
    }
    while (!chunk.empty()) {
      const std::size_t take = std::min(chunk.size(), bounce_.size());
      std::transform(chunk.begin(), chunk.begin() + take, bounce_.begin(),
                     [](std::byte b) { return b ^ std::byte{0xFF}; });
      inner_->append(std::span<const std::byte>(bounce_.data(), take));
      chunk = chunk.subspan(take);
    }
  }

  void commit(const std::vector<std::uint32_t>& region_crcs) override {
    if (fault_ == WriteFault::FailedCommit)
      throw io_error("injected commit failure (FaultingBackend)");
    inner_->commit(region_crcs);
  }

 private:
  std::unique_ptr<WriteSession> inner_;
  WriteFault fault_;
  std::vector<std::byte> bounce_;  ///< TornPayload's XOR staging
};

FaultingBackend::FaultingBackend(StorageBackend& inner,
                                 std::vector<Fault> faults)
    : inner_(inner), faults_(std::move(faults)) {}

void FaultingBackend::open() { inner_.open(); }

ReadResult FaultingBackend::read_regions(CkptId id,
                                        const RegionSink& sink) const {
  return inner_.read_regions(id, sink);
}

std::vector<SnapshotMeta> FaultingBackend::list() const {
  return inner_.list();
}

void FaultingBackend::drop(CkptId id) { inner_.drop(id); }

std::unique_ptr<StorageBackend::WriteSession> FaultingBackend::begin_snapshot(
    const SnapshotMeta& meta, std::vector<RegionId> regions,
    std::vector<std::uint64_t> region_sizes) {
  const std::size_t index = writes_started_++;
  auto inner = inner_.begin_snapshot(meta, std::move(regions),
                                     std::move(region_sizes));
  for (const Fault& f : faults_) {
    if (f.write_index == index) {
      ++faults_fired_;
      return std::make_unique<Session>(std::move(inner), f.kind);
    }
  }
  return inner;
}

}  // namespace abftc::ckpt::io
