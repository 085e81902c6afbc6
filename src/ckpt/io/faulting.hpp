#pragma once
/// \file faulting.hpp
/// A fault-injecting StorageBackend decorator for campaign runs.
///
/// Wraps any real backend and tears selected snapshot writes the way a
/// crashed or misbehaving committer would:
///
///  * TornPayload   — the write "succeeds" (the snapshot commits and is
///    visible in list()) but the payload bytes that reached the medium are
///    garbage, so SnapshotBlob::verify() rejects it at restore time. This
///    is the committed-but-corrupt shape a power loss between payload
///    writeback and commit-record writeback produces.
///  * FailedCommit  — commit() throws io_error after the payload streamed,
///    leaving no visible snapshot (the ENOSPC / killed-before-commit
///    shape). The writer sees the failure and can carry on without that
///    protection point.
///
/// The decorator is how `torn`-kind campaign cells reach the dist runtime:
/// the runtime believes the checkpoint landed, and only a later restore
/// discovers it must fall back past it. latest_restorable falls back past
/// a torn snapshot; restore_latest_into falls back past every candidate
/// whose chain needs one of its regions, while a torn record whose regions
/// newer records all supersede is never read and blocks nothing. Faults
/// target writes by index — the Nth begin_snapshot / write_snapshot since
/// construction — so campaign cells stay deterministic and replayable.

#include <cstddef>
#include <vector>

#include "ckpt/io/backend.hpp"

namespace abftc::ckpt::io {

enum class WriteFault {
  TornPayload,   ///< commit succeeds, payload bytes corrupted on medium
  FailedCommit,  ///< commit() throws io_error; no snapshot becomes visible
};

class FaultingBackend final : public StorageBackend {
 public:
  struct Fault {
    std::size_t write_index = 0;  ///< 0-based index of the targeted write
    WriteFault kind = WriteFault::TornPayload;
  };

  /// Decorate `inner` (non-owning; must outlive the decorator).
  FaultingBackend(StorageBackend& inner, std::vector<Fault> faults);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "faulting";
  }
  void open() override;
  [[nodiscard]] ReadResult read_regions(CkptId id,
                                        const RegionSink& sink) const override;
  [[nodiscard]] std::vector<SnapshotMeta> list() const override;
  void drop(CkptId id) override;
  [[nodiscard]] std::unique_ptr<WriteSession> begin_snapshot(
      const SnapshotMeta& meta, std::vector<RegionId> regions,
      std::vector<std::uint64_t> region_sizes) override;

  /// Writes started so far (faulted or not).
  [[nodiscard]] std::size_t writes_started() const noexcept {
    return writes_started_;
  }
  /// Faults that actually fired (a plan entry whose index never arrives
  /// stays pending).
  [[nodiscard]] std::size_t faults_fired() const noexcept {
    return faults_fired_;
  }

 private:
  class Session;
  StorageBackend& inner_;
  std::vector<Fault> faults_;
  std::size_t writes_started_ = 0;
  std::size_t faults_fired_ = 0;
};

}  // namespace abftc::ckpt::io
