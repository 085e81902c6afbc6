#include "core/runtime.hpp"

#include "common/error.hpp"

namespace abftc::core {

CompositeRuntime::CompositeRuntime(ckpt::MemoryImage& image) : image_(image) {
  ABFTC_REQUIRE(image.region_count() > 0,
                "the runtime needs at least one registered region");
  writer_.take_full(image_, now_);
  ++stats_.full_checkpoints;
}

void CompositeRuntime::tick(double dt) {
  ABFTC_REQUIRE(dt >= 0.0, "time cannot go backwards");
  now_ += dt;
}

void CompositeRuntime::scramble_image() {
  // A crash loses the node's memory: overwrite every byte with noise so any
  // missing restore would be caught by the verification in tests.
  for (ckpt::RegionId id = 0; id < image_.region_count(); ++id) {
    auto bytes = image_.mutable_bytes(id);
    for (auto& b : bytes)
      b = static_cast<std::byte>(scramble_rng_() & 0xFF);
  }
}

void CompositeRuntime::run_general_phase(const std::function<void()>& work,
                                         int failures_before_success) {
  ABFTC_REQUIRE(work != nullptr, "general phase needs a work function");
  ABFTC_REQUIRE(failures_before_success >= 0, "failure count must be >= 0");
  for (int attempt = 0;; ++attempt) {
    tick();
    if (attempt < failures_before_success) {
      // The failure strikes mid-phase: partial progress is lost with the
      // memory; roll back to the last complete checkpoint and retry.
      work();
      scramble_image();
      writer_.restore_latest(image_);
      ++stats_.rollbacks;
      ++stats_.reexecutions;
      continue;
    }
    work();
    return;
  }
}

void CompositeRuntime::periodic_checkpoint() {
  tick();
  writer_.take_full(image_, now_);
  ++stats_.full_checkpoints;
}

void CompositeRuntime::run_library_phase(
    const std::function<void(const std::function<void()>&)>& work) {
  ABFTC_REQUIRE(work != nullptr, "library phase needs a work function");
  tick();
  // Forced partial checkpoint of the REMAINDER dataset at the call boundary.
  const ckpt::CkptId entry = writer_.take_entry(image_, now_);
  ++stats_.entry_checkpoints;

  // Figure 2's combined recovery: every time the ABFT kernel reconstructs
  // its dataset from checksums, the runtime reloads the REMAINDER dataset
  // (and the process stack, abstracted here) from the entry checkpoint.
  const auto on_abft_recovery = [this] {
    writer_.restore_remainder(image_);
    ++stats_.remainder_restores;
    ++stats_.abft_recoveries;
  };
  work(on_abft_recovery);

  tick();
  // Forced partial checkpoint of the (modified) LIBRARY dataset completes
  // the split coordinated checkpoint.
  writer_.take_exit(image_, now_, entry);
  ++stats_.exit_checkpoints;
}

}  // namespace abftc::core
