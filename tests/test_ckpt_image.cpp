// Tests for the application image the checkpoints protect: regions, the
// LIBRARY/REMAINDER split (rho) and dirty tracking. The Full/Entry/Exit/
// Incremental taxonomy over these images is tested through CkptWriter in
// test_ckpt_io.cpp.

#include <gtest/gtest.h>

#include <array>

#include "ckpt/image.hpp"
#include "common/error.hpp"

namespace {

using namespace abftc;
using namespace abftc::ckpt;

struct Fixture {
  std::array<double, 8> lib{1, 2, 3, 4, 5, 6, 7, 8};
  std::array<double, 4> rem{10, 20, 30, 40};
  MemoryImage image;
  RegionId lib_id, rem_id;

  Fixture() {
    lib_id = image.add_region("lib", std::span<double>(lib),
                              RegionClass::Library);
    rem_id = image.add_region("rem", std::span<double>(rem),
                              RegionClass::Remainder);
  }
};

TEST(MemoryImage, TracksSizesAndRho) {
  Fixture f;
  EXPECT_EQ(f.image.region_count(), 2u);
  EXPECT_EQ(f.image.total_bytes(), 12 * sizeof(double));
  EXPECT_EQ(f.image.class_bytes(RegionClass::Library), 8 * sizeof(double));
  EXPECT_NEAR(f.image.rho(), 8.0 / 12.0, 1e-12);
}

TEST(MemoryImage, DirtyTracking) {
  Fixture f;
  EXPECT_EQ(f.image.dirty_bytes(), f.image.total_bytes());  // new = dirty
  f.image.clear_dirty_all();
  EXPECT_EQ(f.image.dirty_bytes(), 0u);
  f.image.mark_dirty(f.rem_id);
  EXPECT_EQ(f.image.dirty_bytes(), 4 * sizeof(double));
  (void)f.image.mutable_bytes(f.lib_id);  // mutable access marks dirty
  EXPECT_EQ(f.image.dirty_bytes(), f.image.total_bytes());
}

TEST(MemoryImage, RejectsDuplicatesAndEmpty) {
  Fixture f;
  std::array<double, 2> more{};
  EXPECT_THROW(f.image.add_region("lib", std::span<double>(more),
                                  RegionClass::Library),
               common::precondition_error);
  EXPECT_THROW(f.image.add_region("", std::span<double>(more),
                                  RegionClass::Library),
               common::precondition_error);
  EXPECT_THROW((void)f.image.info(99), common::precondition_error);
}

}  // namespace
