#include "queue/shm_arena.hpp"

#include <gtest/gtest.h>

namespace lvrm::queue {
namespace {

TEST(ShmArena, DistinctIds) {
  ShmArena arena;
  const SegmentId a = arena.create(16);
  const SegmentId b = arena.create(16);
  EXPECT_NE(a, b);
}

TEST(ShmArena, DestroyReleases) {
  ShmArena arena;
  const SegmentId id = arena.create(64);
  EXPECT_EQ(arena.total_bytes(), 64u);
  EXPECT_EQ(arena.segment_count(), 1u);
  arena.destroy(id);
  EXPECT_EQ(arena.total_bytes(), 0u);
  EXPECT_EQ(arena.segment_count(), 0u);
  arena.destroy(id);  // double destroy is a no-op
  EXPECT_EQ(arena.total_bytes(), 0u);
  EXPECT_EQ(arena.segment_count(), 0u);
}

}  // namespace
}  // namespace lvrm::queue
