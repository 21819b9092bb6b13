// Tests for the ShardMap routing layer: home-hint ownership, range
// overrides, epoch versioning, and the override interval arithmetic.

#include <gtest/gtest.h>

#include "src/cluster/shard_map.h"

namespace pass::cluster {
namespace {

core::PnodeId At(uint16_t shard, uint64_t offset) {
  return core::ShardSpace(shard).begin + offset;
}

TEST(ShardMapTest, DefaultsToAllocatorHome) {
  ShardMap map(4);
  EXPECT_EQ(map.shard_count(), 4);
  EXPECT_EQ(map.epoch(), 0u);
  for (uint16_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(map.OwnerOf(At(shard, 1)), shard);
    EXPECT_EQ(map.HomeOf(At(shard, 1)), shard);
  }
  // Outside the cluster's shard spaces.
  EXPECT_EQ(map.OwnerOf(At(4, 1)), -1);
  EXPECT_EQ(map.HomeOf(At(200, 7)), -1);
  EXPECT_TRUE(map.Overrides().empty());
}

TEST(ShardMapTest, AssignOverridesARangeAndBumpsEpoch) {
  ShardMap map(4);
  ASSERT_TRUE(map.Assign({At(0, 10), At(0, 20)}, 2).ok());
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.OwnerOf(At(0, 9)), 0);
  EXPECT_EQ(map.OwnerOf(At(0, 10)), 2);
  EXPECT_EQ(map.OwnerOf(At(0, 19)), 2);
  EXPECT_EQ(map.OwnerOf(At(0, 20)), 0);
  // The home hint is unchanged.
  EXPECT_EQ(map.HomeOf(At(0, 15)), 0);
  ASSERT_EQ(map.Overrides().size(), 1u);
  EXPECT_EQ(map.Overrides()[0].second, 2);
}

TEST(ShardMapTest, AssignRejectsBadArguments) {
  ShardMap map(2);
  EXPECT_FALSE(map.Assign({At(0, 5), At(0, 5)}, 1).ok());   // empty
  EXPECT_FALSE(map.Assign({At(0, 9), At(0, 5)}, 1).ok());   // inverted
  EXPECT_FALSE(map.Assign({At(0, 5), At(0, 9)}, 2).ok());   // not a member
  EXPECT_FALSE(map.Assign({At(0, 5), At(0, 9)}, -1).ok());  // not a member
  EXPECT_FALSE(map.Assign({At(5, 1), At(5, 9)}, 1).ok());   // outside cluster
  EXPECT_FALSE(map.Assign({At(0, 5), At(1, 9)}, 1).ok());   // spans homes
  EXPECT_EQ(map.epoch(), 0u);
}

TEST(ShardMapTest, ReassigningBackHomeErasesTheOverride) {
  ShardMap map(3);
  ASSERT_TRUE(map.Assign({At(1, 0), At(1, 100)}, 2).ok());
  ASSERT_TRUE(map.Assign({At(1, 0), At(1, 100)}, 1).ok());
  EXPECT_EQ(map.epoch(), 2u);
  EXPECT_EQ(map.OwnerOf(At(1, 50)), 1);
  EXPECT_TRUE(map.Overrides().empty());
}

TEST(ShardMapTest, AssignSplitsAnOverlappingOverride) {
  ShardMap map(4);
  ASSERT_TRUE(map.Assign({At(0, 10), At(0, 40)}, 1).ok());
  // Carve the middle out for shard 3; the flanks stay with shard 1.
  ASSERT_TRUE(map.Assign({At(0, 20), At(0, 30)}, 3).ok());
  EXPECT_EQ(map.OwnerOf(At(0, 15)), 1);
  EXPECT_EQ(map.OwnerOf(At(0, 25)), 3);
  EXPECT_EQ(map.OwnerOf(At(0, 35)), 1);
  ASSERT_EQ(map.Overrides().size(), 3u);
}

TEST(ShardMapTest, AssignAbsorbsContainedOverrides) {
  ShardMap map(4);
  ASSERT_TRUE(map.Assign({At(0, 10), At(0, 20)}, 1).ok());
  ASSERT_TRUE(map.Assign({At(0, 30), At(0, 40)}, 2).ok());
  ASSERT_TRUE(map.Assign({At(0, 5), At(0, 50)}, 3).ok());
  EXPECT_EQ(map.OwnerOf(At(0, 12)), 3);
  EXPECT_EQ(map.OwnerOf(At(0, 35)), 3);
  EXPECT_EQ(map.OwnerOf(At(0, 4)), 0);
  EXPECT_EQ(map.OwnerOf(At(0, 50)), 0);
  ASSERT_EQ(map.Overrides().size(), 1u);
}

TEST(ShardMapTest, AdjacentSameShardOverridesCoalesce) {
  ShardMap map(4);
  ASSERT_TRUE(map.Assign({At(0, 10), At(0, 20)}, 2).ok());
  ASSERT_TRUE(map.Assign({At(0, 20), At(0, 30)}, 2).ok());
  ASSERT_EQ(map.Overrides().size(), 1u);
  EXPECT_EQ(map.Overrides()[0].first,
            (core::PnodeRange{At(0, 10), At(0, 30)}));
}

TEST(ShardMapTest, OwnerOfRangeDetectsSplitOwnership) {
  ShardMap map(4);
  EXPECT_EQ(map.OwnerOfRange({At(1, 0), At(1, 100)}), 1);
  EXPECT_EQ(map.OwnerOfRange({At(1, 0), At(1, 0)}), -1);  // empty
  ASSERT_TRUE(map.Assign({At(1, 40), At(1, 60)}, 2).ok());
  EXPECT_EQ(map.OwnerOfRange({At(1, 0), At(1, 100)}), -1);   // 1 then 2 then 1
  EXPECT_EQ(map.OwnerOfRange({At(1, 40), At(1, 60)}), 2);    // exactly override
  EXPECT_EQ(map.OwnerOfRange({At(1, 45), At(1, 55)}), 2);    // inside override
  EXPECT_EQ(map.OwnerOfRange({At(1, 60), At(1, 90)}), 1);    // after override
  EXPECT_EQ(map.OwnerOfRange({At(1, 30), At(1, 50)}), -1);   // straddles
  EXPECT_EQ(map.OwnerOfRange({At(9, 0), At(9, 9)}), -1);     // outside cluster
}

TEST(ShardMapTest, AssignmentsPartitionEveryHomeSpace) {
  ShardMap map(2);
  ASSERT_TRUE(map.Assign({At(0, 100), At(0, 200)}, 1).ok());
  auto assignments = map.Assignments();
  // Shard 0's space splits in three; shard 1's stays whole.
  ASSERT_EQ(assignments.size(), 4u);
  core::PnodeId cursor = core::ShardSpace(0).begin;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(assignments[i].first.begin, cursor);
    cursor = assignments[i].first.end;
  }
  EXPECT_EQ(cursor, core::ShardSpace(0).end);
  EXPECT_EQ(assignments[1].second, 1);  // the override
  EXPECT_EQ(assignments[0].second, 0);
  EXPECT_EQ(assignments[2].second, 0);
  EXPECT_EQ(assignments[3].first, core::ShardSpace(1));
  EXPECT_EQ(assignments[3].second, 1);
}

// Reset is what recovery starts its journal replay from: a map with no
// overrides, at epoch zero, routing every pnode to its allocator home.
TEST(ShardMapTest, ResetRestoresHomeRoutingAtEpochZero) {
  ShardMap map(4);
  ASSERT_TRUE(map.Assign({At(0, 10), At(0, 20)}, 2).ok());
  ASSERT_EQ(map.OwnerOf(At(0, 15)), 2);
  map.Reset();
  EXPECT_EQ(map.epoch(), 0u);
  EXPECT_TRUE(map.Overrides().empty());
  EXPECT_EQ(map.OwnerOf(At(0, 15)), 0);
}

}  // namespace
}  // namespace pass::cluster
