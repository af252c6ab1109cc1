#include "cluster/placement.h"

#include <gtest/gtest.h>

#include "tests/core/reference_evaluator.h"

namespace mwp {
namespace {

TEST(PlacementMatrixTest, DefaultsToZero) {
  PlacementMatrix p(3, 4);
  for (int m = 0; m < 3; ++m) {
    for (int n = 0; n < 4; ++n) EXPECT_EQ(p.at(m, n), 0);
  }
  EXPECT_EQ(p.InstanceCount(0), 0);
  EXPECT_FALSE(p.IsPlaced(0));
}

TEST(PlacementMatrixTest, CountsAndViews) {
  PlacementMatrix p(2, 3);
  p.at(0, 1) = 1;
  p.at(0, 2) = 2;
  p.at(1, 2) = 1;
  EXPECT_EQ(p.InstanceCount(0), 3);
  EXPECT_EQ(p.InstanceCount(1), 1);
  EXPECT_EQ(p.InstancesOnNode(2), 3);
  EXPECT_TRUE(p.IsPlaced(0));
  EXPECT_EQ(p.NodesOf(0), (std::vector<int>{1, 2}));
}

TEST(PlacementMatrixTest, OutOfBoundsThrows) {
  PlacementMatrix p(2, 2);
  EXPECT_THROW(p.at(2, 0), std::logic_error);
  EXPECT_THROW(p.at(0, 2), std::logic_error);
  EXPECT_THROW(p.at(-1, 0), std::logic_error);
}

TEST(PlacementMatrixTest, EqualityIsStructural) {
  PlacementMatrix a(2, 2), b(2, 2);
  EXPECT_EQ(a, b);
  a.at(1, 1) = 1;
  EXPECT_NE(a, b);
  b.at(1, 1) = 1;
  EXPECT_EQ(a, b);
}

TEST(LoadMatrixTest, AllocationSums) {
  testing_oracle::LoadMatrix l(2, 3);
  l.at(0, 0) = 500.0;
  l.at(0, 2) = 250.0;
  l.at(1, 2) = 1'000.0;
  EXPECT_DOUBLE_EQ(l.AppAllocation(0), 750.0);
  EXPECT_DOUBLE_EQ(l.NodeLoad(2), 1'250.0);
  EXPECT_DOUBLE_EQ(l.NodeLoad(1), 0.0);
}

TEST(DiffPlacementsTest, PureStart) {
  PlacementMatrix from(1, 2), to(1, 2);
  to.at(0, 1) = 1;
  const auto changes = DiffPlacements(from, to);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, PlacementChange::Kind::kStart);
  EXPECT_EQ(changes[0].app, 0);
  EXPECT_EQ(changes[0].to_node, 1);
}

TEST(DiffPlacementsTest, PureStop) {
  PlacementMatrix from(1, 2), to(1, 2);
  from.at(0, 0) = 1;
  const auto changes = DiffPlacements(from, to);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, PlacementChange::Kind::kStop);
  EXPECT_EQ(changes[0].from_node, 0);
}

TEST(DiffPlacementsTest, MoveBecomesMigration) {
  PlacementMatrix from(1, 3), to(1, 3);
  from.at(0, 0) = 1;
  to.at(0, 2) = 1;
  const auto changes = DiffPlacements(from, to);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, PlacementChange::Kind::kMigrate);
  EXPECT_EQ(changes[0].from_node, 0);
  EXPECT_EQ(changes[0].to_node, 2);
}

TEST(DiffPlacementsTest, SuspendAndResumeClassification) {
  PlacementMatrix from(2, 2), to(2, 2);
  from.at(0, 0) = 1;  // app 0 removed -> suspend
  to.at(1, 1) = 1;    // app 1 added -> resume
  std::vector<bool> removal_is_suspend{true, false};
  std::vector<bool> addition_is_resume{false, true};
  const auto changes =
      DiffPlacements(from, to, removal_is_suspend, addition_is_resume);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].kind, PlacementChange::Kind::kSuspend);
  EXPECT_EQ(changes[1].kind, PlacementChange::Kind::kResume);
}

TEST(DiffPlacementsTest, UnchangedPlacementNoChanges) {
  PlacementMatrix p(3, 3);
  p.at(0, 0) = 1;
  p.at(2, 1) = 1;
  EXPECT_TRUE(DiffPlacements(p, p).empty());
}

TEST(DiffPlacementsTest, MultiInstanceDeltas) {
  PlacementMatrix from(1, 2), to(1, 2);
  from.at(0, 0) = 2;
  to.at(0, 0) = 1;
  to.at(0, 1) = 2;
  // Net: one instance moves 0 -> 1 (migration), one new instance on 1.
  const auto changes = DiffPlacements(from, to);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].kind, PlacementChange::Kind::kMigrate);
  EXPECT_EQ(changes[1].kind, PlacementChange::Kind::kStart);
}

TEST(PlacementChangeTest, KindNames) {
  EXPECT_STREQ(ToString(PlacementChange::Kind::kStart), "start");
  EXPECT_STREQ(ToString(PlacementChange::Kind::kSuspend), "suspend");
  EXPECT_STREQ(ToString(PlacementChange::Kind::kMigrate), "migrate");
}

}  // namespace
}  // namespace mwp
