#include "tgraph/coalesce.h"

#include <gtest/gtest.h>

namespace tgraph {
namespace {

Properties P(int64_t v) { return Properties{{"type", "n"}, {"v", v}}; }

TEST(CoalesceHistoryTest, MergesAdjacentEqualStates) {
  History h = {{{1, 3}, P(1)}, {{3, 5}, P(1)}, {{5, 7}, P(2)}};
  History c = CoalesceHistory(h);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].interval, Interval(1, 5));
  EXPECT_EQ(c[0].properties, P(1));
  EXPECT_EQ(c[1].interval, Interval(5, 7));
}

TEST(CoalesceHistoryTest, SortsBeforeMerging) {
  History h = {{{5, 7}, P(1)}, {{1, 3}, P(1)}, {{3, 5}, P(1)}};
  History c = CoalesceHistory(h);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].interval, Interval(1, 7));
}

TEST(CoalesceHistoryTest, AlreadyCoalescedComesBackUnchanged) {
  History h = {{{1, 3}, P(1)}, {{3, 5}, P(2)}, {{7, 9}, P(2)}};
  ASSERT_TRUE(IsCoalescedHistory(h));
  EXPECT_EQ(CoalesceHistory(h), h);
}

TEST(CoalesceHistoryTest, UnsortedWithOverlapsMerges) {
  History h = {{{6, 9}, P(2)}, {{2, 4}, P(1)}, {{1, 3}, P(1)}, {{4, 6}, P(2)}};
  History c = CoalesceHistory(h);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].interval, Interval(1, 4));
  EXPECT_EQ(c[0].properties, P(1));
  EXPECT_EQ(c[1].interval, Interval(4, 9));
  EXPECT_EQ(c[1].properties, P(2));
  EXPECT_TRUE(IsCoalescedHistory(c));
}

TEST(CoalesceHistoryTest, DropsEmptyIntervalsAmongValidOnes) {
  History h = {{{3, 3}, P(1)}, {{1, 3}, P(1)}, {{5, 4}, P(1)}, {{3, 5}, P(1)}};
  History c = CoalesceHistory(h);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].interval, Interval(1, 5));
  EXPECT_TRUE(CoalesceHistory({{{2, 2}, P(1)}}).empty());
  EXPECT_TRUE(CoalesceHistory({}).empty());
}

TEST(CoalesceHistoryTest, KeepsGapsAndValueChanges) {
  History h = {{{1, 3}, P(1)}, {{4, 6}, P(1)}, {{6, 8}, P(2)}};
  History c = CoalesceHistory(h);
  ASSERT_EQ(c.size(), 3u);
}

TEST(CoalesceHistoryTest, DropsEmptyIntervals) {
  History h = {{{3, 3}, P(1)}, {{5, 2}, P(1)}};
  EXPECT_TRUE(CoalesceHistory(h).empty());
}

TEST(CoalesceHistoryTest, MergesOverlappingEqualStates) {
  History h = {{{1, 5}, P(1)}, {{3, 8}, P(1)}};
  History c = CoalesceHistory(h);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].interval, Interval(1, 8));
}

TEST(CoalesceHistoryTest, Idempotent) {
  History h = {{{9, 12}, P(3)}, {{1, 3}, P(1)}, {{3, 9}, P(1)}};
  History once = CoalesceHistory(h);
  History twice = CoalesceHistory(once);
  EXPECT_EQ(once, twice);
}

TEST(IsCoalescedHistoryTest, DetectsViolations) {
  EXPECT_TRUE(IsCoalescedHistory({}));
  EXPECT_TRUE(IsCoalescedHistory({{{1, 3}, P(1)}, {{3, 5}, P(2)}}));
  EXPECT_TRUE(IsCoalescedHistory({{{1, 3}, P(1)}, {{4, 5}, P(1)}}));  // gap
  // Adjacent equal -> not coalesced.
  EXPECT_FALSE(IsCoalescedHistory({{{1, 3}, P(1)}, {{3, 5}, P(1)}}));
  // Overlap -> not coalesced.
  EXPECT_FALSE(IsCoalescedHistory({{{1, 4}, P(1)}, {{3, 5}, P(2)}}));
  // Out of order -> not coalesced.
  EXPECT_FALSE(IsCoalescedHistory({{{4, 5}, P(1)}, {{1, 3}, P(2)}}));
  // Empty interval -> not coalesced.
  EXPECT_FALSE(IsCoalescedHistory({{{3, 3}, P(1)}}));
}

TEST(MergeHistoriesTest, DisjointPassThrough) {
  PropertiesMerge merge = [](const Properties& a, const Properties&) {
    return a;
  };
  History m = MergeHistories({{{1, 3}, P(1)}}, {{{5, 7}, P(2)}}, merge);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].interval, Interval(1, 3));
  EXPECT_EQ(m[1].interval, Interval(5, 7));
}

TEST(MergeHistoriesTest, OverlapInvokesMerge) {
  PropertiesMerge merge = [](const Properties& a, const Properties& b) {
    Properties out = a;
    out.Set("v", a.Get("v")->AsInt() + b.Get("v")->AsInt());
    return out;
  };
  History m = MergeHistories({{{1, 6}, P(1)}}, {{{4, 9}, P(10)}}, merge);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].interval, Interval(1, 4));
  EXPECT_EQ(m[0].properties.Get("v")->AsInt(), 1);
  EXPECT_EQ(m[1].interval, Interval(4, 6));
  EXPECT_EQ(m[1].properties.Get("v")->AsInt(), 11);
  EXPECT_EQ(m[2].interval, Interval(6, 9));
  EXPECT_EQ(m[2].properties.Get("v")->AsInt(), 10);
}

TEST(MergeHistoriesTest, AssociativeForCommutativeMerge) {
  PropertiesMerge merge = [](const Properties& a, const Properties& b) {
    Properties out = a;
    out.Set("v", a.Get("v")->AsInt() + b.Get("v")->AsInt());
    return out;
  };
  History a = {{{0, 4}, P(1)}};
  History b = {{{2, 6}, P(2)}};
  History c = {{{3, 8}, P(4)}};
  History left = MergeHistories(MergeHistories(a, b, merge), c, merge);
  History right = MergeHistories(a, MergeHistories(b, c, merge), merge);
  EXPECT_EQ(left, right);
}

TEST(ClipHistoryTest, ClipsAtWindowBoundaries) {
  History h = {{{1, 5}, P(1)}, {{5, 9}, P(2)}};
  History clipped = ClipHistory(h, Interval(3, 7));
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_EQ(clipped[0].interval, Interval(3, 5));
  EXPECT_EQ(clipped[1].interval, Interval(5, 7));
}

TEST(ClipHistoryTest, EmptyWhenOutside) {
  History h = {{{1, 5}, P(1)}};
  EXPECT_TRUE(ClipHistory(h, Interval(7, 9)).empty());
}

TEST(ClipHistoryTest, InsideWindowComesBackUnchanged) {
  History h = {{{1, 5}, P(1)}, {{5, 9}, P(2)}};
  EXPECT_EQ(ClipHistory(h, Interval(0, 10)), h);
  EXPECT_EQ(ClipHistory(h, Interval(1, 9)), h);
}

TEST(ClipHistoryTest, UnsortedInputKeepsOrderAndClipsEachItem) {
  History h = {{{6, 9}, P(2)}, {{1, 4}, P(1)}, {{4, 6}, P(3)}};
  History clipped = ClipHistory(h, Interval(3, 7));
  ASSERT_EQ(clipped.size(), 3u);
  EXPECT_EQ(clipped[0], (HistoryItem{{6, 7}, P(2)}));
  EXPECT_EQ(clipped[1], (HistoryItem{{3, 4}, P(1)}));
  EXPECT_EQ(clipped[2], (HistoryItem{{4, 6}, P(3)}));
}

TEST(ClipHistoryTest, DropsEmptyIntervalsAndEmptyWindow) {
  History h = {{{2, 2}, P(1)}, {{3, 6}, P(2)}, {{8, 7}, P(3)}};
  History clipped = ClipHistory(h, Interval(0, 10));
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0], (HistoryItem{{3, 6}, P(2)}));
  EXPECT_TRUE(ClipHistory(h, Interval(4, 4)).empty());
  EXPECT_TRUE(ClipHistory({}, Interval(0, 10)).empty());
}

TEST(IntersectHistoryPresenceTest, KeepsOwnPropertiesOnMaskOverlap) {
  History h = {{{1, 10}, P(1)}};
  History mask = {{{2, 4}, P(99)}, {{6, 8}, P(98)}};
  History result = IntersectHistoryPresence(h, mask);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].interval, Interval(2, 4));
  EXPECT_EQ(result[0].properties, P(1));
  EXPECT_EQ(result[1].interval, Interval(6, 8));
}

TEST(HistoryHelpersTest, CoveredDurationAndSpan) {
  History h = {{{1, 4}, P(1)}, {{6, 8}, P(2)}};
  EXPECT_EQ(HistoryCoveredDuration(h), 5);
  EXPECT_EQ(HistorySpan(h), Interval(1, 8));
  EXPECT_TRUE(HistorySpan({}).empty());
}

}  // namespace
}  // namespace tgraph
