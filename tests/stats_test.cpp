// Unit tests for the memory instrumentation (BudgetTracker / TransientScope).
#include <gtest/gtest.h>

#include "optimize/stats.h"

namespace fpopt {
namespace {

TEST(BudgetTrackerTest, TracksStoredAndPeak) {
  BudgetTracker t(100);
  t.add_stored(30);
  t.add_stored(40);
  EXPECT_EQ(t.stored(), 70u);
  EXPECT_EQ(t.peak_stored(), 70u);
  t.sub_stored(50);
  EXPECT_EQ(t.stored(), 20u);
  EXPECT_EQ(t.peak_stored(), 70u) << "peak is sticky";
  t.add_stored(60);
  EXPECT_EQ(t.peak_stored(), 80u);
}

TEST(BudgetTrackerTest, ThrowsExactlyWhenBudgetExceeded) {
  BudgetTracker t(100);
  t.add_stored(100);  // exactly at the budget: fine
  EXPECT_THROW(t.add_stored(1), MemoryLimitExceeded);
}

TEST(BudgetTrackerTest, StoredPlusTransientTriggersTheLimit) {
  BudgetTracker t(100);
  t.add_stored(60);
  t.add_transient(40);  // 100: fine
  EXPECT_THROW(t.add_transient(1), MemoryLimitExceeded);
  t.sub_transient(40);
  t.add_stored(40);  // back to 100 via stored
  EXPECT_THROW(t.add_transient(1), MemoryLimitExceeded);
}

TEST(BudgetTrackerTest, PeakTotalTracksStoredPlusTransient) {
  // peak_total is the budget-check quantity (stats.peak_live): it must
  // capture the joint high-water mark, not the sum of component peaks.
  BudgetTracker t(0);
  t.add_stored(40);
  t.add_transient(30);  // joint peak 70
  EXPECT_EQ(t.peak_total(), 70u);
  t.sub_transient(30);
  t.add_stored(20);  // stored peak 60, joint still 70
  EXPECT_EQ(t.peak_stored(), 60u);
  EXPECT_EQ(t.peak_transient(), 30u);
  EXPECT_EQ(t.peak_total(), 70u) << "joint peak is sticky";
  t.add_transient(15);  // 75: new joint peak
  EXPECT_EQ(t.peak_total(), 75u);
  EXPECT_GE(t.peak_total(), t.peak_stored());
  EXPECT_GE(t.peak_total(), t.peak_transient());
}

TEST(BudgetTrackerTest, RejectedAddLeavesPeaksUntouched) {
  BudgetTracker t(50);
  t.add_stored(30);
  t.add_transient(20);
  EXPECT_THROW(t.add_transient(1), MemoryLimitExceeded);
  EXPECT_EQ(t.peak_total(), 50u) << "the rejected add must not inflate the peak";
  EXPECT_EQ(t.peak_transient(), 20u);
}

TEST(BudgetTrackerTest, LiveBeforeCountsAgainstTheBudgetOnly) {
  BudgetTracker t(100, 60);
  t.add_stored(30);
  t.add_transient(10);  // 60 held before + 40: exactly at the budget
  EXPECT_THROW(t.add_stored(1), MemoryLimitExceeded);
  EXPECT_THROW(t.add_transient(1), MemoryLimitExceeded);
  EXPECT_EQ(t.stored(), 30u);
  EXPECT_EQ(t.peak_stored(), 30u);
  EXPECT_EQ(t.peak_transient(), 10u);
  EXPECT_EQ(t.peak_total(), 40u) << "peaks stay relative to the tracker's start";
}

TEST(BudgetTrackerTest, LiveBeforeAtTheBudgetRejectsTheFirstAdd) {
  // What earlier nodes hold already fills the budget: not one more fits.
  BudgetTracker t(100, 100);
  EXPECT_THROW(t.add_stored(1), MemoryLimitExceeded);
  EXPECT_THROW(t.add_transient(1), MemoryLimitExceeded);
  EXPECT_EQ(t.stored(), 0u);
  EXPECT_EQ(t.peak_total(), 0u);
}

TEST(BudgetTrackerTest, ZeroBudgetMeansUnlimited) {
  BudgetTracker t(0);
  t.add_stored(1'000'000);
  t.add_transient(1'000'000);
  EXPECT_EQ(t.peak_stored(), 1'000'000u);
  EXPECT_EQ(t.peak_transient(), 1'000'000u);
}

TEST(BudgetTrackerTest, ExceptionCarriesTheCounts) {
  BudgetTracker t(10);
  t.add_stored(7);
  try {
    t.add_transient(5);
    FAIL() << "should have thrown";
  } catch (const MemoryLimitExceeded& e) {
    // Counts at rejection time (the rejected add is rolled back).
    EXPECT_EQ(e.stored, 7u);
    EXPECT_EQ(e.transient, 0u);
  }
}

TEST(TransientScopeTest, ReleasesEverythingOnDestruction) {
  BudgetTracker t(0);
  {
    TransientScope s(t);
    s.add(25);
    s.add(25);
    EXPECT_EQ(t.peak_transient(), 50u);
  }
  {
    TransientScope s(t);
    s.add(10);
  }
  EXPECT_EQ(t.peak_transient(), 50u);
}

TEST(TransientScopeTest, ResetToShrinksTheAccountedBuffer) {
  BudgetTracker t(0);
  TransientScope s(t);
  s.add(100);
  s.reset_to(30);
  EXPECT_EQ(t.peak_transient(), 100u);
  s.add(60);  // 90 total now
  EXPECT_EQ(t.peak_transient(), 100u) << "compaction really freed 70";
  s.reset_to(200);  // growing via reset is a no-op
  s.add(20);
  EXPECT_EQ(t.peak_transient(), 110u);
}

}  // namespace
}  // namespace fpopt
