// Hierarchical phase timer: tree registration, call counting, parent
// inclusion of children, op-count attribution, rows on distinct threads
// and reset.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/counters.hpp"
#include "util/phase_timer.hpp"

namespace {

using pcf::phase_timer;

TEST(PhaseTimer, TreeDepthsFollowRegistration) {
  phase_timer t(false);
  const auto root = t.add("step");
  const auto child = t.add("nonlinear", root);
  const auto grand = t.add("products", child);
  const auto& p = t.phases();
  EXPECT_EQ(p[static_cast<std::size_t>(root)].depth, 0);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].depth, 1);
  EXPECT_EQ(p[static_cast<std::size_t>(grand)].depth, 2);
  EXPECT_EQ(p[static_cast<std::size_t>(grand)].parent, child);
}

TEST(PhaseTimer, ParentsIncludeChildrenAndCallsCount) {
  phase_timer t(false);
  const auto root = t.add("outer");
  const auto child = t.add("inner", root);
  for (int i = 0; i < 3; ++i) {
    phase_timer::section outer(t, root);
    phase_timer::section inner(t, child);
  }
  const auto& p = t.phases();
  EXPECT_EQ(p[static_cast<std::size_t>(root)].calls, 3);
  EXPECT_EQ(p[static_cast<std::size_t>(child)].calls, 3);
  // The child ran entirely inside the parent's section.
  EXPECT_GE(p[static_cast<std::size_t>(root)].seconds,
            p[static_cast<std::size_t>(child)].seconds);
}

TEST(PhaseTimer, AccumulatesAcrossIntervals) {
  phase_timer t(false);
  const auto ph = t.add("work");
  for (int i = 0; i < 3; ++i) {
    phase_timer::section sec(t, ph);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto& s = t.phases()[static_cast<std::size_t>(ph)];
  EXPECT_GE(s.seconds, 0.012);
  EXPECT_EQ(s.calls, 3);
}

TEST(PhaseTimer, OpenPhasesCountsRunningSections) {
  phase_timer t(false);
  const auto root = t.add("step");
  const auto child = t.add("stage", root);
  {
    phase_timer::section step_sec(t, root);
    {
      phase_timer::section stage_sec(t, child);
      EXPECT_EQ(t.open_phases(), 2);
    }
    EXPECT_EQ(t.open_phases(), 1);
  }
  EXPECT_EQ(t.open_phases(), 0);
}

// The pencil kernel's comm thread runs its exchange rows while the caller
// runs the other rows of the same timer: distinct phases on distinct
// threads share no state, so neither thread loses a call.
TEST(PhaseTimer, DistinctPhasesAccumulateOnDistinctThreads) {
  phase_timer t(false);
  const auto caller = t.add("caller");
  const auto comm = t.add("comm");
  constexpr int kCalls = 500;
  std::thread other([&] {
    for (int i = 0; i < kCalls; ++i) phase_timer::section sec(t, comm);
  });
  for (int i = 0; i < kCalls; ++i) phase_timer::section sec(t, caller);
  other.join();
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(caller)].calls, kCalls);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(comm)].calls, kCalls);
  EXPECT_EQ(t.open_phases(), 0);
}

// A thrown stage must not leave the enclosing phases open: the RAII
// sections stop their phases during unwinding, so the step after a
// recovery starts from a balanced timer instead of folding the unwound
// frames into a still-running parent.
TEST(PhaseTimer, SectionsUnwindBalancedOnException) {
  phase_timer t(false);
  const auto root = t.add("step");
  const auto child = t.add("stage", root);
  EXPECT_THROW(
      {
        phase_timer::section step_sec(t, root);
        phase_timer::section stage_sec(t, child);
        throw std::runtime_error("blow-up mid-stage");
      },
      std::runtime_error);
  EXPECT_EQ(t.open_phases(), 0);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(root)].calls, 1);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(child)].calls, 1);
  // The post-recovery step times normally on the balanced timer.
  {
    phase_timer::section step_sec(t, root);
    phase_timer::section stage_sec(t, child);
  }
  EXPECT_EQ(t.open_phases(), 0);
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(root)].calls, 2);
  t.reset();  // balanced: the debug assert in reset() must not fire
  EXPECT_EQ(t.phases()[static_cast<std::size_t>(root)].calls, 0);
}

TEST(PhaseTimer, AttributesOpCountsWhenTracking) {
  phase_timer t(true);
  const auto ph = t.add("work");
  {
    phase_timer::section sec(t, ph);
    pcf::counters::add_flops(123);
    pcf::counters::add_read(40);
    pcf::counters::add_written(8);
  }
  const auto& s = t.phases()[static_cast<std::size_t>(ph)];
  EXPECT_EQ(s.ops.flops, 123u);
  EXPECT_EQ(s.ops.bytes_read, 40u);
  EXPECT_EQ(s.ops.bytes_written, 8u);

  t.reset();
  const auto& r = t.phases()[static_cast<std::size_t>(ph)];
  EXPECT_EQ(r.calls, 0);
  EXPECT_EQ(r.seconds, 0.0);
  EXPECT_EQ(r.ops.flops, 0u);
}

// A wall-time-only timer (the multi-rank DNS, the pencil kernel's stage
// rows) reads no counters: op counts made inside its phases stay with
// whoever drains them.
TEST(PhaseTimer, WallOnlyTimerAttributesNoOps) {
  phase_timer t(false);
  const auto ph = t.add("work");
  {
    phase_timer::section sec(t, ph);
    pcf::counters::add_flops(123);
    pcf::counters::add_read(40);
  }
  const auto& s = t.phases()[static_cast<std::size_t>(ph)];
  EXPECT_EQ(s.calls, 1);
  EXPECT_EQ(s.ops.flops, 0u);
  EXPECT_EQ(s.ops.bytes_read, 0u);
  EXPECT_EQ(s.ops.bytes_written, 0u);
}

TEST(PhaseTimer, ResetClears) {
  phase_timer t(false);
  const auto root = t.add("step");
  const auto child = t.add("stage", root);
  { phase_timer::section step_sec(t, root); }
  t.reset();
  const auto& p = t.phases();
  EXPECT_EQ(p[static_cast<std::size_t>(root)].seconds, 0.0);
  EXPECT_EQ(p[static_cast<std::size_t>(root)].calls, 0);
  // The registered tree is kept, and its rows accumulate afresh.
  EXPECT_EQ(p[static_cast<std::size_t>(child)].depth, 1);
  { phase_timer::section stage_sec(t, child); }
  EXPECT_EQ(p[static_cast<std::size_t>(child)].calls, 1);
}

}  // namespace
