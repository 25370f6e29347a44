#include <gtest/gtest.h>

#include <thread>

#include "util/timer.hpp"

namespace {

using pcf::wall_timer;

TEST(WallTimer, MeasuresElapsedTime) {
  wall_timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
}

TEST(WallTimer, RestartResets) {
  wall_timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.restart();
  EXPECT_LT(t.seconds(), 0.015);
}

}  // namespace
