#include "dsp/moving.h"

#include <gtest/gtest.h>

namespace icgkit::dsp {
namespace {

TEST(MovingTest, MovingAverageCentered) {
  const Signal x{1.0, 2.0, 3.0, 4.0, 5.0};
  const Signal y = moving_average(x, 3);
  EXPECT_DOUBLE_EQ(y[0], 1.5); // shrinking edge window {1,2}
  EXPECT_DOUBLE_EQ(y[1], 2.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  EXPECT_DOUBLE_EQ(y[3], 4.0);
  EXPECT_DOUBLE_EQ(y[4], 4.5);
}

TEST(MovingTest, MovingAverageWidthOneIsIdentity) {
  const Signal x{3.0, -1.0, 4.0};
  const Signal y = moving_average(x, 1);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(MovingTest, MovingAverageRejectsEvenWidth) {
  EXPECT_THROW(moving_average(Signal{1.0, 2.0}, 2), std::invalid_argument);
  EXPECT_THROW(moving_average(Signal{1.0, 2.0}, 0), std::invalid_argument);
}

TEST(MovingTest, MwiCausalGrowingWindow) {
  const Signal x{2.0, 4.0, 6.0, 8.0};
  const Signal y = moving_window_integrate(x, 3);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  EXPECT_DOUBLE_EQ(y[3], 6.0);
}

TEST(MovingTest, MwiOfConstantIsConstant) {
  const Signal x(100, 5.0);
  const Signal y = moving_window_integrate(x, 37);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(MovingTest, MwiSmoothsSpike) {
  Signal x(50, 0.0);
  x[25] = 10.0;
  const Signal y = moving_window_integrate(x, 5);
  EXPECT_DOUBLE_EQ(y[25], 2.0);
  EXPECT_DOUBLE_EQ(y[29], 2.0);
  EXPECT_DOUBLE_EQ(y[30], 0.0);
}

TEST(MovingTest, EmaConvergesToConstant) {
  const Signal x(200, 4.0);
  const Signal y = ema(x, 0.1);
  EXPECT_NEAR(y.back(), 4.0, 1e-6);
}

TEST(MovingTest, EmaAlphaOneIsIdentity) {
  const Signal x{1.0, -2.0, 3.0};
  const Signal y = ema(x, 1.0);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(MovingTest, EmaRejectsBadAlpha) {
  EXPECT_THROW(ema(Signal{1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(ema(Signal{1.0}, 1.5), std::invalid_argument);
}

TEST(MovingTest, StreamingMatchesBatchMwi) {
  Signal x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 7);
  const Signal batch = moving_window_integrate(x, 9);
  StreamingMovingAverage stream(9);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(stream.tick(x[i]), batch[i], 1e-12) << i;
}

TEST(MovingTest, StreamingReset) {
  StreamingMovingAverage s(4);
  s.tick(10.0);
  s.tick(20.0);
  s.reset();
  EXPECT_DOUBLE_EQ(s.tick(6.0), 6.0);
}

} // namespace
} // namespace icgkit::dsp
