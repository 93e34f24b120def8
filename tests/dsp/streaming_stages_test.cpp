// Streaming counterparts vs their batch references: the streaming engine
// rests on these stages being (a) chunk-size invariant and (b) equal to
// the batch kernels they replace (exactly for morphology/moving/fixed
// point, to filtfilt-level accuracy for the zero-phase FIR stages).
#include "dsp/butterworth.h"
#include "dsp/filtfilt.h"
#include "dsp/fir_design.h"
#include "dsp/fixed_point.h"
#include "dsp/morphology.h"
#include "dsp/moving.h"
#include "synth/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace icgkit::dsp {
namespace {

constexpr double kFs = 250.0;

Signal noisy_signal(std::size_t n, std::uint64_t seed) {
  synth::Rng rng(seed);
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kFs;
    x[i] = std::sin(2.0 * std::numbers::pi * 1.3 * t) +
           0.4 * std::sin(2.0 * std::numbers::pi * 17.0 * t) + 0.2 * rng.normal();
  }
  return x;
}

Signal run_streaming(StreamingZeroPhaseFir& st, SignalView x, std::size_t chunk) {
  Signal y;
  std::vector<std::uint32_t> cum;
  for (std::size_t i = 0; i < x.size(); i += chunk)
    st.process_chunk(x.subspan(i, std::min(chunk, x.size() - i)), y, cum);
  st.finish(y);
  return y;
}

TEST(ZeroPhaseKernelTest, FirKernelMagnitudeIsSquared) {
  const FirCoefficients h = design_bandpass(32, 0.05, 40.0, kFs);
  const FirCoefficients g = zero_phase_fir_kernel(h);
  ASSERT_EQ(g.taps.size(), 2 * h.taps.size() - 1);
  for (const double f : {0.0, 5.0, 20.0, 60.0, 100.0}) {
    const double mh = fir_magnitude_at(h, f, kFs);
    const double mg = fir_magnitude_at(g, f, kFs);
    EXPECT_NEAR(mg, mh * mh, 1e-9) << "f=" << f;
  }
}

TEST(ZeroPhaseKernelTest, SosKernelMagnitudeIsSquared) {
  const SosFilter lp = butterworth_lowpass(4, 20.0, kFs);
  const FirCoefficients g = zero_phase_sos_kernel(lp);
  ASSERT_EQ(g.taps.size() % 2, 1u);
  for (const double f : {0.0, 5.0, 15.0, 20.0, 40.0}) {
    const double mh = sos_magnitude_at(lp, f, kFs);
    const double mg = fir_magnitude_at(g, f, kFs);
    EXPECT_NEAR(mg, mh * mh, 1e-4) << "f=" << f;
  }
}

TEST(StreamingZeroPhaseFirTest, MatchesFiltfiltFir) {
  const FirCoefficients h = design_bandpass(32, 0.05, 40.0, kFs);
  const Signal x = noisy_signal(2000, 7);
  const Signal ref = filtfilt_fir(h, x);
  StreamingZeroPhaseFir st(zero_phase_fir_kernel(h));
  const Signal y = run_streaming(st, x, 64);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-9) << "i=" << i;
}

TEST(StreamingZeroPhaseFirTest, ChunkSizeInvariant) {
  const FirCoefficients h = design_bandpass(32, 0.05, 40.0, kFs);
  const Signal x = noisy_signal(1500, 8);
  const FirCoefficients g = zero_phase_fir_kernel(h);
  StreamingZeroPhaseFir a(g);
  const Signal ref = run_streaming(a, x, x.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1024}}) {
    StreamingZeroPhaseFir st(g);
    const Signal y = run_streaming(st, x, chunk);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], ref[i]) << "chunk=" << chunk << " i=" << i;
  }
}

TEST(StreamingZeroPhaseFirTest, SosKernelTracksFiltfiltSos) {
  const SosFilter lp = butterworth_lowpass(4, 20.0, kFs);
  const Signal x = noisy_signal(2000, 9);
  const Signal ref = filtfilt_sos(lp, x);
  StreamingZeroPhaseFir st(zero_phase_sos_kernel(lp));
  const Signal y = run_streaming(st, x, 32);
  ASSERT_EQ(y.size(), x.size());
  // Interior matches tightly; the batch filtfilt uses steady-state edge
  // initialization the truncated-kernel stage only approximates.
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 100; i + 100 < x.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-4 * scale) << "i=" << i;
}

TEST(StreamingZeroPhaseFirTest, ShortSignalStillAligned) {
  const FirCoefficients h = design_lowpass(16, 30.0, kFs);
  const FirCoefficients g = zero_phase_fir_kernel(h);
  StreamingZeroPhaseFir st(g);
  const Signal x = noisy_signal(8, 10); // shorter than the group delay
  Signal y;
  std::vector<std::uint32_t> cum;
  st.process_chunk(x, y, cum);
  st.finish(y);
  ASSERT_EQ(y.size(), x.size());
  for (const double v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(StreamingZeroPhaseFirTest, RejectsAsymmetricKernel) {
  FirCoefficients bad;
  bad.taps = {1.0, 2.0, 3.0};
  EXPECT_THROW(StreamingZeroPhaseFir{bad}, std::invalid_argument);
  FirCoefficients even;
  even.taps = {1.0, 1.0};
  EXPECT_THROW(StreamingZeroPhaseFir{even}, std::invalid_argument);
}

TEST(StreamingExtremumTest, MatchesBatchErodeDilate) {
  const Signal x = noisy_signal(777, 11);
  for (const std::size_t width : {std::size_t{1}, std::size_t{5}, std::size_t{51}}) {
    const Signal er = erode(x, width);
    const Signal di = dilate(x, width);
    StreamingExtremum smin(width, StreamingExtremum::Kind::Min);
    StreamingExtremum smax(width, StreamingExtremum::Kind::Max);
    Signal ys_min, ys_max;
    for (const double v : x) {
      smin.push(v, ys_min);
      smax.push(v, ys_max);
    }
    smin.finish(ys_min);
    smax.finish(ys_max);
    ASSERT_EQ(ys_min.size(), x.size());
    ASSERT_EQ(ys_max.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(ys_min[i], er[i]) << "width=" << width << " i=" << i;
      ASSERT_EQ(ys_max[i], di[i]) << "width=" << width << " i=" << i;
    }
  }
}

TEST(StreamingBaselineRemoverTest, MatchesBatchRemoveBaseline) {
  const Signal x = noisy_signal(2000, 12);
  const Signal ref = remove_baseline(x, kFs);
  StreamingBaselineRemover st(kFs);
  Signal y;
  for (std::size_t i = 0; i < x.size(); i += 13) {
    for (std::size_t j = i; j < std::min(x.size(), i + 13); ++j) st.push(x[j], y);
  }
  st.finish(y);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(y[i], ref[i]) << "i=" << i;
}

TEST(StreamingMovingAverageTest, MatchesMovingWindowIntegrate) {
  const Signal x = noisy_signal(500, 13);
  const Signal ref = moving_window_integrate(x, 37);
  StreamingMovingAverage st(37);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(st.tick(x[i]), ref[i]) << "i=" << i;
}

TEST(FixedSosFilterTest, TickMatchesApplyBitExactly) {
  const SosFilter lp = butterworth_lowpass(2, 20.0, kFs);
  FixedSosFilter fixed(lp);
  constexpr double kQ31 = 2147483648.0;
  // Amplitude well inside [-1, 1) so neither path saturates; apply() and
  // tick() then run the identical integer arithmetic.
  Signal x = noisy_signal(400, 14);
  for (double& v : x) v /= 8.0;
  const Signal batch = fixed.apply(x);
  fixed.reset_state();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto q = static_cast<std::int32_t>(std::llround(x[i] * kQ31));
    const std::int32_t y = fixed.tick(q);
    ASSERT_EQ(static_cast<double>(y) / kQ31, batch[i]) << "i=" << i;
  }
}

} // namespace
} // namespace icgkit::dsp
