#include "ecg/pan_tompkins.h"

#include "ecg/ecg_filter.h"
#include "ecg/heart_rate.h"
#include "synth/artifacts.h"
#include "synth/ecg_synth.h"
#include "synth/recording.h"
#include "synth/rr_process.h"

#include "dsp/stats.h"

#include "../common/qrs_feed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::ecg {
namespace {

constexpr double kFs = 250.0;

struct MatchStats {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  double mean_abs_error_s = 0.0;

  [[nodiscard]] double sensitivity() const {
    const double denom = static_cast<double>(true_positives + false_negatives);
    return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
  }
  [[nodiscard]] double ppv() const {
    const double denom = static_cast<double>(true_positives + false_positives);
    return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
  }
};

// Greedy matching of detections to ground-truth R times within a window.
MatchStats match_detections(const std::vector<double>& truth, const std::vector<double>& det,
                            double tol_s = 0.05) {
  MatchStats m;
  std::vector<bool> used(det.size(), false);
  double err_acc = 0.0;
  for (const double t : truth) {
    double best = tol_s;
    std::size_t best_i = det.size();
    for (std::size_t i = 0; i < det.size(); ++i) {
      if (used[i]) continue;
      const double e = std::abs(det[i] - t);
      if (e <= best) {
        best = e;
        best_i = i;
      }
    }
    if (best_i < det.size()) {
      used[best_i] = true;
      ++m.true_positives;
      err_acc += best;
    } else {
      ++m.false_negatives;
    }
  }
  for (const bool u : used)
    if (!u) ++m.false_positives;
  if (m.true_positives > 0) m.mean_abs_error_s = err_acc / static_cast<double>(m.true_positives);
  return m;
}

TEST(PanTompkinsTest, PerfectOnCleanEcg) {
  const auto rr = std::vector<double>(30, 0.8);
  const auto gen = synth::synthesize_ecg(rr, kFs);
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  const MatchStats m = match_detections(gen.r_times_s, r_peak_times(det, kFs));
  EXPECT_EQ(m.false_negatives, 0u);
  EXPECT_EQ(m.false_positives, 0u);
  EXPECT_LT(m.mean_abs_error_s, 0.01);
}

TEST(PanTompkinsTest, HandlesHrVariability) {
  synth::Rng rng(11);
  synth::RrConfig rrcfg;
  rrcfg.mean_hr_bpm = 70.0;
  const auto rr = synth::generate_rr_intervals(rrcfg, 60.0, rng);
  const auto gen = synth::synthesize_ecg(rr, kFs);
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  const MatchStats m = match_detections(gen.r_times_s, r_peak_times(det, kFs));
  EXPECT_GT(m.sensitivity(), 0.98);
  EXPECT_GT(m.ppv(), 0.98);
}

TEST(PanTompkinsTest, RobustToModerateNoise) {
  const auto rr = std::vector<double>(40, 0.85);
  auto gen = synth::synthesize_ecg(rr, kFs);
  synth::Rng rng(12);
  const dsp::Signal noise = synth::white_noise(gen.ecg_mv.size(), 0.08, rng);
  const dsp::Signal mains =
      synth::powerline_artifact(gen.ecg_mv.size(), kFs, 0.1, 50.0, rng);
  for (std::size_t i = 0; i < gen.ecg_mv.size(); ++i)
    gen.ecg_mv[i] += noise[i] + mains[i];
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  const MatchStats m = match_detections(gen.r_times_s, r_peak_times(det, kFs));
  EXPECT_GT(m.sensitivity(), 0.97);
  EXPECT_GT(m.ppv(), 0.97);
}

TEST(PanTompkinsTest, RobustToBaselineWanderAfterFiltering) {
  const auto rr = std::vector<double>(40, 0.8);
  auto gen = synth::synthesize_ecg(rr, kFs);
  for (std::size_t i = 0; i < gen.ecg_mv.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    gen.ecg_mv[i] += 1.0 * std::sin(2.0 * std::numbers::pi * 0.3 * t);
  }
  const EcgFilter filter(kFs);
  const dsp::Signal cleaned = filter.apply(gen.ecg_mv);
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(cleaned), kFs));
  EXPECT_GT(m.sensitivity(), 0.97);
}

TEST(PanTompkinsTest, DoesNotDoubleCountTWaves) {
  // Exaggerated T waves must not produce extra detections.
  synth::EcgSynthConfig cfg;
  cfg.waves = synth::EcgSynthConfig::default_waves();
  cfg.waves[4].amplitude *= 2.0; // big T
  const auto rr = std::vector<double>(30, 0.9);
  const auto gen = synth::synthesize_ecg(rr, kFs, cfg);
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(gen.ecg_mv), kFs));
  EXPECT_EQ(m.false_positives, 0u);
  EXPECT_GT(m.sensitivity(), 0.97);
}

TEST(PanTompkinsTest, SearchbackRecoversAttenuatedBeat) {
  // One beat at 40 % amplitude: primary thresholds may miss it; the
  // search-back should recover it.
  const auto rr = std::vector<double>(20, 0.8);
  auto gen = synth::synthesize_ecg(rr, kFs);
  const std::size_t target = static_cast<std::size_t>(gen.r_times_s[10] * kFs);
  for (std::size_t i = target - 30; i < target + 30 && i < gen.ecg_mv.size(); ++i)
    gen.ecg_mv[i] *= 0.4;
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(gen.ecg_mv), kFs));
  EXPECT_GE(m.sensitivity(), 0.95);
}

TEST(PanTompkinsTest, ShortSignalReturnsEmpty) {
  const PanTompkins pt(kFs);
  const dsp::Signal x(100, 0.0);
  const QrsDetection det = pt.detect(x);
  EXPECT_TRUE(det.r_samples.empty());
}

TEST(PanTompkinsTest, RrIntervalsConsistent) {
  const auto rr = std::vector<double>(25, 0.75);
  const auto gen = synth::synthesize_ecg(rr, kFs);
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  ASSERT_GE(det.rr_intervals_s.size(), 20u);
  for (const double v : det.rr_intervals_s) EXPECT_NEAR(v, 0.75, 0.03);
}

TEST(PanTompkinsTest, RejectsBadConfig) {
  EXPECT_THROW(PanTompkins(0.0), std::invalid_argument);
  PanTompkinsConfig cfg;
  cfg.bandpass_low_hz = 20.0;
  cfg.bandpass_high_hz = 10.0;
  EXPECT_THROW(PanTompkins(kFs, cfg), std::invalid_argument);
}

class PanTompkinsNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PanTompkinsNoiseSweep, SensitivityDegradesGracefully) {
  const double sigma = GetParam();
  const auto rr = std::vector<double>(40, 0.8);
  auto gen = synth::synthesize_ecg(rr, kFs);
  synth::Rng rng(static_cast<std::uint64_t>(sigma * 1000) + 1);
  const dsp::Signal noise = synth::white_noise(gen.ecg_mv.size(), sigma, rng);
  for (std::size_t i = 0; i < gen.ecg_mv.size(); ++i) gen.ecg_mv[i] += noise[i];
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(gen.ecg_mv), kFs));
  // Up to sigma = 0.15 mV (SNR ~ 16 dB wrt 1 mV R) sensitivity stays high.
  EXPECT_GT(m.sensitivity(), 0.95) << "sigma=" << sigma;
  EXPECT_GT(m.ppv(), 0.93) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, PanTompkinsNoiseSweep,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10, 0.15));

// The batch detector is the shared feature front over BatchBackend<W>
// plus W scalar decision tails: lane l's peaks, the finish flush
// included, must equal a scalar detector fed lane l alone.
TEST(BatchOnlinePanTompkinsTest, LanePeaksEqualScalarDetector) {
  constexpr std::size_t kW = 4;
  using Batch = BasicOnlinePanTompkins<dsp::BatchBackend<kW>>;
  using Lanes = Batch::sample_t;
  synth::RecordingConfig rcfg;
  rcfg.duration_s = 20.0;
  rcfg.session_seed = 5;
  const auto workload = synth::make_fleet_workload(kW, rcfg);
  const std::size_t n = workload[0].ecg_mv.size();
  std::vector<Lanes> x(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t l = 0; l < kW; ++l) x[i].set_lane(l, workload[l].ecg_mv[i]);
  const std::span<const Lanes> xs(x);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}, n}) {
    Batch batch(kFs);
    std::array<std::vector<std::size_t>, kW> peaks;
    std::vector<Lanes> feat;
    std::vector<std::uint32_t> cum;
    for (std::size_t i = 0; i < n; i += chunk) {
      const auto part = xs.subspan(i, std::min(chunk, n - i));
      feat.clear();
      cum.clear();
      batch.front_chunk(part, feat, cum);
      for (std::size_t l = 0; l < kW; ++l)
        replay_decision_tail(batch.decision_tail(l), part, 0, part.size(), feat, cum,
                             peaks[l], [l](const Lanes& v) { return v.lane(l); });
    }
    std::size_t before_finish = 0;
    for (const auto& p : peaks) before_finish += p.size();
    feat.clear();
    batch.finish(feat, peaks.data());
    std::size_t after_finish = 0;
    for (const auto& p : peaks) after_finish += p.size();
    EXPECT_GT(after_finish, before_finish) << "finish flushed no peak at chunk " << chunk;

    for (std::size_t l = 0; l < kW; ++l) {
      OnlinePanTompkins scalar(kFs);
      const std::vector<std::size_t> ref =
          test_support::detect_chunked(scalar, workload[l].ecg_mv, chunk);
      ASSERT_GT(ref.size(), 15u) << "lane " << l;
      EXPECT_EQ(peaks[l], ref) << "lane " << l << " chunk " << chunk;
    }
  }
}

TEST(HeartRateTest, StatsOnCleanSeries) {
  const std::vector<double> rr(20, 0.8);
  const HeartRateStats s = heart_rate_stats(rr);
  EXPECT_NEAR(s.mean_bpm, 75.0, 1e-9);
  EXPECT_NEAR(s.median_bpm, 75.0, 1e-9);
  EXPECT_NEAR(s.sdnn_ms, 0.0, 1e-9);
  EXPECT_EQ(s.beat_count, 20u);
}

TEST(HeartRateTest, FiltersArtifacts) {
  std::vector<double> rr(10, 0.8);
  rr.push_back(5.0);   // dropout
  rr.push_back(0.05);  // double detection
  const HeartRateStats s = heart_rate_stats(rr);
  EXPECT_EQ(s.beat_count, 10u);
  EXPECT_NEAR(s.mean_bpm, 75.0, 1e-9);
}

TEST(HeartRateTest, EmptyInputSafe) {
  const HeartRateStats s = heart_rate_stats({});
  EXPECT_EQ(s.beat_count, 0u);
  EXPECT_DOUBLE_EQ(s.mean_bpm, 0.0);
}

TEST(HeartRateTest, RmssdReflectsAlternans) {
  std::vector<double> rr;
  for (int i = 0; i < 20; ++i) rr.push_back(i % 2 == 0 ? 0.78 : 0.82);
  const HeartRateStats s = heart_rate_stats(rr);
  EXPECT_NEAR(s.rmssd_ms, 40.0, 2.0);
}

TEST(HeartRateTest, InstantaneousSeries) {
  const std::vector<double> rr{0.8, 0.75, 5.0, 0.85};
  const auto hr = instantaneous_hr(rr);
  ASSERT_EQ(hr.size(), 3u);
  EXPECT_NEAR(hr[0], 75.0, 1e-9);
  EXPECT_NEAR(hr[1], 80.0, 1e-9);
  EXPECT_NEAR(hr[2], 60.0 / 0.85, 1e-9);
}

} // namespace
} // namespace icgkit::ecg
