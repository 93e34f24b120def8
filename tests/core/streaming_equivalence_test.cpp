// The contract of the incremental engine: BeatPipeline::process is a thin
// one-big-chunk wrapper over StreamingBeatPipeline, and the streaming
// engine is chunk-size invariant -- so batch and streaming BeatRecords
// must be *byte-identical* (indices, flaws, hemodynamics) at every chunk
// size, not merely close. Plus the window-edge regression: beats emitted
// after their samples left the bounded look-back window must come out
// flagged, never referencing trimmed indices.
#include "core/legacy_recompute.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "dsp/zero_phase_highpass.h"

#include "ecg/pan_tompkins.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include "../common/qrs_feed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::core {
namespace {

constexpr double kFs = 250.0;
constexpr std::size_t kChunkSizes[] = {1, 7, 64, 1024};

synth::Recording make_recording(double duration_s, std::size_t subject_idx = 2,
                                synth::Position pos = synth::Position::ArmsOutstretched) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  const synth::SourceActivity src = generate_source(roster[subject_idx], cfg);
  return measure_device(roster[subject_idx], src, 50e3, pos);
}

std::vector<BeatRecord> stream_in_chunks(const synth::Recording& rec, std::size_t chunk,
                                         const PipelineConfig& cfg = {},
                                         double window_s = 12.0) {
  StreamingBeatPipeline streaming(kFs, cfg, window_s);
  std::vector<BeatRecord> beats;
  for (std::size_t i = 0; i < rec.ecg_mv.size(); i += chunk) {
    const std::size_t len = std::min(chunk, rec.ecg_mv.size() - i);
    const auto got = streaming.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                                    dsp::SignalView(rec.z_ohm.data() + i, len));
    beats.insert(beats.end(), got.begin(), got.end());
  }
  const auto tail = streaming.finish();
  beats.insert(beats.end(), tail.begin(), tail.end());
  return beats;
}

void expect_identical(const BeatRecord& a, const BeatRecord& b, std::size_t i,
                      std::size_t chunk) {
  const auto tag = [&] {
    return ::testing::Message() << "beat " << i << " chunk " << chunk;
  };
  EXPECT_EQ(a.points.r, b.points.r) << tag();
  EXPECT_EQ(a.points.b, b.points.b) << tag();
  EXPECT_EQ(a.points.b0, b.points.b0) << tag();
  EXPECT_EQ(a.points.c, b.points.c) << tag();
  EXPECT_EQ(a.points.x, b.points.x) << tag();
  EXPECT_EQ(a.points.valid, b.points.valid) << tag();
  EXPECT_EQ(a.points.b_method, b.points.b_method) << tag();
  EXPECT_EQ(a.points.c_amplitude, b.points.c_amplitude) << tag();
  EXPECT_EQ(a.flaws, b.flaws) << tag();
  EXPECT_EQ(a.rr_s, b.rr_s) << tag();
  EXPECT_EQ(a.hemo.pep_s, b.hemo.pep_s) << tag();
  EXPECT_EQ(a.hemo.lvet_s, b.hemo.lvet_s) << tag();
  EXPECT_EQ(a.hemo.hr_bpm, b.hemo.hr_bpm) << tag();
  EXPECT_EQ(a.hemo.dzdt_max, b.hemo.dzdt_max) << tag();
  EXPECT_EQ(a.hemo.sv_kubicek_ml, b.hemo.sv_kubicek_ml) << tag();
  EXPECT_EQ(a.hemo.sv_sramek_ml, b.hemo.sv_sramek_ml) << tag();
  EXPECT_EQ(a.hemo.co_kubicek_l_min, b.hemo.co_kubicek_l_min) << tag();
  EXPECT_EQ(a.hemo.tfc_per_kohm, b.hemo.tfc_per_kohm) << tag();
}

TEST(StreamingEquivalenceTest, BatchAndStreamingAreByteIdenticalAtEveryChunkSize) {
  const synth::Recording rec = make_recording(25.0);
  const BeatPipeline batch(kFs);
  const PipelineResult batch_res = batch.process(rec.ecg_mv, rec.z_ohm);
  ASSERT_GT(batch_res.beats.size(), 15u);

  for (const std::size_t chunk : kChunkSizes) {
    const std::vector<BeatRecord> streamed = stream_in_chunks(rec, chunk);
    ASSERT_EQ(streamed.size(), batch_res.beats.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < streamed.size(); ++i)
      expect_identical(streamed[i], batch_res.beats[i], i, chunk);
  }
}

TEST(StreamingEquivalenceTest, HoldsUnderNonDefaultConfig) {
  const synth::Recording rec = make_recording(15.0, 0, synth::Position::HoldToChest);
  PipelineConfig cfg;
  cfg.ecg_filter.enable_morphological_stage = false; // ablation switch path
  cfg.icg_filter.highpass_hz = 0.0;                  // no baseline high-pass
  const BeatPipeline batch(kFs, cfg);
  const PipelineResult batch_res = batch.process(rec.ecg_mv, rec.z_ohm);
  ASSERT_GT(batch_res.beats.size(), 8u);

  for (const std::size_t chunk : kChunkSizes) {
    const std::vector<BeatRecord> streamed = stream_in_chunks(rec, chunk, cfg);
    ASSERT_EQ(streamed.size(), batch_res.beats.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < streamed.size(); ++i)
      expect_identical(streamed[i], batch_res.beats[i], i, chunk);
  }
}

TEST(StreamingEquivalenceTest, EveryRrPairIsEmittedExactlyOnce) {
  const synth::Recording rec = make_recording(20.0);
  StreamingBeatPipeline streaming(kFs);
  std::vector<BeatRecord> beats;
  const std::size_t chunk = 64;
  for (std::size_t i = 0; i < rec.ecg_mv.size(); i += chunk) {
    const std::size_t len = std::min(chunk, rec.ecg_mv.size() - i);
    const auto got = streaming.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                                    dsp::SignalView(rec.z_ohm.data() + i, len));
    beats.insert(beats.end(), got.begin(), got.end());
  }
  const auto tail = streaming.finish();
  beats.insert(beats.end(), tail.begin(), tail.end());

  // One beat per consecutive R pair, in strictly increasing order.
  ASSERT_GT(streaming.r_peak_count(), 10u);
  EXPECT_EQ(beats.size() + 1, streaming.r_peak_count());
  for (std::size_t i = 1; i < beats.size(); ++i)
    EXPECT_GT(beats[i].points.r, beats[i - 1].points.r);
}

// Regression (window-edge): with a look-back window smaller than the
// recording, late-flushed beats must be clamped/flagged rather than
// referencing samples that have left the window.
TEST(StreamingEquivalenceTest, SmallWindowNeverReferencesTrimmedSamples) {
  const synth::Recording rec = make_recording(20.0);
  for (const double window_s : {5.0, 8.0}) {
    const std::vector<BeatRecord> beats = stream_in_chunks(rec, 64, {}, window_s);
    ASSERT_GT(beats.size(), 10u) << "window " << window_s;
    const std::size_t n = rec.ecg_mv.size();
    for (const BeatRecord& rec_b : beats) {
      EXPECT_LT(rec_b.points.r, n);
      EXPECT_LT(rec_b.points.x, n);
      EXPECT_GE(rec_b.points.b, rec_b.points.r);
      EXPECT_GE(rec_b.points.c, rec_b.points.r);
      EXPECT_GE(rec_b.points.x, rec_b.points.r);
      // Points stay inside this beat's R-R interval.
      const auto span = static_cast<std::size_t>(rec_b.rr_s * kFs + 1.5);
      EXPECT_LE(rec_b.points.x, rec_b.points.r + span);
    }
    // And chunk invariance must hold for small windows too.
    const std::vector<BeatRecord> replay = stream_in_chunks(rec, 7, {}, window_s);
    ASSERT_EQ(replay.size(), beats.size());
    for (std::size_t i = 0; i < beats.size(); ++i)
      expect_identical(replay[i], beats[i], i, 7);
  }
}

// Regression for the legacy windowed-recompute drain(): finish()-flushed
// beats near the window edge used to rebase default-zero points of
// invalid delineations into nonsense absolute indices.
TEST(WindowedRecomputeTest, FlushedBeatsAreClampedToTheirBeat) {
  const synth::Recording rec = make_recording(20.0);
  WindowedRecomputePipeline legacy(kFs, {}, 6.0); // window << recording
  std::vector<BeatRecord> beats;
  const std::size_t chunk = 125;
  for (std::size_t i = 0; i < rec.ecg_mv.size(); i += chunk) {
    const std::size_t len = std::min(chunk, rec.ecg_mv.size() - i);
    const auto got = legacy.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                                 dsp::SignalView(rec.z_ohm.data() + i, len));
    beats.insert(beats.end(), got.begin(), got.end());
  }
  const auto tail = legacy.finish();
  beats.insert(beats.end(), tail.begin(), tail.end());

  ASSERT_GT(beats.size(), 10u);
  EXPECT_EQ(legacy.samples_consumed(), rec.ecg_mv.size());
  for (const BeatRecord& b : beats) {
    const auto span = static_cast<std::size_t>(b.rr_s * kFs + 1.5);
    EXPECT_GE(b.points.b, b.points.r);
    EXPECT_GE(b.points.c, b.points.r);
    EXPECT_GE(b.points.x, b.points.r);
    EXPECT_LE(b.points.x, b.points.r + span);
    EXPECT_LT(b.points.x, rec.ecg_mv.size());
  }
}

// The online QRS detector itself must be chunk-invariant and equal to the
// batch wrapper (which feeds it one big chunk).
TEST(OnlinePanTompkinsTest, ChunkInvariantAndEqualToBatchDetect) {
  const synth::Recording rec = make_recording(20.0, 1, synth::Position::ArmsDown);
  const ecg::PanTompkins pt(kFs);
  // detect() runs on the cleaned ECG in the pipeline; raw is fine here.
  const ecg::QrsDetection batch = pt.detect(rec.ecg_mv);
  ASSERT_GT(batch.r_samples.size(), 15u);

  for (const std::size_t chunk : kChunkSizes) {
    ecg::OnlinePanTompkins online(kFs);
    const std::vector<std::size_t> peaks =
        test_support::detect_chunked(online, rec.ecg_mv, chunk);
    ASSERT_EQ(peaks.size(), batch.r_samples.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < peaks.size(); ++i)
      EXPECT_EQ(peaks[i], batch.r_samples[i]) << "chunk " << chunk << " peak " << i;
  }
}

// Every stage has one feed verb, process_chunk(x, out, cum). Its
// contract: one cum entry per input, cum[i] == out.size() once input i
// has been consumed (so a call's last entry is its running total), and
// the outputs and counts do not depend on the chunking.
template <typename S>
struct StageRun {
  std::vector<S> out;
  std::vector<std::uint32_t> cum;
};

template <typename Stage, typename S>
StageRun<S> run_stage(Stage& stage, const std::vector<S>& x, std::size_t chunk) {
  StageRun<S> run;
  const std::span<const S> xs(x);
  for (std::size_t i = 0; i < x.size(); i += chunk) {
    const std::size_t len = std::min(chunk, x.size() - i);
    const std::size_t before = run.cum.size();
    stage.process_chunk(xs.subspan(i, len), run.out, run.cum);
    EXPECT_EQ(run.cum.size(), before + len) << "chunk " << chunk << " at " << i;
    EXPECT_EQ(run.cum.back(), run.out.size()) << "chunk " << chunk << " at " << i;
  }
  stage.finish(run.out);
  return run;
}

template <typename MakeStage, typename S>
void expect_stage_chunk_invariant(MakeStage make_stage, const std::vector<S>& x) {
  auto ref_stage = make_stage();
  const StageRun<S> ref = run_stage(ref_stage, x, 1);
  ASSERT_EQ(ref.out.size(), x.size()) << "n inputs must yield n outputs";
  for (const std::size_t chunk : kChunkSizes) {
    auto stage = make_stage();
    const StageRun<S> got = run_stage(stage, x, chunk);
    EXPECT_TRUE(got.out == ref.out) << "outputs differ at chunk " << chunk;
    EXPECT_EQ(got.cum, ref.cum) << "counts differ at chunk " << chunk;
  }
}

template <typename B>
std::vector<typename B::sample_t> to_backend(const dsp::Signal& x, double fullscale) {
  std::vector<typename B::sample_t> out;
  for (const double v : x) {
    if constexpr (B::kFixed) out.push_back(B::from_real(v / fullscale));
    else out.push_back(v);
  }
  return out;
}

template <typename B>
void check_stages(const synth::Recording& rec) {
  const dsp::Q31ScalingPolicy scaling{};
  const PipelineConfig cfg{};
  const auto e = to_backend<B>(rec.ecg_mv, scaling.ecg_fullscale_mv);
  const auto z = to_backend<B>(rec.z_ohm, scaling.z_fullscale_ohm);
  {
    SCOPED_TRACE("ZeroPhaseHighpass");
    expect_stage_chunk_invariant(
        [&] { return dsp::BasicStreamingZeroPhaseHighpass<B>(kFs); }, e);
  }
  {
    SCOPED_TRACE("EcgCleanerStage");
    expect_stage_chunk_invariant(
        [&] { return BasicEcgCleanerStage<B>(kFs, cfg.ecg_filter); }, e);
  }
  {
    SCOPED_TRACE("IcgConditionerStage");
    expect_stage_chunk_invariant(
        [&] {
          return BasicIcgConditionerStage<B>(kFs, cfg.icg_filter,
                                             B::kFixed ? scaling.icg_gain_log2 : 0);
        },
        z);
  }
}

TEST(StreamingStageTest, ChunkInvariantWithCumContractDouble) {
  check_stages<dsp::DoubleBackend>(make_recording(12.0));
}

TEST(StreamingStageTest, ChunkInvariantWithCumContractQ31) {
  check_stages<dsp::Q31Backend>(make_recording(12.0));
}

} // namespace
} // namespace icgkit::core
