// Shared single-pass streaming infrastructure for the beat pipeline.
//
// Every stage has one feed verb, process_chunk(x, out, cum): it consumes
// a chunk and appends zero or more *delay-compensated* output samples,
// plus one `cum` entry per input sample (the absolute size of `out` once
// that sample has been consumed). Output index i always corresponds to
// input index i, it is just emitted latency() samples later. finish()
// flushes the tail so a stream of n inputs always yields exactly n
// outputs. Because each stage's state is carried across calls, the
// composed pipeline is chunk-size invariant: any segmentation of the
// input (a chunk of one sample included) produces bit-identical output,
// which is what lets BeatPipeline::process be a thin one-big-chunk
// wrapper around StreamingBeatPipeline (see pipeline.h).
//
// Both stages are generic over the numeric backend (dsp/backend.h): the
// DoubleBackend instantiations are the reference engine, the Q31Backend
// instantiations the firmware arithmetic feeding
// FixedStreamingBeatPipeline. Filter kernels are always *designed* in
// double; the backend only decides how they are quantized and applied.
#pragma once

#include "core/icg_filter.h"
#include "dsp/backend.h"
#include "dsp/filtfilt.h"
#include "dsp/morphology.h"
#include "dsp/types.h"
#include "dsp/zero_phase_highpass.h"
#include "ecg/ecg_filter.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace icgkit::core {

/// The 0.05-40 Hz zero-phase FIR kernel of the ECG cleaning chain.
dsp::FirCoefficients ecg_cleaner_fir_kernel(dsp::SampleRate fs,
                                            const ecg::EcgFilterConfig& cfg);
/// The symmetric zero-phase kernel of the 20 Hz ICG Butterworth low-pass
/// (validates fs).
dsp::FirCoefficients icg_conditioner_lowpass_kernel(dsp::SampleRate fs,
                                                    const IcgFilterConfig& cfg);

/// Streaming twin of EcgFilter::apply: morphological baseline removal
/// (bit-identical to the batch estimator) followed by the 0.05-40 Hz FIR
/// band-pass as a causal symmetric kernel equal to the zero-phase
/// filtfilt response. Honors the EcgFilterConfig ablation switches.
template <typename B>
class BasicEcgCleanerStage {
 public:
  using sample_t = typename B::sample_t;

  BasicEcgCleanerStage(dsp::SampleRate fs, const ecg::EcgFilterConfig& cfg = {}) {
    if (cfg.enable_morphological_stage) morph_.emplace(fs, cfg.baseline);
    if (cfg.enable_fir_stage) fir_.emplace(ecg_cleaner_fir_kernel(fs, cfg));
  }

  /// Feeds a chunk: one pass per sub-stage over the whole chunk. For
  /// every input sample appends one entry to `cum`: the absolute size of
  /// `out` after that sample's outputs (callers slice per-input output
  /// ranges as [cum[i-1], cum[i])). Each sub-stage sees the identical
  /// input sequence however the stream is chunked, so the output is
  /// chunk-size invariant.
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& out,
                     std::vector<std::uint32_t>& cum) {
    if (!morph_.has_value()) {
      if (fir_.has_value()) {
        fir_->process_chunk(x, out, cum);
      } else {
        for (const sample_t v : x) {
          out.push_back(v);
          cum.push_back(static_cast<std::uint32_t>(out.size()));
        }
      }
      return;
    }
    if (!fir_.has_value()) {
      for (const sample_t v : x) {
        morph_->push(v, out);
        cum.push_back(static_cast<std::uint32_t>(out.size()));
      }
      return;
    }
    morph_arena_.clear();
    morph_cum_.clear();
    for (const sample_t v : x) {
      morph_->push(v, morph_arena_);
      morph_cum_.push_back(static_cast<std::uint32_t>(morph_arena_.size()));
    }
    const auto base = static_cast<std::uint32_t>(out.size());
    fir_cum_.clear();
    fir_->process_chunk(morph_arena_, out, fir_cum_);
    for (std::size_t i = 0; i < x.size(); ++i)
      cum.push_back(morph_cum_[i] > 0 ? fir_cum_[morph_cum_[i] - 1] : base);
  }

  void finish(std::vector<sample_t>& out) {
    if (morph_.has_value() && fir_.has_value()) {
      morph_arena_.clear();
      morph_->finish(morph_arena_);
      fir_cum_.clear();
      fir_->process_chunk(morph_arena_, out, fir_cum_);
      fir_->finish(out);
      return;
    }
    if (morph_.has_value()) morph_->finish(out);
    if (fir_.has_value()) fir_->finish(out);
  }

  void reset() {
    if (morph_.has_value()) morph_->reset();
    if (fir_.has_value()) fir_->reset();
  }

  /// Most samples one process_chunk() of `n` inputs, or finish(), appends
  /// to `out`: each sub-stage emits at most one sample per input, and
  /// finish() flushes the whole latency.
  [[nodiscard]] std::size_t max_outputs(std::size_t n) const {
    return std::max(n, latency());
  }

  /// Pre-sizes the internal arenas so that neither process_chunk() of up
  /// to `max_chunk` samples nor finish() allocates.
  void reserve(std::size_t max_chunk) {
    if (morph_.has_value()) morph_->reserve();
    if (fir_.has_value()) fir_->reserve();
    if (!morph_.has_value() || !fir_.has_value()) return;
    const std::size_t morph_out = std::max(max_chunk, morph_->delay());
    morph_arena_.reserve(morph_out);
    morph_cum_.reserve(max_chunk);
    fir_cum_.reserve(morph_out);
  }

  /// Serializes the enabled sub-stages for core::Checkpoint round trips;
  /// load_state() rejects blobs whose stage layout (ablation switches)
  /// differs from this instance's configuration.
  template <typename W>
  void save_state(W& w) const {
    w.boolean(morph_.has_value());
    w.boolean(fir_.has_value());
    if (morph_.has_value()) morph_->save_state(w);
    if (fir_.has_value()) fir_->save_state(w);
  }

  template <typename R>
  void load_state(R& r) {
    if (r.boolean() != morph_.has_value() || r.boolean() != fir_.has_value())
      r.fail("EcgCleanerStage: stage layout mismatch");
    if (morph_.has_value()) morph_->load_state(r);
    if (fir_.has_value()) fir_->load_state(r);
  }

  [[nodiscard]] std::size_t latency() const {
    std::size_t d = 0;
    if (morph_.has_value()) d += morph_->delay();
    if (fir_.has_value()) d += fir_->delay();
    return d;
  }

 private:
  std::optional<dsp::BasicStreamingBaselineRemover<B>> morph_;
  std::optional<dsp::BasicStreamingZeroPhaseFir<B>> fir_;
  // Arenas: intermediate morph outputs and per-stage cumulative-output
  // snapshots, reused across chunks (no steady-state allocation once
  // grown).
  std::vector<sample_t> morph_arena_;
  std::vector<std::uint32_t> morph_cum_;
  std::vector<std::uint32_t> fir_cum_;
};

using EcgCleanerStage = BasicEcgCleanerStage<dsp::DoubleBackend>;

/// Streaming twin of the ICG conditioning chain: impedance in, cleaned
/// ICG (-dZ/dt, zero-phase 20 Hz low-pass, zero-phase baseline high-pass)
/// out. The derivative uses the batch central-difference stencil (one
/// sample of lookahead), the low-pass a symmetric kernel equal to the
/// zero-phase Butterworth response, and the high-pass the decimated
/// zero-phase baseline subtractor (see StreamingZeroPhaseHighpass).
///
/// `deriv_gain_log2` is the fixed-point scaling policy hook: the double
/// backend multiplies the derivative by fs as always, while the Q31
/// backend left-shifts by this amount instead and the caller accounts
/// for the absorbed fs/2^shift factor in the stage's nominal full scale
/// (see dsp::Q31ScalingPolicy).
template <typename B>
class BasicIcgConditionerStage {
 public:
  using sample_t = typename B::sample_t;

  BasicIcgConditionerStage(dsp::SampleRate fs, const IcgFilterConfig& cfg = {},
                           int deriv_gain_log2 = 0)
      : fs_(fs), gain_log2_(deriv_gain_log2),
        lp_(icg_conditioner_lowpass_kernel(fs, cfg)) {
    if (cfg.highpass_hz > 0.0) {
      dsp::ZeroPhaseHighpassConfig hp_cfg;
      hp_cfg.cutoff_hz = cfg.highpass_hz;
      hp_cfg.order = cfg.highpass_order;
      hp_.emplace(fs, hp_cfg);
    }
  }

  /// Feeds a chunk: derivative stencil, low-pass FIR and baseline
  /// high-pass each run as one flat pass over the chunk. Appends one
  /// `cum` entry per input sample: the absolute size of `out` after that
  /// sample's outputs. ICG = -dZ/dt with the batch derivative() stencil:
  /// the aligned central difference needs one sample of lookahead, the
  /// first sample uses the forward difference.
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& out,
                     std::vector<std::uint32_t>& cum) {
    d_arena_.clear();
    d_cum_.clear();
    for (const sample_t v : x) {
      const std::size_t j = z_count_++;
      if (j == 1)
        d_arena_.push_back(B::rescale(B::neg(B::sub(v, prev_[1])), fs_, gain_log2_));
      else if (j >= 2)
        d_arena_.push_back(
            B::half(B::rescale(B::neg(B::sub(v, prev_[0])), fs_, gain_log2_)));
      prev_[0] = prev_[1];
      prev_[1] = v;
      d_cum_.push_back(static_cast<std::uint32_t>(d_arena_.size()));
    }
    lp_arena_.clear();
    lp_cum_.clear();
    lp_.process_chunk(d_arena_, lp_arena_, lp_cum_);
    const auto base = static_cast<std::uint32_t>(out.size());
    high_pass(out);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint32_t nd = d_cum_[i];
      const std::uint32_t nlp = nd > 0 ? lp_cum_[nd - 1] : 0;
      cum.push_back(nlp > 0 ? hp_cum_[nlp - 1] : base);
    }
  }

  void finish(std::vector<sample_t>& out) {
    // Trailing derivative sample, fed as a one-sample chunk: batch edge
    // form -(x[n-1] - x[n-2]) * fs.
    d_arena_.clear();
    if (z_count_ >= 2)
      d_arena_.push_back(B::rescale(B::neg(B::sub(prev_[1], prev_[0])), fs_, gain_log2_));
    else if (z_count_ == 1)
      d_arena_.push_back(sample_t{});
    lp_arena_.clear();
    lp_cum_.clear();
    lp_.process_chunk(d_arena_, lp_arena_, lp_cum_);
    lp_.finish(lp_arena_);
    high_pass(out);
    if (hp_.has_value()) hp_->finish(out);
  }

  void reset() {
    lp_.reset();
    if (hp_.has_value()) hp_->reset();
    prev_[0] = prev_[1] = sample_t{};
    z_count_ = 0;
  }

  /// Most samples one process_chunk() of `n` inputs, or finish(), appends
  /// to `out`. The high-pass emits in bursts of up to 1.5 decimation
  /// blocks; finish() flushes the whole latency.
  [[nodiscard]] std::size_t max_outputs(std::size_t n) const {
    const std::size_t burst = hp_.has_value() ? 2 * hp_->decimation() : 0;
    return std::max(n + burst, latency() + 1);
  }

  /// Pre-sizes the internal arenas so that neither process_chunk() of up
  /// to `max_chunk` samples nor finish() allocates.
  void reserve(std::size_t max_chunk) {
    const std::size_t lp_out = std::max(max_chunk, lp_.delay() + 1);
    lp_.reserve();
    if (hp_.has_value()) hp_->reserve();
    d_arena_.reserve(max_chunk);
    d_cum_.reserve(max_chunk);
    lp_arena_.reserve(lp_out);
    lp_cum_.reserve(max_chunk);
    hp_cum_.reserve(lp_out);
  }

  /// Serializes the low-pass/high-pass kernels and the derivative
  /// stencil's two-sample history for core::Checkpoint round trips.
  template <typename W>
  void save_state(W& w) const {
    lp_.save_state(w);
    w.boolean(hp_.has_value());
    if (hp_.has_value()) hp_->save_state(w);
    w.value(prev_[0]);
    w.value(prev_[1]);
    w.u64(z_count_);
  }

  template <typename R>
  void load_state(R& r) {
    lp_.load_state(r);
    if (r.boolean() != hp_.has_value())
      r.fail("IcgConditionerStage: stage layout mismatch");
    if (hp_.has_value()) hp_->load_state(r);
    prev_[0] = r.template value<sample_t>();
    prev_[1] = r.template value<sample_t>();
    z_count_ = r.u64();
  }

  [[nodiscard]] std::size_t latency() const {
    return 1 + lp_.delay() + (hp_.has_value() ? hp_->delay() : 0);
  }

 private:
  /// lp_arena_ through the optional baseline high-pass into `out`,
  /// one hp_cum_ entry per low-passed sample.
  void high_pass(std::vector<sample_t>& out) {
    hp_cum_.clear();
    if (hp_.has_value()) {
      hp_->process_chunk(lp_arena_, out, hp_cum_);
      return;
    }
    for (const sample_t v : lp_arena_) {
      out.push_back(v);
      hp_cum_.push_back(static_cast<std::uint32_t>(out.size()));
    }
  }

  dsp::SampleRate fs_;
  int gain_log2_;
  dsp::BasicStreamingZeroPhaseFir<B> lp_;
  std::optional<dsp::BasicStreamingZeroPhaseHighpass<B>> hp_;
  sample_t prev_[2] = {};        ///< last two impedance samples
  std::size_t z_count_ = 0;
  // Arenas: derivative and low-pass intermediates plus the per-stage
  // cumulative-output snapshots, reused across chunks.
  std::vector<sample_t> d_arena_;
  std::vector<sample_t> lp_arena_;
  std::vector<std::uint32_t> d_cum_;
  std::vector<std::uint32_t> lp_cum_;
  std::vector<std::uint32_t> hp_cum_;
};

using IcgConditionerStage = BasicIcgConditionerStage<dsp::DoubleBackend>;

} // namespace icgkit::core
