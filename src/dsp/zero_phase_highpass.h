// Streaming zero-phase high-pass for baseline suppression.
//
// The batch chains remove sub-hertz baseline with a zero-phase (filtfilt)
// Butterworth high-pass. A streaming engine cannot run filtfilt, and a
// full-rate symmetric-kernel equivalent of a 0.8 Hz high-pass needs a
// kernel spanning seconds (thousands of MACs per sample). This stage uses
// the structure high-pass = delayed identity - zero-phase low-pass, and
// computes the low-pass (the baseline estimate) at a decimated rate:
//
//   x -> block means (M samples, anti-alias by the block-mean sinc nulls)
//     -> symmetric zero-phase kernel of the Butterworth low-pass at fs/M
//     -> linear interpolation back to full rate
//   y[i] = x[i] - baseline[i]
//
// Every step is linear-phase, so the stage is zero-phase end to end with
// a fixed integer group delay (delay()) that the caller absorbs exactly
// like StreamingZeroPhaseFir: out[i] is aligned with input x[i], emitted
// once the baseline estimate covering i is available. Amortized cost is
// O(1) per sample (one add for the block mean plus kernel_len/M MACs).
//
// The baseline is band-limited far below fs/(2M), so block-mean
// decimation and linear interpolation contribute percent-level error at
// the folding frequencies only -- negligible against the suppression this
// stage exists to provide.
//
// Generic over the numeric backend (dsp/backend.h): under Q31Backend the
// block mean is a 64-bit sum with an integer division, the baseline
// kernel runs the quantized MAC loop, and the interpolation is the
// integer lerp -- the arithmetic an FPU-less firmware would use.
#pragma once

#include "dsp/backend.h"
#include "dsp/filtfilt.h"
#include "dsp/ring_buffer.h"
#include "dsp/types.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::dsp {

struct ZeroPhaseHighpassConfig {
  double cutoff_hz = 0.8;
  std::size_t order = 2;      ///< Butterworth order of the baseline low-pass
  /// Decimation factor; 0 = auto (keeps the decimated rate ~16x cutoff).
  std::size_t decimation = 0;
  double kernel_tol = 1e-4;   ///< truncation tolerance of the baseline kernel
};

/// Decimation factor the stage will use (validates fs/cutoff).
std::size_t zero_phase_highpass_decimation(SampleRate fs,
                                           const ZeroPhaseHighpassConfig& cfg);
/// The baseline low-pass kernel at the decimated rate fs/m.
FirCoefficients zero_phase_highpass_kernel(SampleRate fs, std::size_t m,
                                           const ZeroPhaseHighpassConfig& cfg);

template <typename B>
class BasicStreamingZeroPhaseHighpass {
 public:
  using sample_t = typename B::sample_t;

  BasicStreamingZeroPhaseHighpass(SampleRate fs, const ZeroPhaseHighpassConfig& cfg = {})
      : m_(zero_phase_highpass_decimation(fs, cfg)),
        base_(zero_phase_highpass_kernel(fs, m_, cfg)),
        raw_((base_.delay() + 4) * m_ + m_ + 2) {}

  /// Pre-sizes the internal buffers so that neither process_chunk() nor
  /// finish() allocates: one baseline sample per block while streaming,
  /// the kernel's whole delay at finish().
  void reserve() {
    base_.reserve();
    u_scratch_.reserve(base_.delay() + 1);
    u_cum_.reserve(1);
  }

  /// Feeds a chunk; appends newly aligned high-passed outputs to `out`
  /// and one entry per input sample to `cum`: the absolute size of `out`
  /// once that sample has been consumed. Typed span: cross-backend
  /// container mixups fail to compile.
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& out,
                     std::vector<std::uint32_t>& cum) {
    for (const sample_t v : x) {
      raw_.push(v);
      ++in_count_;
      block_acc_ = B::acc_add(block_acc_, v);
      if (++block_fill_ == m_) {
        feed_block(B::mean(block_acc_, m_), out);
        block_acc_ = B::acc_zero();
        block_fill_ = 0;
      }
      cum.push_back(static_cast<std::uint32_t>(out.size()));
    }
  }

  /// End of stream: flushes the remaining delayed outputs (flat baseline
  /// extrapolation over the last partial block).
  void finish(std::vector<sample_t>& out) {
    if (block_fill_ > 0) {
      feed_block(B::mean(block_acc_, block_fill_), out);
      block_acc_ = B::acc_zero();
      block_fill_ = 0;
    }
    u_scratch_.clear();
    base_.finish(u_scratch_);
    for (const sample_t u : u_scratch_) on_baseline(u, out);
    // Flat extrapolation of the last baseline over the trailing half block.
    while (next_out_ < in_count_) emit(prev_u_, out);
  }

  void reset() {
    base_.reset();
    raw_.clear();
    u_scratch_.clear();
    block_acc_ = B::acc_zero();
    block_fill_ = 0;
    in_count_ = 0;
    next_out_ = 0;
    u_count_ = 0;
    prev_u_ = sample_t{};
  }

  /// Serializes the baseline kernel, the pending-input ring, the partial
  /// block accumulator and the interpolation cursors for core::Checkpoint
  /// round trips; load_state() rejects blobs with a different decimation.
  template <typename W>
  void save_state(W& w) const {
    w.u64(m_);
    base_.save_state(w);
    raw_.save_state(w);
    w.value(block_acc_);
    w.u64(block_fill_);
    w.u64(in_count_);
    w.u64(next_out_);
    w.u64(u_count_);
    w.value(prev_u_);
  }

  template <typename R>
  void load_state(R& r) {
    if (r.u64() != m_) r.fail("StreamingZeroPhaseHighpass: decimation mismatch");
    base_.load_state(r);
    raw_.load_state(r, "StreamingZeroPhaseHighpass");
    block_acc_ = r.template value<typename B::acc_t>();
    block_fill_ = r.u64();
    in_count_ = r.u64();
    next_out_ = r.u64();
    u_count_ = r.u64();
    prev_u_ = r.template value<sample_t>();
  }

  /// Worst-case group delay in input samples.
  [[nodiscard]] std::size_t delay() const { return (base_.delay() + 2) * m_ + m_ / 2; }
  [[nodiscard]] std::size_t decimation() const { return m_; }

 private:
  /// One block mean through the decimated baseline kernel, as a
  /// one-sample chunk.
  void feed_block(sample_t mean, std::vector<sample_t>& out) {
    u_scratch_.clear();
    u_cum_.clear();
    base_.process_chunk(std::span<const sample_t>(&mean, 1), u_scratch_, u_cum_);
    for (const sample_t u : u_scratch_) on_baseline(u, out);
  }

  void on_baseline(sample_t u, std::vector<sample_t>& out) {
    const std::size_t k = u_count_++;
    if (k == 0) {
      prev_u_ = u;
      return;
    }
    // Baseline sample k sits at input position c_k = k*m + m/2; interpolate
    // linearly across [c_{k-1}, c_k) (flat before c_0 at the very start).
    const std::size_t c_prev = (k - 1) * m_ + m_ / 2;
    const std::size_t c_cur = k * m_ + m_ / 2;
    // The final (partial-block) baseline can claim a center past the end of
    // the input; never emit more outputs than samples consumed.
    while (next_out_ < c_cur && next_out_ < in_count_) {
      sample_t baseline;
      if (next_out_ < c_prev) {
        baseline = prev_u_; // only before c_0: flat extrapolation
      } else {
        baseline = B::lerp(prev_u_, u, next_out_ - c_prev, m_);
      }
      emit(baseline, out);
    }
    prev_u_ = u;
  }

  void emit(sample_t baseline, std::vector<sample_t>& out) {
    out.push_back(B::sub(raw_.pop(), baseline));
    ++next_out_;
  }

  std::size_t m_;                          ///< decimation factor
  BasicStreamingZeroPhaseFir<B> base_;     ///< baseline kernel, decimated rate
  RingBuffer<sample_t> raw_;               ///< inputs awaiting their baseline
  std::vector<sample_t> u_scratch_;
  std::vector<std::uint32_t> u_cum_;

  typename B::acc_t block_acc_ = B::acc_zero();
  std::size_t block_fill_ = 0;
  std::size_t in_count_ = 0;
  std::size_t next_out_ = 0;
  std::size_t u_count_ = 0;
  sample_t prev_u_ = sample_t{};
};

using StreamingZeroPhaseHighpass = BasicStreamingZeroPhaseHighpass<DoubleBackend>;

} // namespace icgkit::dsp
