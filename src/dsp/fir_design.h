// Windowed-sinc FIR filter design and streaming FIR application.
//
// The paper's ECG chain uses a zero-phase 32nd-order FIR band-pass with
// cut-offs 0.05 Hz and 40 Hz (Section IV-A). `design_bandpass` with
// order = 32 reproduces that filter; `filtfilt_fir` (see filtfilt.h)
// provides the zero-phase application.
#pragma once

#include "dsp/backend.h"
#include "dsp/types.h"
#include "dsp/window.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "support/contract.h"

namespace icgkit::dsp {

/// Coefficients of a linear-phase FIR filter, h[0..order] (order+1 taps).
struct FirCoefficients {
  Signal taps;

  [[nodiscard]] std::size_t order() const { return taps.empty() ? 0 : taps.size() - 1; }
  /// Group delay in samples (exact for the symmetric designs produced here).
  [[nodiscard]] double group_delay() const { return static_cast<double>(order()) / 2.0; }
};

/// Low-pass windowed-sinc design. `cutoff_hz` in (0, fs/2). Even or odd
/// order accepted; taps = order + 1. DC gain normalized to exactly 1.
FirCoefficients design_lowpass(std::size_t order, double cutoff_hz, SampleRate fs,
                               WindowKind window = WindowKind::Hamming);

/// High-pass by spectral inversion of the complementary low-pass.
/// Requires even order so the Nyquist-region response is well defined.
FirCoefficients design_highpass(std::size_t order, double cutoff_hz, SampleRate fs,
                                WindowKind window = WindowKind::Hamming);

/// Band-pass windowed-sinc design (difference of two unity-DC low-pass
/// sincs; DC gain is exactly 0). Requires even order. Passband gain
/// normalized to 1 at the arithmetic center (f1+f2)/2, following the
/// MATLAB fir1 'scale' convention.
FirCoefficients design_bandpass(std::size_t order, double f1_hz, double f2_hz, SampleRate fs,
                                WindowKind window = WindowKind::Hamming);

/// Convolves `x` with the filter and returns a signal of the same length
/// (zero initial state, i.e. the filter's transient is included at the
/// start and the tail is truncated). This is the causal, streaming-
/// equivalent application.
Signal fir_apply(const FirCoefficients& fir, SignalView x);

/// Frequency response magnitude |H(f)| at a single frequency (for tests
/// and design verification).
double fir_magnitude_at(const FirCoefficients& fir, double freq_hz, SampleRate fs);

/// Streaming FIR filter holding its own delay line, generic over the
/// numeric backend (dsp/backend.h); suitable for sample-by-sample
/// embedded-style processing. The circular delay line persists across
/// calls, so chunked feeding is bit-identical to single-shot
/// application. Under Q31Backend the taps are quantized to Q2.30 at
/// construction and each tick is the firmware's 64-bit MAC loop.
template <typename B>
class BasicStreamingFir {
 public:
  using sample_t = typename B::sample_t;

  explicit BasicStreamingFir(FirCoefficients coeffs)
      : coeffs_(std::move(coeffs)), delay_(coeffs_.taps.size(), sample_t{}) {
    if (coeffs_.taps.empty()) ICGKIT_THROW(std::invalid_argument("StreamingFir: empty taps"));
    if constexpr (B::kFixed) {
      taps_.reserve(coeffs_.taps.size());
      for (const double c : coeffs_.taps) taps_.push_back(B::coeff(c));
    }
  }

  /// One sample in, one sample out, delay line carried across calls.
  sample_t tick(sample_t x) {
    delay_[head_] = x;
    typename B::acc_t acc = B::acc_zero();
    std::size_t idx = head_;
    for (const auto tap : taps()) {
      acc = B::mac(acc, tap, delay_[idx]);
      idx = (idx == 0) ? delay_.size() - 1 : idx - 1;
    }
    head_ = (head_ + 1) % delay_.size();
    return B::narrow(acc);
  }

  /// Resets the delay line to zero.
  void reset() {
    std::fill(delay_.begin(), delay_.end(), sample_t{});
    head_ = 0;
  }

  /// Serializes the delay line for core::Checkpoint round trips (the
  /// taps are construction state). load_state() rejects blobs whose
  /// delay-line length differs from this instance's.
  template <typename W>
  void save_state(W& w) const {
    w.u64(delay_.size());
    for (const sample_t v : delay_) w.value(v);
    w.u64(head_);
  }

  template <typename R>
  void load_state(R& r) {
    if (r.u64() != delay_.size()) r.fail("StreamingFir: delay-line length mismatch");
    for (sample_t& v : delay_) v = r.template value<sample_t>();
    head_ = r.u64();
    if (head_ >= delay_.size()) r.fail("StreamingFir: head index out of range");
  }

  [[nodiscard]] const FirCoefficients& coefficients() const { return coeffs_; }

 private:
  /// The double backend filters with the design taps directly; only the
  /// fixed backend materializes a quantized copy (kernels can run to
  /// thousands of taps, and fleet sessions each own several).
  [[nodiscard]] const std::vector<typename B::coeff_t>& taps() const {
    if constexpr (B::kFixed) return taps_;
    else return coeffs_.taps;
  }

  FirCoefficients coeffs_;                   ///< the double-precision design
  std::vector<typename B::coeff_t> taps_;    ///< Q2.30 taps (fixed backend only)
  std::vector<sample_t> delay_;              ///< circular delay line, size == taps
  std::size_t head_ = 0;
};

using StreamingFir = BasicStreamingFir<DoubleBackend>;

} // namespace icgkit::dsp
