// Second-order IIR sections (biquads) and cascades of them.
//
// All IIR filters in the toolkit are stored as cascaded biquads (SOS form)
// rather than expanded polynomials: direct high-order polynomials are
// numerically fragile at the low normalized cut-offs this application uses
// (e.g. 0.05 Hz at fs = 250 Hz).
#pragma once

#include "dsp/backend.h"
#include "dsp/types.h"

#include <stdexcept>
#include <vector>

#include "support/contract.h"

namespace icgkit::dsp {

/// One second-order section, transfer function
///   H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)
/// with the a0 = 1 normalization folded in.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// A cascade of biquads plus an overall gain.
struct SosFilter {
  std::vector<Biquad> sections;
  double gain = 1.0;

  [[nodiscard]] std::size_t order() const { return sections.size() * 2; }
};

/// Applies the cascade causally over `x` (zero initial state, transposed
/// direct form II per section).
Signal sos_apply(const SosFilter& filter, SignalView x);

/// Applies the cascade causally with each section's internal state
/// initialized to its steady-state response to a constant input equal to
/// x[0]. This removes the start-up transient for signals that begin at a
/// non-zero level; filtfilt relies on it for clean edges.
Signal sos_apply_steady(const SosFilter& filter, SignalView x);

/// Magnitude response |H(f)| of the cascade at a single frequency.
double sos_magnitude_at(const SosFilter& filter, double freq_hz, SampleRate fs);

/// Streaming stateful cascade for sample-by-sample processing, generic
/// over the numeric backend (see dsp/backend.h). The Direct Form II
/// transposed state (s1, s2 per section) persists across calls, so a
/// signal fed in chunks of any size produces bit-identical output to a
/// single-shot application.
///
/// With DoubleBackend this is the reference double implementation; with
/// Q31Backend the coefficients are quantized to Q2.30 at construction
/// (the overall gain folded into the first section's numerator, throwing
/// if any coefficient leaves [-2, 2)) and ticks run the firmware's
/// integer MAC chain with 64-bit state.
template <typename B>
class BasicStreamingSos {
 public:
  using sample_t = typename B::sample_t;

  explicit BasicStreamingSos(SosFilter filter)
      : filter_(std::move(filter)), states_(filter_.sections.size()) {
    if (filter_.sections.empty())
      ICGKIT_THROW(std::invalid_argument("StreamingSos: empty cascade"));
    if constexpr (B::kFixed) {
      sections_.reserve(filter_.sections.size());
      for (std::size_t i = 0; i < filter_.sections.size(); ++i) {
        Biquad s = filter_.sections[i];
        if (i == 0) {
          // No per-sample gain multiply on the fixed path: fold it into
          // the first section's numerator before quantizing.
          s.b0 *= filter_.gain;
          s.b1 *= filter_.gain;
          s.b2 *= filter_.gain;
        }
        sections_.push_back(Section{B::coeff(s.b0), B::coeff(s.b1), B::coeff(s.b2),
                                    B::coeff(s.a1), B::coeff(s.a2)});
      }
    }
  }

  /// One sample in, one sample out, state carried across calls.
  sample_t tick(sample_t x) {
    typename B::acc_t v = B::widen(x);
    const auto& secs = sections();
    for (std::size_t i = 0; i < secs.size(); ++i) {
      const auto& s = secs[i];
      v = B::biquad_tick(s.b0, s.b1, s.b2, s.a1, s.a2, states_[i], v);
    }
    return B::apply_gain(B::narrow(v), filter_.gain);
  }

  void reset() {
    for (auto& st : states_) st = typename B::SosState{};
  }

  /// Serializes the cascade's carried state (per-section s1/s2) for
  /// core::Checkpoint round trips. Coefficients are construction state
  /// and are not written; the section count is, and load_state()
  /// rejects a blob whose cascade shape differs from this instance's.
  template <typename W>
  void save_state(W& w) const {
    w.u64(states_.size());
    for (const auto& st : states_) {
      w.value(st.s1);
      w.value(st.s2);
    }
  }

  template <typename R>
  void load_state(R& r) {
    if (r.u64() != states_.size()) r.fail("StreamingSos: section count mismatch");
    for (auto& st : states_) {
      st.s1 = r.template value<typename B::acc_t>();
      st.s2 = r.template value<typename B::acc_t>();
    }
  }

  [[nodiscard]] const SosFilter& filter() const { return filter_; }
  [[nodiscard]] std::size_t section_count() const { return states_.size(); }

 private:
  struct Section {
    typename B::coeff_t b0, b1, b2, a1, a2;
  };
  /// The double backend runs on the design sections directly (gain
  /// applied at the cascade output, as always); only the fixed backend
  /// materializes a quantized, gain-folded copy. Both element types
  /// expose the same b0..a2 members, so tick() is backend-agnostic.
  [[nodiscard]] const auto& sections() const {
    if constexpr (B::kFixed) return sections_;
    else return filter_.sections;
  }

  SosFilter filter_;               ///< the double-precision design
  std::vector<Section> sections_;  ///< Q2.30 gain-folded copy (fixed only)
  std::vector<typename B::SosState> states_;
};

using StreamingSos = BasicStreamingSos<DoubleBackend>;

} // namespace icgkit::dsp
