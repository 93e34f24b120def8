// Real-time QRS detection after Pan & Tompkins (IEEE TBME 1985), the
// R-peak detector the paper uses to segment ICG beats (Section IV-C).
//
// Stage chain: band-pass (5-15 Hz, isolating QRS energy) -> 5-point
// derivative -> squaring -> moving-window integration (150 ms) -> dual
// adaptive thresholds with a 200 ms refractory period, T-wave slope
// discrimination in the 200-360 ms window, and RR-based search-back for
// missed beats. Detected peaks are finally refined to the local maximum
// of the *input* signal so the reported indices are true R sample
// positions.
//
// The detector is split along its data-parallelism boundary:
//
//   feature front   QrsFeatureFront: band-pass, 5-point derivative,
//                   squaring, MWI -- counter-driven control flow,
//                   identical across sessions, so the one implementation
//                   runs scalar or ticks W sessions in lockstep on the
//                   SIMD batch backend.
//   decision tail   QrsDecisionTail: thresholds, candidate merging,
//                   T-wave discrimination, search-back, refinement --
//                   data-dependent branching that diverges per session,
//                   so the batch detector fans out into W scalar tails.
//
// BasicOnlinePanTompkins is one front plus one tail;
// BatchOnlinePanTompkins is the front over BatchBackend<W> plus W tails.
// Both are fed the same way: front_chunk() over a chunk, then
// replay_decision_tail() per tail, then finish() at end of stream.
#pragma once

#include "dsp/backend.h"
#include "dsp/filtfilt.h"
#include "dsp/moving.h"
#include "dsp/ring_buffer.h"
#include "dsp/types.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace icgkit::ecg {

struct PanTompkinsConfig {
  double bandpass_low_hz = 5.0;
  double bandpass_high_hz = 15.0;
  double integration_window_s = 0.150;
  double refractory_s = 0.200;
  double t_wave_window_s = 0.360;
  /// Search-back triggers when no peak was found for this multiple of the
  /// running RR average.
  double searchback_rr_factor = 1.66;
  /// Half-width of the window used to refine detections onto the raw ECG.
  double refine_window_s = 0.050;
};

struct QrsDetection {
  std::vector<std::size_t> r_samples;  ///< R-peak sample indices
  std::vector<double> rr_intervals_s;  ///< successive differences
};

/// The symmetric zero-phase kernel of the 5-15 Hz feature band-pass
/// (validates fs and the band edges; shared by every backend
/// instantiation of the online detector).
dsp::FirCoefficients pan_tompkins_bandpass_kernel(dsp::SampleRate fs,
                                                  const PanTompkinsConfig& cfg);

/// The decision half of the online detector: everything downstream of
/// the integrated (MWI) feature stream, plus the raw-input history used
/// for refinement. One instance per session; the batch detector owns W
/// of these and feeds lane i's feature samples into tail i.
///
/// All adaptive state -- signal/noise thresholds (SPKI/NPKI), the RR
/// history driving search-back, the pending MWI candidate, and the
/// refinement look-back buffers -- is carried across calls, so the tail
/// does O(1) amortized work per feature sample and its output is
/// invariant to how the input is chunked.
template <typename B>
class QrsDecisionTail {
 public:
  using sample_t = typename B::sample_t;

  QrsDecisionTail(dsp::SampleRate fs, const PanTompkinsConfig& cfg)
      : fs_(fs), searchback_rr_factor_(cfg.searchback_rr_factor),
        refractory_(static_cast<std::size_t>(cfg.refractory_s * fs)),
        min_sep_(std::max<std::size_t>(1, refractory_ / 2)),
        t_wave_win_(static_cast<std::size_t>(cfg.t_wave_window_s * fs)),
        mwi_win_(std::max<std::size_t>(
            1, static_cast<std::size_t>(cfg.integration_window_s * fs))),
        refine_(static_cast<std::size_t>(cfg.refine_window_s * fs)),
        learn_end_(static_cast<std::size_t>(2.0 * fs)),
        mwi_ring_(history_capacity(fs, learn_end_, mwi_win_)),
        in_ring_(history_capacity(fs, learn_end_, mwi_win_)) {}

  /// Pre-sizes the candidate lists. Candidates are at least min_sep_
  /// apart, so a learning window's worth bounds prelearn_ and, in
  /// practice, the rejections between two beats.
  void reserve() {
    prelearn_.reserve(learn_end_ / min_sep_ + 1);
    rejected_since_.reserve(learn_end_ / min_sep_ + 1);
    rr_history_.reserve(9);
  }

  /// Records one raw input sample (the refinement look-back timeline).
  /// Called once per detector input, before the feature chain runs.
  void note_input(sample_t x) {
    in_ring_.push(x);
    ++in_count_;
  }

  /// Feeds one integrated feature sample; appends the indices of any R
  /// peaks it confirms to `out`.
  void on_feature_sample(sample_t v, std::vector<std::size_t>& out) {
    mwi_ring_.push(v);
    const std::size_t i = mwi_produced_++;
    // A sample is a candidate once its right neighbour arrives: strictly
    // above the left neighbour, at least the right one (plateaus keep the
    // first sample), matching the batch local_maxima().
    if (i >= 2 && mwi_at(i - 1) > mwi_at(i - 2) && mwi_at(i - 1) >= v)
      on_local_max(i - 1, out);
    if (!learned_ && mwi_produced_ >= learn_end_) {
      learn_thresholds();
      for (const std::size_t idx : prelearn_) process_candidate(idx, out);
      prelearn_.clear();
    }
  }

  /// End of stream (after the feature front has flushed): settles
  /// learning and the pending candidate.
  void settle(std::vector<std::size_t>& out) {
    if (!learned_) learn_thresholds();
    for (const std::size_t idx : prelearn_) process_candidate(idx, out);
    prelearn_.clear();
    if (pending_.has_value()) {
      process_candidate(*pending_, out);
      pending_.reset();
    }
  }

  /// Quality-adaptive recovery hook (contact-gap resets): discards every
  /// *adaptive* decision state — SPKI/NPKI thresholds, RR history,
  /// search-back bookkeeping, pending/unlearned candidates — and
  /// schedules a fresh 2 s threshold-learning window starting at the
  /// current stream position, while keeping the history rings and sample
  /// counters intact. Detection therefore resumes on a clean slate after
  /// an electrode dropout without disturbing the input/feature timeline
  /// alignment (indices keep counting; no output samples are lost), so
  /// the pipeline's chunk-size invariance is preserved. Allocation-free.
  void soft_reset() {
    pending_.reset();
    prelearn_.clear();
    learned_ = false;
    learn_start_ = mwi_produced_;
    learn_end_ = mwi_produced_ + learn_window_;
    spki_ = npki_ = sample_t{};
    last_accepted_.reset();
    last_accepted_slope_ = sample_t{};
    rr_history_.clear();
    rejected_since_.clear();
    // last_r_ is kept: the refractory guard against already-emitted peaks
    // must keep holding across the reset.
  }

  void reset() {
    mwi_ring_.clear();
    mwi_produced_ = 0;
    in_ring_.clear();
    in_count_ = 0;
    pending_.reset();
    learned_ = false;
    learn_start_ = 0;
    learn_end_ = learn_window_;
    prelearn_.clear();
    spki_ = npki_ = sample_t{};
    last_accepted_.reset();
    last_accepted_slope_ = sample_t{};
    rr_history_.clear();
    rejected_since_.clear();
    last_r_.reset();
    peaks_emitted_ = 0;
  }

  [[nodiscard]] std::size_t samples_consumed() const { return in_count_; }
  [[nodiscard]] std::size_t peaks_emitted() const { return peaks_emitted_; }

  /// Serializes the carried decision state. The byte sequence is exactly
  /// the tail segment of the pre-split BasicOnlinePanTompkins layout, so
  /// checkpoints remain wire-compatible.
  template <typename W>
  void save_state(W& w) const {
    mwi_ring_.save_state(w);
    w.u64(mwi_produced_);
    in_ring_.save_state(w);
    w.u64(in_count_);
    save_optional(w, pending_);
    w.boolean(learned_);
    w.u64(learn_start_);
    w.u64(learn_end_);
    w.u64(learn_window_);
    w.u64(prelearn_.size());
    for (const std::size_t idx : prelearn_) w.u64(idx);
    w.value(spki_);
    w.value(npki_);
    save_optional(w, last_accepted_);
    w.value(last_accepted_slope_);
    w.u64(rr_history_.size());
    for (const double rr : rr_history_) w.f64(rr);
    w.u64(rejected_since_.size());
    for (const std::size_t idx : rejected_since_) w.u64(idx);
    save_optional(w, last_r_);
    w.u64(peaks_emitted_);
  }

  template <typename R>
  void load_state(R& r) {
    mwi_ring_.load_state(r, "OnlinePanTompkins");
    mwi_produced_ = r.u64();
    in_ring_.load_state(r, "OnlinePanTompkins");
    in_count_ = r.u64();
    load_optional(r, pending_);
    learned_ = r.boolean();
    learn_start_ = r.u64();
    learn_end_ = r.u64();
    learn_window_ = r.u64();
    load_index_vec(r, prelearn_);
    spki_ = r.template value<sample_t>();
    npki_ = r.template value<sample_t>();
    load_optional(r, last_accepted_);
    last_accepted_slope_ = r.template value<sample_t>();
    const std::size_t rr_n = r.u64();
    if (rr_n > 8) r.fail("OnlinePanTompkins: RR history overflow");
    rr_history_.clear();
    for (std::size_t i = 0; i < rr_n; ++i) rr_history_.push_back(r.f64());
    load_index_vec(r, rejected_since_);
    load_optional(r, last_r_);
    peaks_emitted_ = r.u64();
  }

 private:
  static std::size_t history_capacity(dsp::SampleRate fs, std::size_t learn_end,
                                      std::size_t mwi_win) {
    return std::max<std::size_t>(learn_end + 2,
                                 static_cast<std::size_t>(8.0 * fs)) +
           mwi_win + 2;
  }

  // -- checkpoint helpers ---------------------------------------------
  template <typename W>
  static void save_optional(W& w, const std::optional<std::size_t>& v) {
    w.boolean(v.has_value());
    if (v.has_value()) w.u64(*v);
  }
  template <typename R>
  static void load_optional(R& r, std::optional<std::size_t>& v) {
    if (r.boolean()) v = r.u64();
    else v.reset();
  }
  template <typename R>
  static void load_index_vec(R& r, std::vector<std::size_t>& v) {
    const std::size_t n = r.u64();
    if (n > r.section_remaining() / 8)
      r.fail("OnlinePanTompkins: candidate list longer than its section");
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(r.u64());
  }

  void on_local_max(std::size_t idx, std::vector<std::size_t>& out) {
    if (pending_.has_value() && idx - *pending_ < min_sep_) {
      // Same merge rule as the batch candidate pass: within half a
      // refractory of the previous candidate, the larger one wins.
      if (mwi_available(*pending_) && mwi_at(idx) > mwi_at(*pending_)) pending_ = idx;
      return;
    }
    if (pending_.has_value()) finalize_candidate(*pending_, out);
    pending_ = idx;
  }

  void finalize_candidate(std::size_t idx, std::vector<std::size_t>& out) {
    if (!learned_) {
      prelearn_.push_back(idx);
      return;
    }
    process_candidate(idx, out);
  }

  void learn_thresholds() {
    const std::size_t learn = std::min(mwi_produced_, learn_end_);
    learned_ = true;
    if (learn == 0) return;
    const std::size_t oldest = mwi_produced_ - mwi_ring_.size();
    // After a soft_reset the learning window starts at the reset point
    // (learn_start_), not the stream start: only post-gap feature samples
    // may seed the new thresholds.
    sample_t peak{};
    typename B::acc_t acc = B::acc_zero();
    std::size_t count = 0;
    for (std::size_t i = std::max(oldest, learn_start_); i < learn; ++i) {
      const sample_t v = mwi_ring_.at(i - oldest);
      peak = std::max(peak, v);
      acc = B::acc_add(acc, v);
      ++count;
    }
    spki_ = count > 0 ? B::quarter(peak) : sample_t{};
    npki_ = count > 0 ? B::halved_mean(acc, count) : sample_t{};
  }

  void process_candidate(std::size_t idx, std::vector<std::size_t>& out) {
    if (!mwi_available(idx)) return; // fell out of the bounded history
    const sample_t threshold1 = B::add(npki_, B::quarter(B::sub(spki_, npki_)));
    const bool after_refractory =
        !last_accepted_.has_value() || idx - *last_accepted_ >= refractory_;

    bool is_qrs = after_refractory && mwi_at(idx) > threshold1;

    // T-wave discrimination: a candidate 200-360 ms after the previous QRS
    // whose slope is less than half of that QRS's slope is a T wave.
    if (is_qrs && last_accepted_.has_value()) {
      const std::size_t since = idx - *last_accepted_;
      if (since < t_wave_win_ && peak_slope(idx) < B::half(last_accepted_slope_))
        is_qrs = false;
    }

    if (is_qrs) {
      accept(idx, /*searchback=*/false, out);
    } else {
      npki_ = B::ewma_shift(npki_, mwi_at(idx), 3);
      rejected_since_.push_back(idx);
    }

    // Search-back: if the gap since the last QRS exceeds the factor times
    // the running RR average, re-examine rejected candidates against the
    // lower threshold.
    if (last_accepted_.has_value() && !rejected_since_.empty()) {
      const double gap = static_cast<double>(idx - *last_accepted_);
      if (gap > searchback_rr_factor_ * rr_average_samples()) {
        const sample_t threshold2 =
            B::half(B::add(npki_, B::quarter(B::sub(spki_, npki_))));
        std::size_t best = 0;
        sample_t best_val = threshold2;
        for (const std::size_t cand : rejected_since_) {
          if (cand <= *last_accepted_ + refractory_) continue;
          if (!mwi_available(cand)) continue;
          if (mwi_at(cand) > best_val) {
            best_val = mwi_at(cand);
            best = cand;
          }
        }
        if (best != 0) accept(best, /*searchback=*/true, out);
      }
    }
  }

  void accept(std::size_t idx, bool searchback, std::vector<std::size_t>& out) {
    if (last_accepted_.has_value()) {
      rr_history_.push_back(static_cast<double>(idx - *last_accepted_));
      if (rr_history_.size() > 8) rr_history_.erase(rr_history_.begin());
    }
    last_accepted_ = idx;
    last_accepted_slope_ = peak_slope(idx);
    // SPKI update weight: 1/4 after a search-back acceptance, 1/8 normally.
    spki_ = B::ewma_shift(spki_, mwi_at(idx), searchback ? 2 : 3);
    rejected_since_.clear();
    refine_and_emit(idx, out);
  }

  void refine_and_emit(std::size_t idx, std::vector<std::size_t>& out) {
    // The zero-phase band-pass introduces no shift, but the causal MWI
    // moves energy right by up to its window, so search left of the MWI
    // peak (batch refinement geometry).
    const std::size_t oldest = in_count_ - in_ring_.size();
    const std::size_t lo_want = idx > mwi_win_ + refine_ ? idx - mwi_win_ - refine_ : 0;
    const std::size_t lo = std::max(lo_want, oldest);
    const std::size_t hi = std::min(in_count_ - 1, idx + refine_);
    if (lo > hi) return;
    std::size_t best = lo;
    for (std::size_t i = lo; i <= hi; ++i)
      if (in_ring_.at(i - oldest) > in_ring_.at(best - oldest)) best = i;
    if (!last_r_.has_value() ||
        (best > *last_r_ && best - *last_r_ >= refractory_)) {
      last_r_ = best;
      ++peaks_emitted_;
      out.push_back(best);
    }
  }

  [[nodiscard]] double rr_average_samples() const {
    if (rr_history_.empty()) return 0.8 * fs_; // prior: 75 bpm, in samples
    double acc = 0.0;
    for (const double rr : rr_history_) acc += rr;
    return acc / static_cast<double>(rr_history_.size());
  }

  [[nodiscard]] bool mwi_available(std::size_t idx) const {
    const std::size_t oldest = mwi_produced_ - mwi_ring_.size();
    return idx >= oldest && idx < mwi_produced_;
  }

  [[nodiscard]] sample_t mwi_at(std::size_t idx) const {
    return mwi_ring_.at(idx - (mwi_produced_ - mwi_ring_.size()));
  }

  [[nodiscard]] sample_t slope_at(std::size_t idx) const {
    // derivative(mwi) with the batch edge forms.
    if (idx == 0)
      return mwi_produced_ > 1 ? B::rescale(B::sub(mwi_at(1), mwi_at(0)), fs_, 0)
                               : sample_t{};
    if (idx + 1 < mwi_produced_)
      return B::half(B::rescale(B::sub(mwi_at(idx + 1), mwi_at(idx - 1)), fs_, 0));
    return B::rescale(B::sub(mwi_at(idx), mwi_at(idx - 1)), fs_, 0);
  }

  [[nodiscard]] sample_t peak_slope(std::size_t idx) const {
    const std::size_t oldest = mwi_produced_ - mwi_ring_.size();
    std::size_t lo = idx > mwi_win_ ? idx - mwi_win_ : 0;
    if (lo < oldest + 1) lo = oldest + 1 > idx ? idx : oldest + 1;
    sample_t best{};
    for (std::size_t i = lo; i <= idx && i < mwi_produced_; ++i)
      best = std::max(best, B::abs(slope_at(i)));
    return best;
  }

  dsp::SampleRate fs_;
  double searchback_rr_factor_;
  std::size_t refractory_, min_sep_, t_wave_win_, mwi_win_, refine_, learn_end_;
  /// Length of one threshold-learning window (2 s of feature samples);
  /// learn_end_ - learn_start_ whenever learning is pending.
  std::size_t learn_window_ = learn_end_;
  /// First feature sample eligible for the current learning window
  /// (0 from construction; the reset point after soft_reset()).
  std::size_t learn_start_ = 0;

  // Feature history for thresholds, slopes and search-back.
  dsp::RingBuffer<sample_t> mwi_ring_;
  std::size_t mwi_produced_ = 0;
  dsp::RingBuffer<sample_t> in_ring_;  ///< raw input for refinement
  std::size_t in_count_ = 0;

  // Candidate finalization (batch local_maxima semantics).
  std::optional<std::size_t> pending_;
  bool learned_ = false;
  std::vector<std::size_t> prelearn_;     ///< candidates before thresholds exist

  // Adaptive detector state (sample-domain values live in the backend's
  // numeric type; RR statistics are index arithmetic and stay double).
  sample_t spki_{}, npki_{};
  std::optional<std::size_t> last_accepted_;
  sample_t last_accepted_slope_{};
  std::vector<double> rr_history_;        ///< trimmed to the last 8
  std::vector<std::size_t> rejected_since_;
  std::optional<std::size_t> last_r_;
  std::size_t peaks_emitted_ = 0;
};

/// The feature half of the online detector: the 5-15 Hz band-pass as a
/// causal symmetric-kernel stage whose output equals the zero-phase
/// filtfilt response (group delay absorbed internally; see
/// StreamingZeroPhaseFir), followed by the aligned 5-point derivative,
/// squaring and the 150 ms moving-window integration. Detection
/// decisions are therefore made on (numerically) the same feature signal
/// the batch detector sees.
///
/// The control flow is counter-driven and identical across sessions, so
/// one implementation serves every backend: DoubleBackend and Q31Backend
/// for one session, BatchBackend<W> for W sessions in lockstep (each
/// band-pass tap and derivative coefficient loaded once for all lanes).
/// Under Q31Backend every value is a Q1.31 integer, and the fs factors of
/// the derivative stencils are absorbed into the (implicit) feature scale
/// instead of multiplied per sample: they cancel out of every decision
/// the tail makes.
template <typename B>
class QrsFeatureFront {
 public:
  using sample_t = typename B::sample_t;

  QrsFeatureFront(dsp::SampleRate fs, const PanTompkinsConfig& cfg)
      : fs_(fs), bp_(pan_tompkins_bandpass_kernel(fs, cfg)),
        mwi_(std::max<std::size_t>(
            1, static_cast<std::size_t>(cfg.integration_window_s * fs))) {}

  /// Feeds a chunk of cleaned ECG: band-pass, derivative, squaring and
  /// MWI run as flat passes, appending the integrated feature samples to
  /// `feat` and one `cum` entry per input sample (the absolute size of
  /// `feat` after that sample).
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& feat,
                     std::vector<std::uint32_t>& cum) {
    bp_arena_.clear();
    bp_cum_.clear();
    bp_.process_chunk(x, bp_arena_, bp_cum_);
    std::size_t j = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      for (; j < bp_cum_[i]; ++j) feature_step(bp_arena_[j], feat);
      cum.push_back(static_cast<std::uint32_t>(feat.size()));
    }
  }

  /// End of stream: flushes the band-pass stage, then the trailing
  /// derivative samples with the batch edge fallbacks, appending the
  /// remaining feature samples to `feat`.
  void finish(std::vector<sample_t>& feat) {
    bp_arena_.clear();
    bp_.finish(bp_arena_);
    for (const sample_t v : bp_arena_) feature_step(v, feat);

    const std::size_t n = bp_count_;
    auto h = [&](std::size_t i) { return bp_hist_[i % 5]; };
    for (std::size_t i = d_emitted_; i < n; ++i) {
      sample_t d{};
      if (n == 1) {
        d = sample_t{};
      } else if (i == 0) {
        d = B::rescale(B::sub(h(1), h(0)), fs_, 0);
      } else if (i + 1 < n) {
        d = B::half(B::rescale(B::sub(h(i + 1), h(i - 1)), fs_, 0));
      } else {
        d = B::rescale(B::sub(h(n - 1), h(n - 2)), fs_, 0);
      }
      feat.push_back(mwi_.tick(B::square(d)));
      ++d_emitted_;
    }
  }

  void reset() {
    bp_.reset();
    mwi_.reset();
    std::fill(std::begin(bp_hist_), std::end(bp_hist_), sample_t{});
    bp_count_ = 0;
    d_emitted_ = 0;
  }

  /// Most feature samples finish() appends: the band-pass delay plus the
  /// two trailing derivative samples. process_chunk() appends at most one
  /// per input.
  [[nodiscard]] std::size_t max_finish_outputs() const { return bp_.delay() + 2; }

  /// Pre-sizes the band-pass arenas so that neither process_chunk() of up
  /// to `max_chunk` samples nor finish() allocates.
  void reserve(std::size_t max_chunk) {
    bp_.reserve();
    bp_arena_.reserve(std::max(max_chunk, bp_.delay()));
    bp_cum_.reserve(max_chunk);
  }

  /// Serializes the band-pass, the derivative history and the MWI — the
  /// front segment of the detector's checkpoint layout.
  template <typename W>
  void save_state(W& w) const {
    bp_.save_state(w);
    for (const sample_t v : bp_hist_) w.value(v);
    w.u64(bp_count_);
    w.u64(d_emitted_);
    mwi_.save_state(w);
  }

  template <typename R>
  void load_state(R& r) {
    bp_.load_state(r);
    for (sample_t& v : bp_hist_) v = r.template value<sample_t>();
    bp_count_ = r.u64();
    d_emitted_ = r.u64();
    mwi_.load_state(r);
  }

 private:
  /// One band-passed sample through the derivative/square/MWI chain,
  /// appending the feature sample it produces, if any. Aligned 5-point
  /// derivative with the batch edge fallbacks (see five_point_derivative):
  /// d[0], d[1] use the one-sided/central forms, d[i] for i >= 2 the
  /// centered 5-point stencil once x[i+2] exists. The trailing d[n-2],
  /// d[n-1] are emitted by finish().
  void feature_step(sample_t v, std::vector<sample_t>& feat) {
    bp_hist_[bp_count_ % 5] = v;
    const std::size_t j = bp_count_++;
    auto h = [&](std::size_t i) { return bp_hist_[i % 5]; };
    sample_t d{};
    if (j == 1) {
      d = B::rescale(B::sub(h(1), h(0)), fs_, 0);
    } else if (j == 2) {
      d = B::half(B::rescale(B::sub(h(2), h(0)), fs_, 0));
    } else if (j >= 4) {
      d = B::eighth(B::rescale(
          B::sub(B::sub(B::add(B::twice(h(j)), h(j - 1)), h(j - 3)), B::twice(h(j - 4))),
          fs_, 0));
    } else {
      return;
    }
    feat.push_back(mwi_.tick(B::square(d)));
    ++d_emitted_;
  }

  dsp::SampleRate fs_;
  // Input timeline == feature timeline: the band-pass stage absorbs its
  // own group delay.
  dsp::BasicStreamingZeroPhaseFir<B> bp_;
  sample_t bp_hist_[5] = {};        ///< last 5 band-passed samples
  std::size_t bp_count_ = 0;
  std::size_t d_emitted_ = 0;       ///< derivative samples emitted so far
  dsp::BasicStreamingMovingAverage<B> mwi_;
  // Arenas: band-pass outputs and their per-input counts, reused across
  // chunks.
  std::vector<sample_t> bp_arena_;
  std::vector<std::uint32_t> bp_cum_;
};

/// Drives a decision tail over cleaned-ECG outputs [lo, hi) of one
/// front_chunk() call, in the order a sample-at-a-time feed would:
/// note_input(ecg[k]), then on_feature_sample over k's feature range
/// [cum[k-1], cum[k]) (cum[-1] = 0). `lane` maps the front's sample type
/// to the tail's: the identity for a scalar detector, one lane of the
/// vector for the batch detector. Appends confirmed R peaks to `out`.
template <typename Tail, typename Ecg, typename Feat, typename Lane = std::identity>
void replay_decision_tail(Tail& tail, const Ecg& ecg, std::size_t lo, std::size_t hi,
                          const Feat& feat, const std::vector<std::uint32_t>& cum,
                          std::vector<std::size_t>& out, Lane lane = {}) {
  for (std::size_t k = lo; k < hi; ++k) {
    tail.note_input(lane(ecg[k]));
    for (std::uint32_t f = k > 0 ? cum[k - 1] : 0; f < cum[k]; ++f)
      tail.on_feature_sample(lane(feat[f]), out);
  }
}

/// Online Pan-Tompkins detector, generic over the numeric backend
/// (dsp/backend.h): one QrsFeatureFront composed with one
/// QrsDecisionTail. An MWI candidate is final once the next MWI local
/// maximum at least half a refractory later has been observed (or the
/// stream ends), so confirmation latency is data-driven.
///
/// Feed path: front_chunk() runs the feature front over a chunk, then
/// the caller replays its outputs through decision_tail() with
/// replay_decision_tail() — the pipeline interleaves that replay with
/// its other per-sample tails. finish() flushes the front and settles
/// the tail.
///
/// Under Q31Backend the SPKI/NPKI thresholds and the slopes they gate on
/// are Q1.31 integers too; the power-of-two threshold weights of the
/// original paper (1/8, 1/4, 7/8) become arithmetic shifts. Indices, RR
/// statistics and search-back bookkeeping stay in integer/double exactly
/// as in the reference.
template <typename B>
class BasicOnlinePanTompkins {
 public:
  using sample_t = typename B::sample_t;

  explicit BasicOnlinePanTompkins(dsp::SampleRate fs, const PanTompkinsConfig& cfg = {})
      : front_(fs, cfg), tail_(fs, cfg) {}

  /// The feature front over one chunk (see QrsFeatureFront::process_chunk).
  /// The decision tail is NOT driven and note_input() is NOT called; the
  /// caller replays the features with replay_decision_tail().
  void front_chunk(std::span<const sample_t> x, std::vector<sample_t>& feat,
                   std::vector<std::uint32_t>& cum) {
    front_.process_chunk(x, feat, cum);
  }

  /// The decision half, for callers driving the front via front_chunk().
  [[nodiscard]] QrsDecisionTail<B>& decision_tail() { return tail_; }

  /// Pre-sizes the front's arenas (see QrsFeatureFront::reserve) and the
  /// tail's candidate lists.
  void reserve(std::size_t max_chunk) {
    front_.reserve(max_chunk);
    tail_.reserve();
  }
  [[nodiscard]] std::size_t max_finish_outputs() const {
    return front_.max_finish_outputs();
  }

  /// End of stream (after the last chunk's replay): flushes the front
  /// into `feat` (appended; any arena), runs the tail over the flushed
  /// features, then settles learning and the pending candidate.
  void finish(std::vector<sample_t>& feat, std::vector<std::size_t>& out) {
    const std::size_t lo = feat.size();
    front_.finish(feat);
    for (std::size_t f = lo; f < feat.size(); ++f) tail_.on_feature_sample(feat[f], out);
    tail_.settle(out);
  }

  /// Quality-adaptive recovery hook (contact-gap resets): see
  /// QrsDecisionTail::soft_reset. Filter state and sample counters are
  /// kept; only the adaptive decision state restarts.
  void soft_reset() { tail_.soft_reset(); }

  void reset() {
    front_.reset();
    tail_.reset();
  }

  [[nodiscard]] std::size_t samples_consumed() const { return tail_.samples_consumed(); }
  [[nodiscard]] std::size_t peaks_emitted() const { return tail_.peaks_emitted(); }

  /// Serializes the full carried detector state — the feature front,
  /// then the decision tail — for core::Checkpoint round trips. A
  /// restored detector continues the stream bit-identically to one that
  /// was never interrupted.
  template <typename W>
  void save_state(W& w) const {
    front_.save_state(w);
    tail_.save_state(w);
  }

  template <typename R>
  void load_state(R& r) {
    front_.load_state(r);
    tail_.load_state(r);
  }

 private:
  QrsFeatureFront<B> front_;
  QrsDecisionTail<B> tail_;
};

using OnlinePanTompkins = BasicOnlinePanTompkins<dsp::DoubleBackend>;

ICGKIT_LANES_BEGIN
/// Lockstep W-session Pan-Tompkins: the QrsFeatureFront runs once on the
/// SIMD batch backend, then the integrated feature stream fans out into
/// W scalar QrsDecisionTail<DoubleBackend> instances -- the exact code
/// the scalar detector runs, so lane i's emitted peaks are
/// byte-identical to a scalar detector fed lane i's samples.
///
/// Divergence handling: the front has no data-dependent branches, so a
/// lane inside a dropout gap or awaiting a soft reset simply keeps
/// streaming its samples; only its own tail's decisions diverge
/// (soft_reset_lane targets one tail without disturbing the others).
///
/// Checkpointing is per-lane through the lane adaptors
/// (core::LaneStateWriter/Reader): the front's lane-uniform state is
/// written to all W per-session blobs with lane i's values, and each
/// tail writes lane i's blob alone -- producing exactly the scalar
/// detector's wire layout per session.
template <std::size_t W>
class BatchOnlinePanTompkins {
 public:
  using backend_t = dsp::BatchBackend<W>;
  using sample_t = typename backend_t::sample_t;
  static constexpr std::size_t kLanes = W;

  explicit BatchOnlinePanTompkins(dsp::SampleRate fs, const PanTompkinsConfig& cfg = {})
      : front_(fs, cfg) {
    tails_.reserve(W);
    for (std::size_t l = 0; l < W; ++l) tails_.emplace_back(fs, cfg);
  }

  /// The feature front over one chunk, all W lanes in lockstep; `feat`
  /// receives the lane-vector feature samples. The caller replays lane
  /// l's features through decision_tail(l) with replay_decision_tail()
  /// and a lane projection.
  void front_chunk(std::span<const sample_t> x, std::vector<sample_t>& feat,
                   std::vector<std::uint32_t>& cum) {
    front_.process_chunk(x, feat, cum);
  }

  /// Lane l's decision tail, for callers driving front_chunk().
  [[nodiscard]] QrsDecisionTail<dsp::DoubleBackend>& decision_tail(std::size_t lane) {
    return tails_[lane];
  }

  /// Pre-sizes the front's arenas (see QrsFeatureFront::reserve) and
  /// every lane tail's candidate lists.
  void reserve(std::size_t max_chunk) {
    front_.reserve(max_chunk);
    for (auto& tail : tails_) tail.reserve();
  }
  [[nodiscard]] std::size_t max_finish_outputs() const {
    return front_.max_finish_outputs();
  }

  /// End of stream for all lanes in lockstep: flushes the front into
  /// `feat` (appended), runs each lane's tail over the flushed features
  /// and settles it, appending lane l's peaks to out[l]. `out` must
  /// point at W vectors.
  void finish(std::vector<sample_t>& feat, std::vector<std::size_t>* out) {
    const std::size_t lo = feat.size();
    front_.finish(feat);
    for (std::size_t l = 0; l < W; ++l) {
      for (std::size_t f = lo; f < feat.size(); ++f)
        tails_[l].on_feature_sample(feat[f].lane(l), out[l]);
      tails_[l].settle(out[l]);
    }
  }

  /// Contact-gap recovery for one lane (see QrsDecisionTail::soft_reset);
  /// the shared feature front is untouched, so the other lanes are not
  /// perturbed.
  void soft_reset_lane(std::size_t lane) { tails_[lane].soft_reset(); }

  /// Lane-adaptor serialization (see class comment). The resulting
  /// per-session byte streams are exactly the scalar detector layout.
  template <typename LW>
  void save_state(LW& w) const {
    front_.save_state(w);
    for (std::size_t l = 0; l < W; ++l) tails_[l].save_state(w.lane_writer(l));
  }

  template <typename LR>
  void load_state(LR& r) {
    front_.load_state(r);
    for (std::size_t l = 0; l < W; ++l) tails_[l].load_state(r.lane_reader(l));
  }

 private:
  QrsFeatureFront<backend_t> front_;
  std::vector<QrsDecisionTail<dsp::DoubleBackend>> tails_; ///< one per lane
};
ICGKIT_LANES_END

class PanTompkins {
 public:
  explicit PanTompkins(dsp::SampleRate fs, const PanTompkinsConfig& cfg = {});

  /// Detects R peaks over a full recording segment. Thin wrapper: feeds
  /// the whole segment through an OnlinePanTompkins and collects the
  /// confirmed peaks, so batch and streaming detection cannot drift.
  [[nodiscard]] QrsDetection detect(dsp::SignalView ecg) const;

  /// The integrated feature signal (exposed for tests/benches; batch
  /// reference implementation with the zero-phase filtfilt band-pass).
  [[nodiscard]] dsp::Signal feature_signal(dsp::SignalView ecg) const;

 private:
  dsp::SampleRate fs_;
  PanTompkinsConfig cfg_;
};

/// Convenience: R-peak times in seconds.
std::vector<double> r_peak_times(const QrsDetection& det, dsp::SampleRate fs);

} // namespace icgkit::ecg
