// SIMD multi-session batch engine: W co-scheduled sessions advancing in
// lockstep through one data-parallel stage front.
//
// The fleet's hot path is thousands of *identical* per-session filter
// cascades, each loading the same coefficients to process one double.
// SessionBatch<W> packs W same-configuration sessions into a single
// pipeline instantiated over dsp::BatchBackend<W>: every streaming
// kernel of the sample-rate front (ECG cleaner, ICG conditioner, the
// shared ecg::QrsFeatureFront) ticks once per sample with LaneVec<W>
// operands, loading each coefficient once for W sessions. Control flow
// that diverges per session — the QRS decision tail and everything past
// the feature boundary — fans out into W scalar structures: per-lane
// QrsDecisionTail (inside ecg::BatchOnlinePanTompkins) and per-lane
// core::BeatAssembler, the same per-beat tail the scalar engine runs.
//
// Identity contract: each lane's emitted BeatRecords are byte-identical
// to a scalar StreamingBeatPipeline fed the same per-lane stream (the
// batch backend evaluates the exact scalar double expression per lane
// and the build disables FMA contraction; see dsp/backend.h). A lane in
// a contact-gap dropout needs no masking: the scalar engine keeps
// filtering through gaps too, so divergence lives entirely in the
// per-lane tails.
//
// Lifecycle interop with the scalar world runs through the checkpoint
// format: pack() consumes W scalar checkpoint blobs (cross-validated
// for configuration agreement), unpack() produces W blobs any scalar
// engine restores — which is how the fleet dissolves a batch back to
// per-session engines when lanes diverge (finish, migration, chunk
// shape mismatch). The lane adaptors below rewrite the scalar wire
// format per lane, so the blob layout is exactly
// StreamingBeatPipeline's version-1 format, golden fixtures included.
#pragma once

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "dsp/backend.h"
#include "dsp/simd.h"
#include "ecg/pan_tompkins.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace icgkit::core {

/// StateWriter fan-out for batched kernels: uniform fields (counters,
/// flags, configuration) broadcast to all W per-lane writers; LaneVec
/// values scatter one scalar per lane. Kernels with per-lane state
/// (BatchStreamingExtremum, the QRS decision tails) grab a single lane's
/// writer via lane_writer() and serialize the plain scalar layout. The
/// result: W independent byte streams, each exactly the scalar kernel's
/// wire format.
template <std::size_t W>
class LaneStateWriter {
 public:
  /// `lanes` must point at W writers outliving this adaptor.
  explicit LaneStateWriter(StateWriter* lanes) : lanes_(lanes) {}

  void u8(std::uint8_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].u8(v); }
  void u32(std::uint32_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].u32(v); }
  void u64(std::uint64_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].u64(v); }
  void i32(std::int32_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].i32(v); }
  void i64(std::int64_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].i64(v); }
  void f64(double v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].f64(v); }
  void boolean(bool v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].boolean(v); }

  void value(const dsp::LaneVec<W>& v) {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].value(v.lane(l));
  }

  void begin_section(const char (&tag)[5]) {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].begin_section(tag);
  }
  void end_section() {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].end_section();
  }

  [[nodiscard]] StateWriter& lane_writer(std::size_t l) { return lanes_[l]; }

 private:
  StateWriter* lanes_;
};

/// StateReader fan-in, the inverse of LaneStateWriter: uniform fields
/// are read from every lane and must agree bit for bit — the batched
/// kernels advance all lanes in lockstep, so any disagreement means the
/// blobs came from sessions at different stream positions (or different
/// configurations) and packing them would corrupt every lane. LaneVec
/// values gather one scalar per lane; per-lane kernels read their lane's
/// plain reader via lane_reader().
template <std::size_t W>
class LaneStateReader {
 public:
  /// `lanes` must point at W readers outliving this adaptor.
  explicit LaneStateReader(StateReader* lanes) : lanes_(lanes) {}

  std::uint8_t u8() { return uniform("u8", [](StateReader& r) { return r.u8(); }); }
  std::uint32_t u32() { return uniform("u32", [](StateReader& r) { return r.u32(); }); }
  std::uint64_t u64() { return uniform("u64", [](StateReader& r) { return r.u64(); }); }
  std::int32_t i32() { return uniform("i32", [](StateReader& r) { return r.i32(); }); }
  std::int64_t i64() { return uniform("i64", [](StateReader& r) { return r.i64(); }); }
  bool boolean() { return uniform("boolean", [](StateReader& r) { return r.boolean(); }); }
  double f64() {
    // Compared as bit patterns: lockstep lanes must match exactly, and a
    // NaN payload difference is as much a divergence as any other.
    return std::bit_cast<double>(
        uniform("f64", [](StateReader& r) { return r.u64(); }));
  }

  template <typename T>
  T value() {
    static_assert(std::is_same_v<T, dsp::LaneVec<W>>,
                  "LaneStateReader::value: batched kernels read LaneVec values");
    dsp::LaneVec<W> v{};
    for (std::size_t l = 0; l < W; ++l) v.set_lane(l, lanes_[l].template value<double>());
    return v;
  }

  void begin_section(const char (&tag)[5]) {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].begin_section(tag);
  }
  void end_section() {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].end_section();
  }

  [[nodiscard]] std::size_t section_remaining() const {
    return lanes_[0].section_remaining();
  }

  [[noreturn]] void fail(const std::string& msg) const { throw CheckpointError(msg); }

  [[nodiscard]] StateReader& lane_reader(std::size_t l) { return lanes_[l]; }

 private:
  template <typename F>
  auto uniform(const char* what, F&& read) {
    auto v0 = read(lanes_[0]);
    for (std::size_t l = 1; l < W; ++l)
      if (read(lanes_[l]) != v0)
        throw CheckpointError(std::string("SessionBatch: lanes disagree on a uniform ") +
                              what + " field (sessions not in lockstep)");
    return v0;
  }

  StateReader* lanes_;
};

/// Runtime-width interface over SessionBatch<4> / SessionBatch<8>, so
/// the fleet can select the lane count from FleetConfig::batch_width
/// without being templated itself. All `out` parameters point at W
/// vectors (one per lane), appended to, never cleared.
class SessionBatchBase {
 public:
  virtual ~SessionBatchBase() = default;

  [[nodiscard]] virtual std::size_t width() const = 0;

  /// Loads W scalar session checkpoints (StreamingBeatPipeline blobs,
  /// one per lane) into the batched engine. The sessions must share the
  /// batch's configuration and be at the same stream position — any
  /// disagreement throws CheckpointError and leaves the batch unusable.
  virtual void pack(const std::vector<std::vector<std::uint8_t>>& blobs) = 0;

  /// Serializes the batch back into W scalar checkpoints, each
  /// restorable by a same-configuration StreamingBeatPipeline (blob l =
  /// lane l). `blobs` is resized to W; element capacity is reused.
  virtual void unpack(std::vector<std::vector<std::uint8_t>>& blobs) const = 0;

  /// Advances all lanes by `len` samples in lockstep. ecg_mv/z_ohm point
  /// at W per-lane arrays of `len` samples; lane l's completed beats are
  /// appended to out[l].
  virtual void push(const double* const* ecg_mv, const double* const* z_ohm,
                    std::size_t len, std::vector<BeatRecord>* out) = 0;

  /// End-of-stream flush for all lanes in lockstep.
  virtual void finish(std::vector<BeatRecord>* out) = 0;

  [[nodiscard]] virtual const QualitySummary& lane_quality(std::size_t lane) const = 0;
  [[nodiscard]] virtual bool lane_in_dropout(std::size_t lane) const = 0;
  /// Samples consumed per lane (identical across lanes, by lockstep).
  [[nodiscard]] virtual std::size_t samples_consumed() const = 0;

  /// Opt-in front-vs-tail wall-time instrumentation for push(): when
  /// enabled, each push accumulates the lockstep-front phase (SoA input
  /// packing + fused filter/feature chains) into front_ns() and the
  /// per-lane scalar replay (gap machine, decision tails, assemblers)
  /// into tail_ns(). Off by default — the clock reads would perturb the
  /// gated throughput numbers, so benches measure speedups with it off
  /// and take the breakdown from a separate instrumented pass.
  virtual void enable_profiling(bool) {}
  [[nodiscard]] virtual std::uint64_t front_ns() const { return 0; }
  [[nodiscard]] virtual std::uint64_t tail_ns() const { return 0; }
};

/// W lockstep sessions through one BatchBackend<W> stage front; see the
/// header comment for the architecture and the identity contract.
template <std::size_t W>
class SessionBatch final : public SessionBatchBase {
 public:
  using backend_t = dsp::BatchBackend<W>;
  using sample_t = typename backend_t::sample_t;

  explicit SessionBatch(dsp::SampleRate fs, const PipelineConfig& cfg = {},
                        double window_s = 12.0)
      : fs_(fs), cfg_(cfg),
        window_samples_(static_cast<std::size_t>(std::max(4.0, window_s) * fs)),
        ecg_stage_(fs, cfg.ecg_filter),
        icg_stage_(fs, cfg.icg_filter, 0),
        qrs_(fs, cfg.qrs) {
    // The scalar double engine's saturation rails come from the default
    // scaling policy; use the same ones so lane verdicts match it.
    const dsp::Q31ScalingPolicy scaling{};
    assemblers_.reserve(W);
    for (std::size_t l = 0; l < W; ++l)
      assemblers_.emplace_back(fs, cfg, window_samples_, /*z_scale=*/1.0,
                               /*icg_scale=*/1.0, scaling.ecg_fullscale_mv,
                               scaling.z_fullscale_ohm, icg_stage_.latency());
    ecg_scratch_.reserve(512);
    icg_scratch_.reserve(512);
    for (auto& rs : r_scratch_) rs.reserve(64);
  }

  [[nodiscard]] std::size_t width() const override { return W; }

  /// Two-phase lockstep advance. Phase 1 packs the W input streams into
  /// SoA lane vectors and runs the fused fronts (ICG conditioner, ECG
  /// cleaner, QRS feature chain) over the whole chunk — the only part
  /// whose work is W-wide SIMD. Phase 2 replays the chunk lane-major
  /// through the scalar tails: each lane's pending beats queue up during
  /// the front tick and drain here, per raw sample, in exactly the
  /// scalar engine's ingest order. Lanes share no tail state, so
  /// lane-major replay emits byte-identical BeatRecords to the
  /// sample-major interleaving (and to W scalar sessions).
  void push(const double* const* ecg_mv, const double* const* z_ohm, std::size_t len,
            std::vector<BeatRecord>* out) override {
    if (len == 0) return;
    const bool prof = profile_;
    std::chrono::steady_clock::time_point t0, t1;
    if (prof) t0 = std::chrono::steady_clock::now();

    e_arena_.clear();
    z_arena_.clear();
    for (std::size_t i = 0; i < len; ++i) {
      sample_t e{}, z{};
      for (std::size_t l = 0; l < W; ++l) {
        e.set_lane(l, ecg_mv[l][i]);
        z.set_lane(l, z_ohm[l][i]);
      }
      e_arena_.push_back(e);
      z_arena_.push_back(z);
    }
    icg_scratch_.clear();
    icg_cum_.clear();
    icg_stage_.process_chunk(z_arena_, icg_scratch_, icg_cum_);
    ecg_scratch_.clear();
    ecg_cum_.clear();
    ecg_stage_.process_chunk(e_arena_, ecg_scratch_, ecg_cum_);
    feat_out_.clear();
    feat_cum_.clear();
    qrs_.front_chunk(ecg_scratch_, feat_out_, feat_cum_);

    if (prof) t1 = std::chrono::steady_clock::now();

    for (std::size_t l = 0; l < W; ++l) {
      auto& a = assemblers_[l];
      auto& tail = qrs_.decision_tail(l);
      auto& rs = r_scratch_[l];
      std::uint32_t icg_lo = 0, ecg_lo = 0;
      for (std::size_t i = 0; i < len; ++i) {
        a.on_raw_sample(ecg_mv[l][i], z_ohm[l][i], z_arena_[i].lane(l),
                        [this, l] { qrs_.soft_reset_lane(l); });
        for (std::uint32_t k = icg_lo; k < icg_cum_[i]; ++k)
          a.on_icg_sample(icg_scratch_[k].lane(l));
        icg_lo = icg_cum_[i];
        a.maybe_drain_ensemble();

        rs.clear();
        ecg::replay_decision_tail(tail, ecg_scratch_, ecg_lo, ecg_cum_[i], feat_out_,
                                  feat_cum_, rs, lane_of(l));
        ecg_lo = ecg_cum_[i];
        for (const std::size_t r : rs) a.on_r_peak(r);
        a.drain_ready(out[l]);
      }
    }

    if (prof) {
      const auto t2 = std::chrono::steady_clock::now();
      front_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
      tail_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count();
    }
  }

  void enable_profiling(bool on) override { profile_ = on; }
  [[nodiscard]] std::uint64_t front_ns() const override { return front_ns_; }
  [[nodiscard]] std::uint64_t tail_ns() const override { return tail_ns_; }

  void finish(std::vector<BeatRecord>* out) override {
    icg_scratch_.clear();
    icg_stage_.finish(icg_scratch_);
    for (const sample_t v : icg_scratch_)
      for (std::size_t l = 0; l < W; ++l) assemblers_[l].on_icg_sample(v.lane(l));
    for (std::size_t l = 0; l < W; ++l) assemblers_[l].maybe_drain_ensemble();

    ecg_scratch_.clear();
    ecg_stage_.finish(ecg_scratch_);
    feat_out_.clear();
    feat_cum_.clear();
    qrs_.front_chunk(ecg_scratch_, feat_out_, feat_cum_);
    for (std::size_t l = 0; l < W; ++l) {
      r_scratch_[l].clear();
      ecg::replay_decision_tail(qrs_.decision_tail(l), ecg_scratch_, 0, ecg_scratch_.size(),
                                feat_out_, feat_cum_, r_scratch_[l], lane_of(l));
    }
    qrs_.finish(feat_out_, r_scratch_.data());
    for (std::size_t l = 0; l < W; ++l) {
      for (const std::size_t r : r_scratch_[l]) assemblers_[l].on_r_peak(r);
      assemblers_[l].drain_ready(out[l]);
    }
  }

  void pack(const std::vector<std::vector<std::uint8_t>>& blobs) override {
    if (blobs.size() != W)
      throw CheckpointError("SessionBatch: pack() expects exactly W lane blobs");
    std::vector<StateReader> readers;
    readers.reserve(W);
    for (const auto& blob : blobs) readers.emplace_back(blob);
    LaneStateReader<W> r(readers.data());

    r.begin_section("CFG ");
    if (r.u8() != 0) r.fail("SessionBatch: lanes must be double-backend sessions");
    if (r.f64() != fs_) r.fail("SessionBatch: sample-rate mismatch");
    if (r.u64() != window_samples_) r.fail("SessionBatch: window mismatch");
    if (r.boolean() != cfg_.enable_ensemble)
      r.fail("SessionBatch: ensemble-stage mismatch");
    r.end_section();

    r.begin_section("ECGC");
    ecg_stage_.load_state(r);
    r.end_section();

    r.begin_section("ICGC");
    icg_stage_.load_state(r);
    r.end_section();

    r.begin_section("QRSD");
    qrs_.load_state(r);
    r.end_section();

    // The per-beat tails are scalar per lane: each assembler reads its
    // lane's plain reader, section framing shared so the streams stay in
    // step.
    for (std::size_t l = 0; l < W; ++l) {
      StateReader& lr = r.lane_reader(l);
      lr.begin_section("RING");
      assemblers_[l].load_ring_body(lr);
      lr.end_section();
      lr.begin_section("BEAT");
      assemblers_[l].load_beat_body(lr);
      lr.end_section();
      lr.begin_section("GAPS");
      assemblers_[l].load_gaps_body(lr);
      lr.end_section();
      lr.begin_section("QSUM");
      assemblers_[l].load_qsum_body(lr);
      lr.end_section();
      lr.begin_section("ENSB");
      assemblers_[l].load_ensb_body(lr);
      lr.end_section();
      if (!lr.at_end())
        throw CheckpointError("SessionBatch: trailing bytes in a lane blob");
    }
  }

  void unpack(std::vector<std::vector<std::uint8_t>>& blobs) const override {
    blobs.resize(W);
    std::vector<StateWriter> writers;
    writers.reserve(W);
    for (auto& blob : blobs) writers.emplace_back(std::move(blob));
    LaneStateWriter<W> w(writers.data());

    w.begin_section("CFG ");
    w.u8(0);
    w.f64(fs_);
    w.u64(window_samples_);
    w.boolean(cfg_.enable_ensemble);
    w.end_section();

    w.begin_section("ECGC");
    ecg_stage_.save_state(w);
    w.end_section();

    w.begin_section("ICGC");
    icg_stage_.save_state(w);
    w.end_section();

    w.begin_section("QRSD");
    qrs_.save_state(w);
    w.end_section();

    for (std::size_t l = 0; l < W; ++l) {
      StateWriter& lw = w.lane_writer(l);
      lw.begin_section("RING");
      assemblers_[l].save_ring_body(lw);
      lw.end_section();
      lw.begin_section("BEAT");
      assemblers_[l].save_beat_body(lw);
      lw.end_section();
      lw.begin_section("GAPS");
      assemblers_[l].save_gaps_body(lw);
      lw.end_section();
      lw.begin_section("QSUM");
      assemblers_[l].save_qsum_body(lw);
      lw.end_section();
      lw.begin_section("ENSB");
      assemblers_[l].save_ensb_body(lw);
      lw.end_section();
      blobs[l] = lw.take();
    }
  }

  [[nodiscard]] const QualitySummary& lane_quality(std::size_t lane) const override {
    return assemblers_[lane].quality_summary();
  }
  [[nodiscard]] bool lane_in_dropout(std::size_t lane) const override {
    return assemblers_[lane].in_dropout();
  }
  [[nodiscard]] std::size_t samples_consumed() const override {
    return assemblers_[0].samples_consumed();
  }

 private:
  /// Projection of a lane vector onto lane l, for the decision-tail replay.
  static auto lane_of(std::size_t l) {
    return [l](const sample_t& v) { return v.lane(l); };
  }

  dsp::SampleRate fs_;
  PipelineConfig cfg_;
  std::size_t window_samples_;

  BasicEcgCleanerStage<backend_t> ecg_stage_;
  BasicIcgConditionerStage<backend_t> icg_stage_;
  ecg::BatchOnlinePanTompkins<W> qrs_;
  std::vector<BeatAssembler<dsp::DoubleBackend>> assemblers_; ///< one per lane

  std::vector<sample_t> ecg_scratch_, icg_scratch_;
  std::array<std::vector<std::size_t>, W> r_scratch_;
  // Two-phase push arenas: SoA-packed inputs, the QRS front's feature
  // stream, and each front's per-input cumulative-output counts. Reused
  // across chunks.
  std::vector<sample_t> e_arena_, z_arena_;
  std::vector<sample_t> feat_out_;
  std::vector<std::uint32_t> icg_cum_, ecg_cum_, feat_cum_;

  bool profile_ = false;
  std::uint64_t front_ns_ = 0, tail_ns_ = 0;
};

// Compiled once in batch.cpp (same pattern as the scalar engine).
extern template class SessionBatch<4>;
extern template class SessionBatch<8>;

/// Supported lane counts for make_session_batch / FleetConfig::batch_width.
[[nodiscard]] bool session_batch_width_supported(std::size_t width);

/// Runtime-width factory: width must be 4 or 8 (throws
/// std::invalid_argument otherwise).
std::unique_ptr<SessionBatchBase> make_session_batch(std::size_t width,
                                                     dsp::SampleRate fs,
                                                     const PipelineConfig& cfg = {},
                                                     double window_s = 12.0);

} // namespace icgkit::core
