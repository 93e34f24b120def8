// SIMD multi-session batch engine: W co-scheduled sessions advancing in
// lockstep through one data-parallel stage front.
//
// The fleet's hot path is thousands of *identical* per-session filter
// cascades, each loading the same coefficients to process one double.
// SessionBatch<W> packs W same-configuration sessions into one streaming
// engine, BasicStreamingBeatPipeline<dsp::BatchBackend<W>>: the same
// template as the scalar engines, instantiated over W lanes. Every
// streaming kernel of the sample-rate front (ECG cleaner, ICG
// conditioner, the shared ecg::QrsFeatureFront) ticks once per sample
// with LaneVec<W> operands, loading each coefficient once for W
// sessions. Control flow that diverges per session — the QRS decision
// tail and everything past the feature boundary — runs in the engine's
// per-lane tails: one QrsDecisionTail and one core::BeatAssembler per
// lane, the code the scalar engine runs for its one lane.
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
// per-session engines when lanes diverge (migration, recording, chunk
// shape mismatch, a stall). The fleet builds its batches fresh: a fresh
// batch is exactly W fresh engines. Both are the engine's own
// load_state()/save_state() through the lane adaptors below, which
// rewrite the scalar wire format per lane, so every lane blob is exactly
// StreamingBeatPipeline's version-1 format, golden fixtures included.
//
// The front/tail profiler (enable_profiling) exists only in these lane
// engines; the scalar and firmware engines carry no flag and read no
// clock.
//
// Everything lane-typed here sits in ICGKIT_LANES_BEGIN/END: batch.cpp
// is compiled once per ISA level and make_session_batch() picks the
// widest the CPU runs (see dsp/simd.h). The lane engines are
// instantiated only there. SessionBatchBase and the factories are the
// ISA-independent boundary.
#pragma once

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "dsp/backend.h"
#include "dsp/simd.h"
#include "ecg/pan_tompkins.h"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace icgkit::core {

/// Runtime-width interface over SessionBatch<4> / SessionBatch<8> of
/// every ISA build, so the fleet can select the lane count from
/// FleetConfig::batch_width, and the ISA from the CPU, without being
/// templated itself. All `out` parameters point at W vectors (one per
/// lane), appended to, never cleared.
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

  /// Pre-sizes every push and finish arena for chunks of up to
  /// `max_chunk` samples per lane (see detail::reserve_push_arenas).
  virtual void reserve_chunk(std::size_t max_chunk) = 0;

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
  virtual void enable_profiling(bool on) = 0;
  [[nodiscard]] virtual std::uint64_t front_ns() const = 0;
  [[nodiscard]] virtual std::uint64_t tail_ns() const = 0;
};

// The lane engines, compiled only in batch.cpp (once per ISA object).
extern template class BasicStreamingBeatPipeline<dsp::BatchBackend<4>>;
extern template class BasicStreamingBeatPipeline<dsp::BatchBackend<8>>;

ICGKIT_LANES_BEGIN

/// StateWriter fan-out for batched kernels: uniform fields (counters,
/// flags, configuration) broadcast to all W per-lane writers; LaneVec
/// values scatter one scalar per lane. Per-lane state
/// (BatchStreamingExtremum, the engine's per-lane tails) grabs a single
/// lane's writer via lane_writer() (or dsp::lane_io()) and serializes the
/// plain scalar layout. The result: W independent byte streams, each
/// exactly the scalar engine's wire format.
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

/// W lockstep sessions behind the runtime-width interface: a thin
/// adaptor over BasicStreamingBeatPipeline<dsp::BatchBackend<W>> (see
/// the header comment for the architecture and the identity contract).
template <std::size_t W>
class SessionBatch final : public SessionBatchBase {
 public:
  using engine_t = BasicStreamingBeatPipeline<dsp::BatchBackend<W>>;

  explicit SessionBatch(dsp::SampleRate fs, const PipelineConfig& cfg = {},
                        double window_s = 12.0)
      : engine_(fs, cfg, window_s) {}

  [[nodiscard]] std::size_t width() const override { return W; }

  void push(const double* const* ecg_mv, const double* const* z_ohm, std::size_t len,
            std::vector<BeatRecord>* out) override {
    engine_.push(ecg_mv, z_ohm, len, out);
  }
  void finish(std::vector<BeatRecord>* out) override { engine_.finish(out); }

  void reserve_chunk(std::size_t max_chunk) override {
    detail::reserve_push_arenas(engine_, max_chunk);
  }

  void enable_profiling(bool on) override { engine_.enable_profiling(on); }
  [[nodiscard]] std::uint64_t front_ns() const override { return engine_.front_ns(); }
  [[nodiscard]] std::uint64_t tail_ns() const override { return engine_.tail_ns(); }

  void pack(const std::vector<std::vector<std::uint8_t>>& blobs) override {
    if (blobs.size() != W)
      throw CheckpointError("SessionBatch: pack() expects exactly W lane blobs");
    std::vector<StateReader> readers;
    readers.reserve(W);
    for (const auto& blob : blobs) readers.emplace_back(blob);
    LaneStateReader<W> r(readers.data());
    engine_.load_state(r);
    for (const StateReader& lr : readers)
      if (!lr.at_end()) throw CheckpointError("SessionBatch: trailing bytes in a lane blob");
  }

  void unpack(std::vector<std::vector<std::uint8_t>>& blobs) const override {
    blobs.resize(W);
    std::vector<StateWriter> writers;
    writers.reserve(W);
    for (auto& blob : blobs) writers.emplace_back(std::move(blob));
    LaneStateWriter<W> w(writers.data());
    engine_.save_state(w);
    for (std::size_t l = 0; l < W; ++l) blobs[l] = writers[l].take();
  }

  [[nodiscard]] const QualitySummary& lane_quality(std::size_t lane) const override {
    return engine_.quality_summary(lane);
  }
  [[nodiscard]] bool lane_in_dropout(std::size_t lane) const override {
    return engine_.in_dropout(lane);
  }
  [[nodiscard]] std::size_t samples_consumed() const override {
    return engine_.samples_consumed();
  }

 private:
  engine_t engine_;
};

// Compiled in batch.cpp: once with the build's flags and once per
// wider ISA object (see the header comment of dsp/simd.h).
extern template class SessionBatch<4>;
extern template class SessionBatch<8>;

ICGKIT_LANES_END

/// Supported lane counts for make_session_batch / FleetConfig::batch_width.
[[nodiscard]] bool session_batch_width_supported(std::size_t width);

/// Runtime-width, runtime-ISA factory: a SessionBatch<width> compiled
/// for dsp::lane_target(), the widest lane build this host's CPU runs.
/// Width must be 4 or 8 (throws std::invalid_argument otherwise).
std::unique_ptr<SessionBatchBase> make_session_batch(std::size_t width,
                                                     dsp::SampleRate fs,
                                                     const PipelineConfig& cfg = {},
                                                     double window_s = 12.0);

/// make_session_batch() for one given lane target, so tests and benches
/// can hold every build the host runs to the same bytes. Throws
/// std::invalid_argument when `target` is wider than dsp::lane_target().
std::unique_ptr<SessionBatchBase> make_session_batch_on(dsp::LaneTarget target,
                                                        std::size_t width,
                                                        dsp::SampleRate fs,
                                                        const PipelineConfig& cfg = {},
                                                        double window_s = 12.0);

} // namespace icgkit::core
