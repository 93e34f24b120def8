// Standalone per-layer timings for traced runs: the sample-rate stages,
// the beat tail and the whole engine on the workload's own input and
// chunking, SessionBatch<8> lockstep lanes, and the wire codec. Each is
// timed from outside through the layer's public entry points.
#pragma once
#include "common.h"
#include "inputs.h"

#include <cstddef>
#include <vector>

namespace pb {

struct EngineLayers {
  double ecg_clean_ns = 0.0;     ///< per sample
  double icg_condition_ns = 0.0; ///< per sample
  double qrs_front_ns = 0.0;     ///< per sample
  double delineate_us = 0.0;     ///< per beat
  double quality_us = 0.0;       ///< per beat
  double hemodynamics_us = 0.0;  ///< per beat
  double pipeline_ns = 0.0;      ///< whole engine push_into, per sample
  double glue_ns = 0.0;          ///< pipeline - fronts - tail, per sample
  double beats_per_sample = 0.0;
  std::size_t tail_mismatches = 0; ///< standalone delineations != engine's
};

/// Times the stages of BasicStreamingBeatPipeline<B> (double or Q31
/// backend) over `inputs` in `chunk`-sample pushes; each figure is the
/// median of `reps` passes.
template <typename B>
EngineLayers measure_engine_layers(const std::vector<const Input*>& inputs, std::size_t chunk,
                                   int reps);

/// Field-wise median of several measurements (glue recomputed from the
/// medians, so the decomposition still adds up).
EngineLayers median_layers(const std::vector<EngineLayers>& v);

/// ns per lane-sample of core::SessionBatch<8> fed `lanes` (eight
/// inputs, cut to the shortest) in `chunk`-sample lockstep pushes.
double measure_batch8(const std::vector<const Input*>& lanes, std::size_t chunk, int reps);

struct CapiLayers {
  double push_ns = 0.0;     ///< icg_session_push + finish, per sample
  double poll_ns = 0.0;     ///< icg_session_poll_beat, per beat polled
  double overhead_ns = 0.0; ///< C ABI push - direct engine push, per sample
};
/// One Q31 C ABI session per input in 25-sample device pushes, timed per
/// call, `reps` passes each, interleaved with direct
/// FixedStreamingBeatPipeline passes; every C ABI beat is checked against
/// the direct engine's (a miss marks `res` not correct). Defined with
/// the device_q31 workload.
CapiLayers measure_capi(const std::vector<const Input*>& inputs, int reps, Result& res);

struct CodecCosts {
  double encode_ns = 0.0; ///< per CHNK record
  double decode_ns = 0.0; ///< per CHNK record
  bool round_trip_ok = true;
};
/// The wire.h CHNK codec standalone: every chunk of `in` encoded into a
/// framed record, then decoded back through FrameDecoder + PayloadReader.
CodecCosts measure_codec(const Input& in, std::size_t chunk, int reps);

} // namespace pb
