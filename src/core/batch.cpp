// The lockstep batch engine, compiled once with the build's own flags
// and, on x86-64, once more per wider ISA (see CMakeLists.txt). Every
// compilation defines one factory, named after its lane namespace; only
// the build's own compilation carries the runtime dispatcher.
#include "core/batch.h"

#include <stdexcept>
#include <string>

#if defined(ICGKIT_LANES_NS)
#define ICGKIT_PASTE_(a, b) a##b
#define ICGKIT_PASTE(a, b) ICGKIT_PASTE_(a, b)
#define ICGKIT_BATCH_FACTORY ICGKIT_PASTE(make_session_batch_, ICGKIT_LANES_NS)
#else
#define ICGKIT_BATCH_FACTORY make_session_batch_build
#endif

namespace icgkit::core {

// The two supported lane counts (the header declares the matching
// extern templates). W=4 is one AVX2 register per LaneVec, W=8 is one
// AVX-512 register or two AVX2 ops — both lower to SSE2/NEON pairs on
// narrower targets. dsp::BatchBackend<W> names this object's lane
// namespace, so each ISA object compiles its own engines.
template class BasicStreamingBeatPipeline<dsp::BatchBackend<4>>;
template class BasicStreamingBeatPipeline<dsp::BatchBackend<8>>;

ICGKIT_LANES_BEGIN
template class SessionBatch<4>;
template class SessionBatch<8>;
ICGKIT_LANES_END

/// This compilation's engine factory. In a per-ISA object it is the one
/// symbol left global, the only way into that object's code.
std::unique_ptr<SessionBatchBase> ICGKIT_BATCH_FACTORY(std::size_t width, dsp::SampleRate fs,
                                                       const PipelineConfig& cfg,
                                                       double window_s) {
  switch (width) {
    case 4:
      return std::make_unique<SessionBatch<4>>(fs, cfg, window_s);
    case 8:
      return std::make_unique<SessionBatch<8>>(fs, cfg, window_s);
    default:
      throw std::invalid_argument("make_session_batch: width must be 4 or 8 (got " +
                                  std::to_string(width) + ")");
  }
}

#if !defined(ICGKIT_LANES_NS)

#if defined(ICGKIT_LANE_DISPATCH)
// Defined by the per-ISA objects (lane namespaces lanes_x86_64_v3/_v4).
std::unique_ptr<SessionBatchBase> make_session_batch_lanes_x86_64_v3(
    std::size_t width, dsp::SampleRate fs, const PipelineConfig& cfg, double window_s);
std::unique_ptr<SessionBatchBase> make_session_batch_lanes_x86_64_v4(
    std::size_t width, dsp::SampleRate fs, const PipelineConfig& cfg, double window_s);
#endif

bool session_batch_width_supported(std::size_t width) {
  return width == 4 || width == 8;
}

std::unique_ptr<SessionBatchBase> make_session_batch_on(dsp::LaneTarget target,
                                                        std::size_t width,
                                                        dsp::SampleRate fs,
                                                        const PipelineConfig& cfg,
                                                        double window_s) {
  // lane_target() is the widest target the host runs, and each wider
  // ISA level contains the narrower ones.
  if (target > dsp::lane_target())
    throw std::invalid_argument("make_session_batch_on: lane target not available here");
  switch (target) {
#if defined(ICGKIT_LANE_DISPATCH)
    case dsp::LaneTarget::X86_64_V4:
      return make_session_batch_lanes_x86_64_v4(width, fs, cfg, window_s);
    case dsp::LaneTarget::X86_64_V3:
      return make_session_batch_lanes_x86_64_v3(width, fs, cfg, window_s);
#endif
    default:
      return make_session_batch_build(width, fs, cfg, window_s);
  }
}

std::unique_ptr<SessionBatchBase> make_session_batch(std::size_t width,
                                                     dsp::SampleRate fs,
                                                     const PipelineConfig& cfg,
                                                     double window_s) {
  return make_session_batch_on(dsp::lane_target(), width, fs, cfg, window_s);
}

#endif // !ICGKIT_LANES_NS

} // namespace icgkit::core
