#include "dsp/simd.h"

namespace icgkit::dsp {

LaneTarget lane_target() {
#if defined(ICGKIT_LANE_DISPATCH)
  // The same ISA levels the per-ISA batch objects are compiled for
  // (-march=x86-64-v3 / -v4), so a chosen object never meets an
  // instruction the CPU lacks.
  static const LaneTarget target = __builtin_cpu_supports("x86-64-v4")
                                       ? LaneTarget::X86_64_V4
                                   : __builtin_cpu_supports("x86-64-v3")
                                       ? LaneTarget::X86_64_V3
                                       : LaneTarget::Build;
  return target;
#else
  return LaneTarget::Build;
#endif
}

const char* lane_isa() {
  switch (lane_target()) {
    case LaneTarget::X86_64_V4:
      return "avx512";
    case LaneTarget::X86_64_V3:
      return "avx2";
    case LaneTarget::Build:
      break;
  }
  return compiled_lane_isa();
}

} // namespace icgkit::dsp
