// Portable fixed-width lane vector for the SIMD batch backend.
//
// LaneVec<W> is a structure-of-arrays register of W double lanes. On
// GCC/Clang it is backed by the compiler vector extension
// (__attribute__((vector_size))), which lowers to AVX/AVX2 on x86-64-v3,
// SSE2 pairs on baseline x86-64 and NEON pairs on aarch64 -- one type,
// the compiler picks the widest ISA the build targets. Elsewhere it
// falls back to a plain double array whose operators are scalar loops
// (auto-vectorizable, always correct).
//
// The batch identity contract (see BatchBackend in dsp/backend.h)
// depends on each lane performing exactly the scalar double expression:
// every operator here is elementwise IEEE double arithmetic with no
// reordering, no FMA contraction beyond what the scalar build does (the
// project compiles with -ffp-contract=off), and no horizontal ops.
//
// Per-ISA builds. The batch engine (core/batch.cpp) is compiled once
// with the build's own flags and, on x86-64, once more per wider ISA
// (x86-64-v3, x86-64-v4); core::make_session_batch picks one at run
// time. Each extra compilation defines ICGKIT_LANES_NS, which wraps
// every lane-typed entity -- LaneVec, BatchBackend, the batch kernels,
// SessionBatch -- in an inline namespace of that name, so two ISAs'
// instantiations never share a mangled name (a LaneVec<8> passed by
// value has a different calling convention under each ISA). The build
// then makes every other symbol of those objects local; see
// CMakeLists.txt and ci/check_isa_symbols.py.
#pragma once

#include <cstddef>

#if defined(ICGKIT_LANES_NS)
#define ICGKIT_LANES_BEGIN inline namespace ICGKIT_LANES_NS {
#define ICGKIT_LANES_END }
#else
#define ICGKIT_LANES_BEGIN
#define ICGKIT_LANES_END
#endif

namespace icgkit::dsp {

#if defined(__GNUC__) || defined(__clang__)
#define ICGKIT_LANEVEC_NATIVE 1
#else
#define ICGKIT_LANEVEC_NATIVE 0
#endif

ICGKIT_LANES_BEGIN

#if ICGKIT_LANEVEC_NATIVE
namespace detail {
// GCC does not accept a template-dependent vector_size, so the native
// vector types are spelled out per supported byte width.
template <std::size_t Bytes>
struct NativeLanes; // only the specialized widths exist
template <>
struct NativeLanes<16> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct NativeLanes<32> {
  typedef double type __attribute__((vector_size(32)));
};

#if defined(__AVX2__) && !defined(__AVX512F__)
// 64-byte lane vectors on a 32-byte ISA. A generic vector_size(64) type
// makes GCC treat each W=8 value as one indivisible 64-byte object: the
// register allocator must find two *paired* ymm registers per value, and
// state-heavy kernels (an SOS section carries s1+s2, a batch FIR the
// accumulator plus the tap broadcast) run out of pairs and spill every
// tick. Splitting the value into two explicit 32-byte halves gives the
// allocator eight independent ymm values to juggle instead of four
// pairs, which is what lets W=8 *beat* W=4 on plain AVX2 instead of
// losing to it. Elementwise semantics are unchanged: every operator
// applies the identical IEEE double expression per lane, half by half,
// with no cross-half (horizontal) operations.
struct PairLanes64 {
  typedef double half_t __attribute__((vector_size(32)));
  half_t lo{}, hi{};

  double& operator[](std::size_t i) { return i < 4 ? lo[i] : hi[i - 4]; }
  double operator[](std::size_t i) const { return i < 4 ? lo[i] : hi[i - 4]; }

  friend PairLanes64 operator+(PairLanes64 a, PairLanes64 b) {
    return PairLanes64{a.lo + b.lo, a.hi + b.hi};
  }
  friend PairLanes64 operator-(PairLanes64 a, PairLanes64 b) {
    return PairLanes64{a.lo - b.lo, a.hi - b.hi};
  }
  friend PairLanes64 operator*(PairLanes64 a, PairLanes64 b) {
    return PairLanes64{a.lo * b.lo, a.hi * b.hi};
  }
  friend PairLanes64 operator*(double c, PairLanes64 a) {
    return PairLanes64{c * a.lo, c * a.hi};
  }
  friend PairLanes64 operator*(PairLanes64 a, double c) {
    return PairLanes64{a.lo * c, a.hi * c};
  }
  friend PairLanes64 operator/(PairLanes64 a, double c) {
    return PairLanes64{a.lo / c, a.hi / c};
  }
  friend PairLanes64 operator-(PairLanes64 a) { return PairLanes64{-a.lo, -a.hi}; }
};
template <>
struct NativeLanes<64> {
  using type = PairLanes64;
};
#else
template <>
struct NativeLanes<64> {
  typedef double type __attribute__((vector_size(64)));
};
#endif
} // namespace detail
#endif

/// W double lanes advancing in lockstep. W must be a power of two so the
/// native vector extension applies (4 and 8 are the supported widths).
///
/// Width guidance: W=8 is one zmm on AVX-512 and, on plain AVX2, two
/// *independent* ymm halves (detail::PairLanes64) — the split keeps the
/// register allocator free to schedule eight 32-byte values instead of
/// four paired 64-byte ones, so the 4-section SOS cascade's state stays
/// in registers and W=8 beats W=4 on both ISAs. On baseline SSE2 every
/// W=8 value is four xmm pairs; the batched front still beats scalar
/// there (see default_batch_width).
template <std::size_t W>
struct LaneVec {
  static_assert(W >= 2 && W <= 8 && (W & (W - 1)) == 0,
                "LaneVec: W must be 2, 4 or 8");

#if ICGKIT_LANEVEC_NATIVE
  using vec_t = typename detail::NativeLanes<W * sizeof(double)>::type;
  vec_t v{};
#else
  double v[W] = {};
#endif

  /// Broadcast construction (explicit: a stray scalar-to-vector
  /// conversion in kernel code would hide a missing batch op).
  static LaneVec broadcast(double x) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }

  [[nodiscard]] double lane(std::size_t i) const { return v[i]; }
  void set_lane(std::size_t i, double x) { v[i] = x; }

  // Elementwise arithmetic. The native path is a single vector op; the
  // fallback loops are the same expressions per lane.
#if ICGKIT_LANEVEC_NATIVE
  friend LaneVec operator+(LaneVec a, LaneVec b) { return LaneVec{a.v + b.v}; }
  friend LaneVec operator-(LaneVec a, LaneVec b) { return LaneVec{a.v - b.v}; }
  friend LaneVec operator*(LaneVec a, LaneVec b) { return LaneVec{a.v * b.v}; }
  friend LaneVec operator*(double c, LaneVec a) { return LaneVec{c * a.v}; }
  friend LaneVec operator*(LaneVec a, double c) { return LaneVec{a.v * c}; }
  friend LaneVec operator/(LaneVec a, double c) { return LaneVec{a.v / c}; }
  friend LaneVec operator-(LaneVec a) { return LaneVec{-a.v}; }
#else
  friend LaneVec operator+(LaneVec a, LaneVec b) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend LaneVec operator-(LaneVec a, LaneVec b) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend LaneVec operator*(LaneVec a, LaneVec b) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend LaneVec operator*(double c, LaneVec a) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = c * a.v[i];
    return r;
  }
  friend LaneVec operator*(LaneVec a, double c) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] * c;
    return r;
  }
  friend LaneVec operator/(LaneVec a, double c) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] / c;
    return r;
  }
  friend LaneVec operator-(LaneVec a) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
  }
#endif
};

ICGKIT_LANES_END

/// Compile-time name of the widest ISA the lane vector lowers to in the
/// translation unit that evaluates it (the build's own flags outside the
/// per-ISA batch objects).
constexpr const char* compiled_lane_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#elif ICGKIT_LANEVEC_NATIVE
  return "vector-ext";
#else
  return "scalar";
#endif
}

/// The batch engine builds the dispatcher chooses between.
enum class LaneTarget {
  Build,     ///< the build's own flags (compiled_lane_isa())
  X86_64_V3, ///< -march=x86-64-v3: AVX2, W=8 as two ymm halves (PairLanes64)
  X86_64_V4, ///< -march=x86-64-v4: AVX-512, W=8 in one zmm
};

/// The widest batch build this host's CPU runs, decided once by
/// __builtin_cpu_supports on first call. Always LaneTarget::Build when
/// the library was built without the per-ISA objects (non-x86-64
/// targets, older compilers).
LaneTarget lane_target();

/// Name of the ISA the dispatched batch engine runs on this host:
/// "avx512" or "avx2" when lane_target() picked a per-ISA build,
/// compiled_lane_isa() otherwise. Reported by benches so gate floors
/// can be ISA-aware.
const char* lane_isa();

/// Default lockstep batch width -- what FleetConfig::batch_width = 0
/// resolves to. W=8 wherever the lane vector is a native vector type:
/// one zmm on AVX-512, two independently allocated ymm halves on plain
/// AVX2 (detail::PairLanes64), SSE2 pairs on a baseline x86-64 build,
/// NEON pairs on aarch64. The batched front wins on every one of them
/// (perfbench fleet_bulk, 4-vCPU AVX-512 host, default flags: scalar
/// 2.3-3.2 M samples/s; W=8 on SSE2 lanes 3.6 M; W=8 on the dispatched
/// AVX-512 lanes 5.8-6.9 M). Only the plain-array fallback of non-GNU
/// compilers stays scalar.
constexpr std::size_t default_batch_width() { return ICGKIT_LANEVEC_NATIVE ? 8 : 1; }

} // namespace icgkit::dsp
