// The multi-session mix shared by fleet_bulk and wire_bulk: 120 sessions
// over a pool of 15 distinct 30 s moderately corrupted
// recordings, three per paper roster subject (session i plays recording
// i mod 15, so each recording is shared by 8 sessions), in 64-sample
// chunks, on 2 fleet workers. Each pool recording gets its direct-feed
// reference and truth check before any timed phase.
#pragma once
#include "common.h"
#include "inputs.h"

#include <cstddef>
#include <vector>

namespace pb {

inline constexpr std::size_t kChunk = 64;
inline constexpr std::size_t kWorkers = 2;

/// A pool recording's expected output: the direct StreamingBeatPipeline's
/// canonical beat bytes, the push that emitted each beat, and each
/// beat's signal-time lag (R peak to the end of that push).
struct MixRef {
  std::vector<unsigned char> bytes;
  std::vector<std::uint32_t> emitted_by;
  std::vector<double> lag_ms;
  [[nodiscard]] std::size_t beats() const { return emitted_by.size(); }
};

class SessionMix {
 public:
  static constexpr std::size_t kPool = 15;
  static constexpr std::size_t kSessions = 120;
  static constexpr double kDurationS = 30.0;

  /// Synthesizes the pool from `seed`, builds the references and runs
  /// the truth checks (a miss marks `res` not correct).
  SessionMix(std::uint64_t seed, Result& res);

  [[nodiscard]] std::size_t sessions() const { return kSessions; }
  [[nodiscard]] double fs() const { return pool_[0].rec.fs; }
  [[nodiscard]] const Input& input(std::size_t i) const { return pool_[i % kPool]; }
  [[nodiscard]] const MixRef& ref(std::size_t i) const { return refs_[i % kPool]; }
  [[nodiscard]] std::size_t chunks(std::size_t i) const {
    return (input(i).samples() + kChunk - 1) / kChunk;
  }
  [[nodiscard]] double signal_lag_ms(std::size_t i, std::size_t beat) const {
    return ref(i).lag_ms[beat];
  }
  [[nodiscard]] const std::vector<Input>& pool() const { return pool_; }

 private:
  std::vector<Input> pool_;
  std::vector<MixRef> refs_;
};

/// Standalone layer figures on the mix's pool: the double engine's stages,
/// tail, whole engine and glue, SessionBatch<8> and the wire codec at the
/// mix's chunking, and the Q31 C ABI at the device chunking.
void add_engine_layers(const SessionMix& mix, Result& res);

} // namespace pb
