// Benchmark inputs and the checks made apart from the program: seeded
// corrupted recordings from synth, R-peak scoring against the
// synthesizer's ground truth, and direct in-process reference feeds.
#pragma once
#include "core/pipeline.h"
#include "synth/recording.h"
#include "synth/scenario.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

enum class Tier { Moderate, Severe };

struct Input {
  icgkit::synth::Recording rec;
  icgkit::synth::ScenarioReport report;
  [[nodiscard]] std::size_t samples() const { return rec.ecg_mv.size(); }
};

/// `count` recordings of `duration_s` at 250 Hz. Recording i is paper
/// roster subject i mod roster size (always the first subject when
/// `one_subject`), session seed seed * 1000 + i, corrupted with the
/// tier's preset under scenario seed seed * 7919 + i. Inputs depend on
/// `seed` only.
std::vector<Input> make_inputs(std::size_t count, double duration_s, Tier tier,
                               std::uint64_t seed, bool one_subject = false);

/// Sensitivity/PPV of detected R peaks against BeatTruth within 100 ms;
/// truth beats within a contact gap (plus 0.5 s re-seat grace) are
/// excluded, as are detections there.
struct RScore {
  std::size_t observable = 0, matched = 0, false_pos = 0;
  [[nodiscard]] double sensitivity() const;
  [[nodiscard]] double ppv() const;
};
/// `beats` are (opening R, R-R seconds) pairs; closing Rs count too.
RScore score_r_peaks(const Input& in, const std::vector<std::pair<std::size_t, double>>& beats);

/// Sensitivity and PPV floor on both tiers. The lowest figures over seeds
/// 1-100 were 0.979/0.966 (severe device recording) and 0.931/0.929 (worst
/// moderate pool recording), so a miss means a detector regression.
inline constexpr double kTruthFloor = 0.90;

/// A direct in-process feed: the beats a pipeline emits for `in` cut into
/// `chunk`-sample pushes (the last one short), plus for each beat the
/// index of the push that returned it (== chunk count for finish()).
struct DirectFeed {
  std::vector<icgkit::core::BeatRecord> beats;
  std::vector<std::uint32_t> emitted_by;
  std::size_t chunks = 0;
};
template <typename Pipeline>
DirectFeed direct_feed(const Input& in, std::size_t chunk) {
  Pipeline p(in.rec.fs);
  DirectFeed out;
  const std::size_t n = in.samples();
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    p.push_into(icgkit::dsp::SignalView(in.rec.ecg_mv.data() + i, len),
                icgkit::dsp::SignalView(in.rec.z_ohm.data() + i, len), out.beats);
    out.emitted_by.resize(out.beats.size(), static_cast<std::uint32_t>(out.chunks));
    ++out.chunks;
  }
  p.finish_into(out.beats);
  out.emitted_by.resize(out.beats.size(), static_cast<std::uint32_t>(out.chunks));
  return out;
}

/// The canonical byte form (core::serialize_beat) is this many bytes.
std::size_t beat_bytes();
/// Concatenated canonical bytes of `beats`.
std::vector<unsigned char> serialize(const std::vector<icgkit::core::BeatRecord>& beats);
/// True when `b` serializes to exactly `ref[k * beat_bytes(), ...)`.
/// `scratch` is reused so the check allocates nothing once warm.
bool same_beat(const icgkit::core::BeatRecord& b, const std::vector<unsigned char>& ref,
               std::size_t k, std::vector<unsigned char>& scratch);

} // namespace pb
