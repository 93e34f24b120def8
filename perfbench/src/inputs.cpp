#include "inputs.h"

#include "core/beat_serializer.h"
#include "synth/subject.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace pb {

using namespace icgkit;

std::vector<Input> make_inputs(std::size_t count, double duration_s, Tier tier,
                               std::uint64_t seed, bool one_subject) {
  const std::vector<synth::SubjectProfile> roster = synth::paper_roster();
  const synth::ScenarioSpec spec =
      tier == Tier::Severe ? synth::ScenarioSpec::severe() : synth::ScenarioSpec::moderate();
  std::vector<Input> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const synth::SubjectProfile& subject = roster[one_subject ? 0 : i % roster.size()];
    synth::RecordingConfig cfg;
    cfg.duration_s = duration_s;
    cfg.session_seed = seed * 1000 + i;
    const synth::SourceActivity src = synth::generate_source(subject, cfg);
    out[i].rec = synth::measure_thoracic(subject, src, 50e3);
    out[i].report = synth::apply_scenario(out[i].rec, spec, seed * 7919 + i);
  }
  return out;
}

namespace {
constexpr double kMatchToleranceS = 0.100;
constexpr double kGapGraceS = 0.5;

bool near_gap(double t_s, double fs, const synth::ScenarioReport& report) {
  const auto lo = static_cast<std::size_t>(std::max(0.0, t_s - kGapGraceS) * fs);
  const auto hi = static_cast<std::size_t>(std::max(0.0, t_s) * fs) + 1;
  return report.in_dropout(lo, hi);
}
} // namespace

double RScore::sensitivity() const {
  return observable > 0 ? static_cast<double>(matched) / static_cast<double>(observable) : 0.0;
}
double RScore::ppv() const {
  const std::size_t det = matched + false_pos;
  return det > 0 ? static_cast<double>(matched) / static_cast<double>(det) : 0.0;
}

RScore score_r_peaks(const Input& in,
                     const std::vector<std::pair<std::size_t, double>>& beats) {
  const double fs = in.rec.fs;
  std::vector<std::size_t> detected;
  detected.reserve(2 * beats.size());
  for (const auto& [r, rr_s] : beats) {
    detected.push_back(r);
    detected.push_back(r + static_cast<std::size_t>(std::lround(rr_s * fs)));
  }
  std::sort(detected.begin(), detected.end());
  detected.erase(std::unique(detected.begin(), detected.end()), detected.end());

  const auto tol = static_cast<std::size_t>(kMatchToleranceS * fs);
  std::vector<bool> used(detected.size(), false);
  RScore s;
  for (const synth::BeatTruth& truth : in.rec.beats) {
    if (near_gap(truth.r_time_s, fs, in.report)) continue;
    ++s.observable;
    const auto want = static_cast<std::size_t>(std::lround(truth.r_time_s * fs));
    // Nearest unused detection within tolerance; `detected` is sorted.
    auto it = std::lower_bound(detected.begin(), detected.end(), want > tol ? want - tol : 0);
    std::size_t best = detected.size(), best_dist = tol + 1;
    for (; it != detected.end() && *it <= want + tol; ++it) {
      const auto d = static_cast<std::size_t>(it - detected.begin());
      const std::size_t dist = *it > want ? *it - want : want - *it;
      if (!used[d] && dist < best_dist) {
        best = d;
        best_dist = dist;
      }
    }
    if (best < detected.size()) {
      used[best] = true;
      ++s.matched;
    }
  }
  for (std::size_t d = 0; d < detected.size(); ++d)
    if (!used[d] && !near_gap(static_cast<double>(detected[d]) / fs, fs, in.report))
      ++s.false_pos;
  return s;
}

std::size_t beat_bytes() {
  static const std::size_t n = [] {
    std::vector<unsigned char> v;
    core::serialize_beat(core::BeatRecord{}, v);
    return v.size();
  }();
  return n;
}

std::vector<unsigned char> serialize(const std::vector<core::BeatRecord>& beats) {
  std::vector<unsigned char> out;
  out.reserve(beats.size() * beat_bytes());
  for (const core::BeatRecord& b : beats) core::serialize_beat(b, out);
  return out;
}

bool same_beat(const core::BeatRecord& b, const std::vector<unsigned char>& ref,
               std::size_t k, std::vector<unsigned char>& scratch) {
  const std::size_t n = beat_bytes();
  if ((k + 1) * n > ref.size()) return false;
  scratch.clear();
  core::serialize_beat(b, scratch);
  return std::memcmp(scratch.data(), ref.data() + k * n, n) == 0;
}

} // namespace pb
