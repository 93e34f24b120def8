// Chunked feed of the online QRS detector through its one feed path
// (front_chunk, replay_decision_tail, finish), shared by the detector
// tests.
#pragma once

#include "ecg/pan_tompkins.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::test_support {

/// Feeds `x` to `det` in chunks of `chunk` samples, then finishes the
/// stream; returns every confirmed R peak, the finish flush included.
template <typename B>
std::vector<std::size_t> detect_chunked(ecg::BasicOnlinePanTompkins<B>& det,
                                        std::span<const typename B::sample_t> x,
                                        std::size_t chunk) {
  std::vector<typename B::sample_t> feat;
  std::vector<std::uint32_t> cum;
  std::vector<std::size_t> peaks;
  for (std::size_t i = 0; i < x.size(); i += chunk) {
    const auto part = x.subspan(i, std::min(chunk, x.size() - i));
    feat.clear();
    cum.clear();
    det.front_chunk(part, feat, cum);
    ecg::replay_decision_tail(det.decision_tail(), part, 0, part.size(), feat, cum, peaks);
  }
  feat.clear();
  det.finish(feat, &peaks);
  return peaks;
}

} // namespace icgkit::test_support
