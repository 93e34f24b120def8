#include "workload.h"

#include "layers.h"

namespace pb {

using namespace icgkit;

SessionMix::SessionMix(std::uint64_t seed, Result& res)
    : pool_(make_inputs(kPool, kDurationS, Tier::Moderate, seed)) {
  std::size_t worst = 0;
  double worst_sens = 1.0, worst_ppv = 1.0;
  for (std::size_t p = 0; p < kPool; ++p) {
    const Input& in = pool_[p];
    const DirectFeed feed = direct_feed<core::StreamingBeatPipeline>(in, kChunk);
    MixRef ref;
    ref.bytes = serialize(feed.beats);
    ref.emitted_by = feed.emitted_by;
    std::vector<std::pair<std::size_t, double>> rr;
    for (std::size_t k = 0; k < feed.beats.size(); ++k) {
      const core::BeatRecord& b = feed.beats[k];
      const std::size_t end =
          std::min<std::size_t>((static_cast<std::size_t>(feed.emitted_by[k]) + 1) * kChunk,
                                in.samples());
      ref.lag_ms.push_back(static_cast<double>(end - b.points.r) / in.rec.fs * 1e3);
      rr.emplace_back(b.points.r, b.rr_s);
    }
    refs_.push_back(std::move(ref));
    const RScore s = score_r_peaks(in, rr);
    if (s.sensitivity() < worst_sens || s.ppv() < worst_ppv) worst = p;
    worst_sens = std::min(worst_sens, s.sensitivity());
    worst_ppv = std::min(worst_ppv, s.ppv());
  }
  note("input: " + std::to_string(kSessions) + " sessions over " + std::to_string(kPool) +
       " distinct " + fmt(kDurationS, 0) + " s moderate-tier recordings, chunk " +
       std::to_string(kChunk) + ", " + std::to_string(kWorkers) + " workers");
  note("truth: worst pool recording (#" + std::to_string(worst) + ") sensitivity " +
       fmt(worst_sens) + " ppv " + fmt(worst_ppv));
  if (worst_sens < kTruthFloor || worst_ppv < kTruthFloor)
    res.fail("R-peak sensitivity/PPV below the floor");
}

void add_engine_layers(const SessionMix& mix, Result& res) {
  std::vector<const Input*> eight;
  for (std::size_t p = 0; p < 8; ++p) eight.push_back(&mix.pool()[p]);
  const EngineLayers L = measure_engine_layers<dsp::DoubleBackend>(eight, kChunk, 3);
  const double batch_ns = measure_batch8(eight, kChunk, 3);
  const CodecCosts codec = measure_codec(mix.pool()[0], kChunk, 5);
  if (!codec.round_trip_ok) res.fail("wire codec round trip changed the samples");
  const CapiLayers capi = measure_capi(eight, 2, res);
  res.add("dsp.ecg_clean_ns_per_sample", L.ecg_clean_ns, "ns");
  res.add("dsp.icg_condition_ns_per_sample", L.icg_condition_ns, "ns");
  res.add("ecg.qrs_front_ns_per_sample", L.qrs_front_ns, "ns");
  res.add("core.delineate_us_per_beat", L.delineate_us, "us");
  res.add("core.quality_us_per_beat", L.quality_us, "us");
  res.add("core.hemodynamics_us_per_beat", L.hemodynamics_us, "us");
  res.add("core.pipeline_ns_per_sample", L.pipeline_ns, "ns");
  res.add("core.glue_ns_per_sample", L.glue_ns, "ns");
  res.add("core.batch_ns_per_lane_sample", batch_ns, "ns");
  res.add("capi.push_ns_per_sample", capi.push_ns, "ns");
  res.add("capi.poll_ns_per_beat", capi.poll_ns, "ns");
  res.add("capi.overhead_ns_per_sample", capi.overhead_ns, "ns");
  res.add("net.encode_ns_per_chunk", codec.encode_ns, "ns");
  res.add("net.decode_ns_per_chunk", codec.decode_ns, "ns");
  const double tail_ns =
      (L.delineate_us + L.quality_us + L.hemodynamics_us) * 1e3 * L.beats_per_sample;
  note("layers: engine " + fmt(L.pipeline_ns, 1) + " ns/sample = front " +
       fmt(L.ecg_clean_ns + L.icg_condition_ns + L.qrs_front_ns, 1) + " + tail " +
       fmt(tail_ns, 1) + " + glue " + fmt(L.glue_ns, 1) + "; batch<8> " + fmt(batch_ns, 1) +
       " ns/lane-sample");
  if (L.tail_mismatches != 0)
    note("tail: " + std::to_string(L.tail_mismatches) +
         " standalone delineations differ from the engine's");
}

} // namespace pb
