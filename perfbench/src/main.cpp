// icgbench — the icgkit end-to-end benchmark program.
//
//   icgbench --workload <device_q31|fleet_bulk|wire_bulk>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Informational lines (host,
// checks, reconciliation) come first; the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include "common.h"

#include "dsp/simd.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct Spec {
  const char* name;
  const char* unit;
};

// Every run reports every metric of its mode; a layer a workload does
// not pass through reads 0 (see README, "Per-layer metrics").
constexpr Spec kEndToEnd[] = {
    {"samples_per_s", "samples/s"},
    {"setup_s", "s"},
    {"beat_lag_p50_ms", "ms"},
    {"mem_kb_per_session", "KiB"},
};

constexpr Spec kPerLayer[] = {
    {"dsp.ecg_clean_ns_per_sample", "ns"},
    {"dsp.icg_condition_ns_per_sample", "ns"},
    {"ecg.qrs_front_ns_per_sample", "ns"},
    {"core.delineate_us_per_beat", "us"},
    {"core.quality_us_per_beat", "us"},
    {"core.hemodynamics_us_per_beat", "us"},
    {"core.pipeline_ns_per_sample", "ns"},
    {"core.glue_ns_per_sample", "ns"},
    {"core.batch_width", "lanes"},
    {"core.batch_ns_per_lane_sample", "ns"},
    {"capi.push_ns_per_sample", "ns"},
    {"capi.poll_ns_per_beat", "ns"},
    {"capi.overhead_ns_per_sample", "ns"},
    {"fleet.try_push_us_per_chunk", "us"},
    {"fleet.push_refusals_per_chunk", "count"},
    {"fleet.poll_us_per_beat", "us"},
    {"fleet.pilot_wait_fraction", "fraction"},
    {"fleet.worker_push_p50_us", "us"},
    {"fleet.worker_chunk_skew", "ratio"},
    {"fleet.queue_depth_mean", "items"},
    {"net.send_us_per_chunk", "us"},
    {"net.poll_us_per_event", "us"},
    {"net.client_wait_fraction", "fraction"},
    {"net.inflight_chunks_mean", "chunks"},
    {"net.up_bytes_per_sample", "B"},
    {"net.down_bytes_per_sample", "B"},
    {"net.encode_ns_per_chunk", "ns"},
    {"net.decode_ns_per_chunk", "ns"},
    {"allocs_per_chunk", "count"},
    {"trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "icgbench: " << why
            << "\nusage: icgbench --workload <device_q31|fleet_bulk|wire_bulk>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]\n";
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = std::stoi(v) != 0;
      } else if (a == "--trace-out") {
        opt.trace_out = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) usage("--seconds must be in (0, 600]");
  return opt;
}

void print_result(const pb::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const pb::Metric& m : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Keeps exactly the mode's metrics, in the canonical order, filling a
/// layer the workload does not exercise with 0.
void normalize(pb::Result& r, bool trace) {
  std::vector<pb::Metric> out;
  const auto emit = [&](const Spec& s) {
    for (const pb::Metric& m : r.metrics)
      if (m.name == s.name) {
        out.push_back({s.name, m.value, s.unit});
        return;
      }
    out.push_back({s.name, 0.0, s.unit});
  };
  if (trace)
    for (const Spec& s : kPerLayer) emit(s);
  else
    for (const Spec& s : kEndToEnd) emit(s);
  r.metrics = std::move(out);
}

} // namespace

int main(int argc, char** argv) {
  const pb::Options opt = parse(argc, argv);
  pb::heap::keep_freed_memory();
  pb::note(std::string("host: {\"nproc\": ") +
           std::to_string(std::thread::hardware_concurrency()) + ", \"lane_isa\": \"" +
           icgkit::dsp::lane_isa() + "\", \"batch_width\": " +
           std::to_string(icgkit::dsp::default_batch_width()) + ", \"compiler\": \"" +
           PERFBENCH_COMPILER + "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE + "\"}");
  pb::note("run: workload=" + opt.workload + " seed=" + std::to_string(opt.seed) +
           " seconds=" + pb::fmt(opt.seconds, 1) + " trace=" + (opt.trace ? "1" : "0"));

  pb::Result r;
  try {
    if (opt.workload == "device_q31") {
      r = pb::run_device(opt);
    } else if (opt.workload == "fleet_bulk") {
      r = pb::run_fleet(opt);
    } else if (opt.workload == "wire_bulk") {
      r = pb::run_wire(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "icgbench: " << e.what() << '\n';
    return 1;
  }
  if (r.attempted == 0) {
    std::cerr << "icgbench: no operation completed\n";
    return 1;
  }
  normalize(r, opt.trace);
  print_result(r);
  return 0;
}
