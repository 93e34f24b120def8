#include "common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void note(const std::string& line) { std::cout << line << '\n'; }

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

void Result::fail(const std::string& why) {
  correct = false;
  note("CHECK FAILED: " + why);
}

void Result::fail_op(const std::string& why) {
  if (failed++ < 8) note("operation failed: " + why);
}

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::CapiPush: return "capi.push";
    case SpanKind::CapiPoll: return "capi.poll";
    case SpanKind::CapiFinish: return "capi.finish";
    case SpanKind::FleetTryPush: return "fleet.try_push";
    case SpanKind::FleetPoll: return "fleet.poll";
    case SpanKind::NetSend: return "net.send";
    case SpanKind::NetPoll: return "net.poll";
    case SpanKind::NetWait: return "net.wait";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) {
    note("trace: cannot write " + path);
    return;
  }
  f << "kind,id,start_ns,end_ns\n";
  for (const Span& s : spans_)
    f << span_name(s.kind) << ',' << s.id << ',' << s.t0 << ',' << s.t1 << '\n';
  note("trace: " + std::to_string(spans_.size()) + " spans written to " + path);
}

} // namespace pb
