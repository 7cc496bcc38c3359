#include "bench.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace physbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void raw_results::mismatch(const std::string& what) {
  // Keep the log bounded; the count is what fails the run.
  if (mismatches_.size() < 20) mismatches_.push_back(what);
  else if (mismatches_.size() == 20) mismatches_.push_back("...");
}

void raw_results::write_json(std::ostream& out) const {
  out << "{\"correct\": " << (correct() ? "true" : "false");
  out << ", \"mismatches\": [";
  for (std::size_t i = 0; i < mismatches_.size(); ++i) {
    out << (i ? ", " : "") << json_string(mismatches_[i]);
  }
  out << "], \"scalars\": {";
  bool first = true;
  for (const auto& [k, v] : scalars_) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  out << "}, \"series\": {";
  first = true;
  for (const auto& [k, vs] : series_) {
    out << (first ? "" : ", ") << json_string(k) << ": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      out << (i ? "," : "") << json_number(vs[i]);
    }
    out << "]";
    first = false;
  }
  out << "}, \"notes\": {";
  first = true;
  for (const auto& [k, v] : notes_) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  out << "}}\n";
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_report(const pn::deployability_report& a,
                 const pn::deployability_report& b, std::string* why) {
  auto fail = [&](const char* field) {
    if (why != nullptr) *why = field;
    return false;
  };
#define PB_SAME(f) \
  if (a.f != b.f) return fail(#f)
#define PB_SAME_D(f) \
  if (!same_bits(a.f, b.f)) return fail(#f)
#define PB_SAME_U(f) \
  if (!same_bits(a.f.value(), b.f.value())) return fail(#f)
  PB_SAME(name);
  PB_SAME(family);
  PB_SAME(switches);
  PB_SAME(hosts);
  PB_SAME(links);
  PB_SAME_D(mean_path_length);
  PB_SAME(diameter);
  PB_SAME_D(throughput_alpha_uniform);
  PB_SAME_D(bisection_gbps_per_host);
  PB_SAME_U(switch_cost);
  PB_SAME_U(cable_cost);
  PB_SAME_U(transceiver_cost);
  PB_SAME_U(capex_per_host);
  PB_SAME_U(switch_power);
  PB_SAME_U(cable_power);
  PB_SAME_U(time_to_deploy);
  PB_SAME_U(deploy_labor);
  PB_SAME_D(first_pass_yield);
  PB_SAME_D(bundleability);
  PB_SAME(distinct_bundle_skus);
  PB_SAME_D(optics_fraction);
  PB_SAME_D(mean_cable_length_m);
  PB_SAME_D(p95_cable_length_m);
  PB_SAME_D(max_tray_fill);
  PB_SAME_D(max_plenum_fill);
  PB_SAME_D(availability);
  PB_SAME_U(mean_mttr);
  PB_SAME_D(rewires_per_added_switch);
#undef PB_SAME
#undef PB_SAME_D
#undef PB_SAME_U
  return true;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

tracer::scope tracer::open(const char* name, std::uint64_t op) {
  const std::int64_t parent =
      stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(span{name, parent, op, now_ns(), 0});
  stack_.push_back(spans_.size() - 1);
  return scope(this, spans_.size() - 1);
}

void tracer::close(std::size_t idx) {
  spans_[idx].end = now_ns();
  stack_.pop_back();
}

void tracer::write_tsv(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << workload_ << '\t' << i << '\t' << s.parent << '\t' << s.name
        << '\t' << s.op << '\t' << s.start << '\t' << s.end << '\n';
  }
}

}  // namespace physbench
