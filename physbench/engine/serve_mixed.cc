// serve_mixed: physnet_proxy in front of two physnet_serve workers (one
// eval thread each), driven by an open-loop Poisson generator in this
// process. Hot requests replay a working set that stays resident in the
// fleet's caches; cold requests are never repeated.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/sweep.h"
#include "layers.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/result_cache.h"
#include "service/socket.h"
#include "topology/generators/families.h"
#include "twin/design_codec.h"
#include "twin/serialize.h"
#include "workloads.h"

namespace physbench {

namespace {

// ---- fixed load shape ------------------------------------------------------

// Payloads from ~20 KB (vl2/16) to ~0.85 MB (fat_tree/16), in rising size.
constexpr struct {
  const char* family;
  int size;
} kPool[] = {
    {"vl2", 16},          {"flattened_butterfly", 4}, {"leaf_spine", 16},
    {"dragonfly", 4},     {"slim_fly", 5},            {"dragonfly", 8},
    {"jupiter_direct", 4}, {"jellyfish", 64},         {"fat_tree", 8},
    {"jupiter_fat_tree", 8}, {"jellyfish", 128},      {"fat_tree", 12},
    {"fat_tree", 16},
};
// The traffic shape is the repository's own proxied load leg,
// scripts/serve_load_smoke.sh: physnet_load --qps=150 --connections=4
// --hot-fraction=0.9 --hot-variants=8 through a proxy over two workers.
constexpr double kNominalQps = 150.0;  // --qps
constexpr double kHotShare = 0.9;      // --hot-fraction
constexpr std::size_t kHotVariants = 8;  // --hot-variants, spread over kPool
// Rising rate ladder probed for capacity: one to eight times the nominal
// rate. Capacity on a 4-vCPU VM measured 390-850 req/s, inside the ladder.
constexpr double kLadderQps[] = {150, 300, 450, 600, 750, 900, 1050, 1200};
// Fixed all-request latency limit a ladder rate must meet at its p99.
constexpr double kLimitMs = 200.0;
constexpr double kWarmLoadS = 3.0;       // untimed load before timing
constexpr double kNominalShare = 0.45;    // of the run spent at nominal
constexpr double kColdSampleRate = 0.05;  // cold responses checked locally
constexpr int kStallMs = 30'000;          // no response for this long: error

// ---- fleet -----------------------------------------------------------------

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void on_interrupt(int) { g_interrupted = 1; }

class fleet {
 public:
  explicit fleet(std::string bin_dir) : bin_dir_(std::move(bin_dir)) {}
  ~fleet() { stop(); }
  fleet(const fleet&) = delete;
  fleet& operator=(const fleet&) = delete;

  static constexpr const char* kProxy = "unix:px.sock";
  static constexpr const char* kWorkers[] = {"unix:w0.sock", "unix:w1.sock"};

  void start() {
    for (const char* w : kWorkers) {
      spawn({bin_dir_ + "/physnet_serve", std::string("--listen=") + w,
             "--eval-threads=1", "--quiet"});
    }
    std::vector<std::string> px = {bin_dir_ + "/physnet_proxy",
                                   std::string("--listen=") + kProxy,
                                   "--quiet"};
    for (const char* w : kWorkers) px.push_back(std::string("--worker=") + w);
    spawn(px);
  }

  // True once every worker and the proxy answer ping.
  [[nodiscard]] bool wait_ready(double timeout_ms) const {
    const std::int64_t t0 = now_ns();
    std::vector<std::string> eps(std::begin(kWorkers), std::end(kWorkers));
    eps.push_back(kProxy);
    for (const std::string& ep : eps) {
      while (true) {
        auto c = pn::eval_client::connect(ep);
        if (c.is_ok() && c.value().ping().is_ok()) break;
        if (ms_since(t0) > timeout_ms || g_interrupted) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    return true;
  }

  [[nodiscard]] double peak_rss_mb_sum() const {
    double sum = 0.0;
    for (const pid_t p : pids_) sum += peak_rss_mb(p);
    return sum;
  }

  // SIGTERM (clean drain), then SIGKILL whatever is left after 5 s.
  void stop() {
    for (const pid_t p : pids_) ::kill(p, SIGTERM);
    const std::int64_t t0 = now_ns();
    for (const pid_t p : pids_) {
      while (::waitpid(p, nullptr, WNOHANG) == 0) {
        if (ms_since(t0) > 5'000.0) {
          ::kill(p, SIGKILL);
          ::waitpid(p, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    pids_.clear();
  }

 private:
  void spawn(const std::vector<std::string>& argv) {
    std::vector<char*> args;
    for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Die with the engine, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    if (pid > 0) pids_.push_back(pid);
  }

  std::string bin_dir_;
  std::vector<pid_t> pids_;
};

// ---- payloads --------------------------------------------------------------

struct workload_data {
  std::vector<std::string> labels;  // per pool design
  std::vector<std::string> twins;   // serialize_twin text per pool design
  std::vector<pn::eval_request> hot;
  std::vector<std::string> hot_payloads;
  std::uint64_t cold_seed_base = 0;
};

pn::eval_request make_request(const workload_data& w, std::size_t design,
                              std::uint64_t wire_seed) {
  pn::eval_request req;
  req.name = w.labels[design];
  req.options.seed = wire_seed;
  req.design_twin = w.twins[design];
  return req;
}

workload_data make_payloads(std::uint64_t seed) {
  workload_data w;
  std::size_t i = 0;
  for (const auto& p : kPool) {
    auto g = pn::build_family(p.family, p.size, pn::sweep_point_seed(seed, i));
    w.labels.push_back(std::string(p.family) + "/" + std::to_string(p.size));
    w.twins.push_back(g.is_ok() ? pn::serialize_twin(pn::design_to_twin(g.value()))
                                : std::string());
    ++i;
  }
  // Hot variants are spread evenly over the pool, smallest and largest
  // payload included.
  const std::size_t last = std::size(kPool) - 1;
  for (std::size_t v = 0; v < kHotVariants; ++v) {
    const std::size_t d = (v * last + (kHotVariants - 1) / 2) / (kHotVariants - 1);
    w.hot.push_back(make_request(w, d, pn::sweep_point_seed(seed ^ 0x4807, v)));
    w.hot_payloads.push_back(pn::encode_eval_request(w.hot.back()));
  }
  // Cold wire seeds count up from here, so no two cold requests share a
  // cache key within a run.
  w.cold_seed_base = (seed % 1'000'000) * 1'000'000'000ULL + 1'000'000'000ULL;
  return w;
}

// ---- open-loop generator ---------------------------------------------------

struct planned {
  std::int64_t at_ns = 0;  // scheduled send, relative to phase start
  bool hot = false;
  std::uint32_t index = 0;  // hot-set index, or pool design for cold
  std::uint64_t wire_seed = 0;
  bool sample = false;      // cold response kept for the local check
};

struct cold_sample {
  std::uint32_t design;
  std::uint64_t wire_seed;
  std::string response;
};

struct phase_result {
  std::vector<double> all_ms, hot_ms, cold_ms, late_ms;
  std::vector<double> first_quarter_ms, last_quarter_ms;
  std::size_t attempted = 0, failed = 0;
};

struct checks {
  std::mutex mu;
  std::vector<std::string> hot_first;  // first ok response per hot key
  std::vector<cold_sample> cold;
  std::size_t hot_mismatches = 0;
};

std::string ok_prefix() {
  const std::string r = pn::encode_eval_response(pn::deployability_report{}, 0);
  return r.substr(0, r.find('\n') + 1);
}

phase_result run_phase(const workload_data& w, double qps, double seconds,
                       pn::rng& r, std::uint64_t& cold_counter, checks& chk) {
  // The whole schedule is fixed before the first send.
  std::vector<planned> plan;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - r.next_double()) / qps;
    if (t >= seconds) break;
    planned p;
    p.at_ns = static_cast<std::int64_t>(t * 1e9);
    p.hot = r.next_bool(kHotShare);
    if (p.hot) {
      p.index = static_cast<std::uint32_t>(r.next_index(w.hot.size()));
    } else {
      p.index = static_cast<std::uint32_t>(r.next_index(w.twins.size()));
      p.wire_seed = w.cold_seed_base + cold_counter++;
      p.sample = r.next_bool(kColdSampleRate);
    }
    plan.push_back(p);
  }
  const int conns = bench_threads();
  std::vector<double> latency(plan.size(), -1.0);
  std::vector<double> late(plan.size(), 0.0);
  std::vector<char> failed(plan.size(), 0);
  const std::string prefix = ok_prefix();
  const auto ep = pn::parse_endpoint(fleet::kProxy);

  std::vector<std::thread> threads;
  const std::int64_t start = now_ns() + 20'000'000;  // 20 ms to connect
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::size_t> mine;
      for (std::size_t i = static_cast<std::size_t>(c); i < plan.size();
           i += static_cast<std::size_t>(conns)) {
        mine.push_back(i);
      }
      auto fd = pn::connect_to(ep.value());
      if (!fd.is_ok()) {
        for (const std::size_t i : mine) failed[i] = 1;
        return;
      }
      const int sock = fd.value().get();
      std::thread receiver([&] {
        for (std::size_t k = 0; k < mine.size(); ++k) {
          auto frame = pn::read_frame(sock, pn::default_max_frame_payload,
                                      nullptr, kStallMs);
          if (!frame.is_ok() || !frame.value().has_value()) {
            for (std::size_t j = k; j < mine.size(); ++j) failed[mine[j]] = 1;
            return;
          }
          const std::size_t i = mine[k];
          const std::string& resp = *frame.value();
          latency[i] = static_cast<double>(now_ns() - start - plan[i].at_ns) / 1e6;
          if (resp.rfind(prefix, 0) != 0) {  // error, refusal included
            failed[i] = 1;
            continue;
          }
          const planned& p = plan[i];
          if (p.hot) {
            std::lock_guard<std::mutex> lock(chk.mu);
            std::string& first = chk.hot_first[p.index];
            if (first.empty()) first = resp;
            else if (first != resp) ++chk.hot_mismatches;
          } else if (p.sample) {
            std::lock_guard<std::mutex> lock(chk.mu);
            chk.cold.push_back(cold_sample{p.index, p.wire_seed, resp});
          }
        }
      });
      for (const std::size_t i : mine) {
        const planned& p = plan[i];
        const std::int64_t due = start + p.at_ns;
        while (now_ns() < due) {
          const std::int64_t left = due - now_ns();
          if (left > 200'000) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
          }
        }
        late[i] = static_cast<double>(now_ns() - due) / 1e6;
        const std::string cold_payload =
            p.hot ? std::string()
                  : pn::encode_eval_request(make_request(w, p.index, p.wire_seed));
        const std::string& payload = p.hot ? w.hot_payloads[p.index] : cold_payload;
        if (!pn::write_frame(sock, payload).is_ok()) {
          // Unblock the receiver; everything unsent fails.
          ::shutdown(sock, SHUT_RDWR);
          break;
        }
      }
      receiver.join();
    });
  }
  for (std::thread& th : threads) th.join();

  phase_result out;
  const std::int64_t q1 = static_cast<std::int64_t>(seconds * 0.25e9);
  const std::int64_t q3 = static_cast<std::int64_t>(seconds * 0.75e9);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    ++out.attempted;
    if (failed[i] != 0 || latency[i] < 0.0) {
      ++out.failed;
      continue;
    }
    out.all_ms.push_back(latency[i]);
    (plan[i].hot ? out.hot_ms : out.cold_ms).push_back(latency[i]);
    out.late_ms.push_back(late[i]);
    if (plan[i].at_ns < q1) out.first_quarter_ms.push_back(latency[i]);
    if (plan[i].at_ns >= q3) out.last_quarter_ms.push_back(latency[i]);
  }
  return out;
}

// ---- checks ----------------------------------------------------------------

// What the fleet must have answered: a local evaluate_design of the
// decoded request, encoded exactly as a worker encodes it.
std::optional<std::string> local_response(const pn::eval_request& req) {
  pn::evaluation_options base;
  auto opt = req.options.apply_to(base);
  if (!opt.is_ok()) return std::nullopt;
  auto twin = pn::parse_twin(req.design_twin);
  if (!twin.is_ok()) return std::nullopt;
  auto g = pn::design_from_twin(twin.value());
  if (!g.is_ok()) return std::nullopt;
  auto ev = pn::evaluate_design(g.value(), req.name, opt.value());
  if (!ev.is_ok()) return std::nullopt;
  return pn::encode_eval_response(ev.value().report, req.options.seed);
}

void verify(const workload_data& w, checks& chk, raw_results& out) {
  if (chk.hot_mismatches > 0) {
    out.mismatch(std::to_string(chk.hot_mismatches) +
                 " hot responses differ from the first answer for their key");
  }
  std::size_t hot_checked = 0;
  for (std::size_t h = 0; h < w.hot.size(); ++h) {
    if (chk.hot_first[h].empty()) continue;
    ++hot_checked;
    if (local_response(w.hot[h]) != chk.hot_first[h]) {
      out.mismatch("hot " + w.hot[h].name + ": served report differs from "
                   "local evaluate_design");
    }
  }
  for (const cold_sample& s : chk.cold) {
    if (local_response(make_request(w, s.design, s.wire_seed)) != s.response) {
      out.mismatch("cold " + w.labels[s.design] + ": served report differs "
                   "from local evaluate_design");
    }
  }
  out.add("checked.hot", static_cast<double>(hot_checked));
  out.add("checked.cold", static_cast<double>(chk.cold.size()));
}

// Sends every hot request once, in order, so the working set is resident
// before timing starts.
bool warm_hot_set(const workload_data& w) {
  auto c = pn::eval_client::connect(fleet::kProxy);
  if (!c.is_ok()) return false;
  for (std::size_t h = 0; h < w.hot.size(); ++h) {
    auto rep = c.value().evaluate(w.hot[h]);
    if (!rep.is_ok()) return false;
  }
  return true;
}

// Sums the workers' counters and count-weighted means from their own
// stats responses (the proxy's aggregate carries counters only).
void read_worker_stats(raw_results& out) {
  double hits = 0, misses = 0, coalesced = 0, rejected = 0;
  double qw_n = 0, qw_sum = 0, bs_n = 0, bs_sum = 0;
  for (const char* ep : fleet::kWorkers) {
    auto c = pn::eval_client::connect(ep);
    if (!c.is_ok()) continue;
    auto st = c.value().stats();
    if (!st.is_ok()) continue;
    auto num = [&](const char* key) {
      const std::string* v = pn::stats_get(st.value(), key);
      return v != nullptr ? std::strtod(v->c_str(), nullptr) : 0.0;
    };
    hits += num("cache.hits");
    misses += num("cache.misses");
    coalesced += num("eval.coalesced");
    rejected += num("requests.rejected_overloaded") +
                num("requests.rejected_shutting_down");
    qw_n += num("latency.queue_wait_ms.count");
    qw_sum += num("latency.queue_wait_ms.count") * num("latency.queue_wait_ms.mean");
    bs_n += num("batch.size.count");
    bs_sum += num("batch.size.count") * num("batch.size.mean");
  }
  out.set("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  out.set("serve.queue_wait_ms.mean", qw_n > 0 ? qw_sum / qw_n : 0.0);
  out.set("serve.batch_size.mean", bs_n > 0 ? bs_sum / bs_n : 0.0);
  out.set("serve.coalesced", coalesced);
  out.set("serve.rejected", rejected);
}

void record_phase(const phase_result& p, const std::string& prefix,
                  raw_results& out) {
  for (const double v : p.all_ms) out.push(prefix + "all_ms", v);
  for (const double v : p.hot_ms) out.push(prefix + "hot_ms", v);
  for (const double v : p.cold_ms) out.push(prefix + "cold_ms", v);
  for (const double v : p.late_ms) out.push(prefix + "late_ms", v);
}

struct fleet_session {
  workload_data data;
  std::unique_ptr<fleet> f;
  checks chk;
};

// Payload generation, fleet start until ping, hot-set warm. Payloads and
// the fleet are set up `repeats` times (torn down in between); the set-up
// time is each part's median plus the warm. The settle load that follows
// is fixed in length and not timed.
bool set_up(const run_args& a, int repeats, fleet_session& s,
            raw_results& out) {
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
  std::vector<double> gen_s, start_s;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t t0 = now_ns();
    s.data = make_payloads(a.seed);
    gen_s.push_back(ms_since(t0) / 1e3);
    if (s.f) s.f->stop();
    s.f = std::make_unique<fleet>(a.bin_dir);
    const std::int64_t t1 = now_ns();
    s.f->start();
    if (!s.f->wait_ready(10'000.0)) {
      out.mismatch("fleet did not answer ping within 10 s");
      return false;
    }
    start_s.push_back(ms_since(t1) / 1e3);
  }
  for (const std::string& twin : s.data.twins) {
    if (twin.empty()) out.mismatch("a serve pool design failed to build");
  }
  s.chk.hot_first.assign(s.data.hot.size(), std::string());
  const std::int64_t t2 = now_ns();
  if (!warm_hot_set(s.data)) {
    out.mismatch("hot-set warm-up failed");
    return false;
  }
  const double warm_s = ms_since(t2) / 1e3;
  // A short untimed load at the nominal rate settles the fleet (lazy
  // backend connections, allocator growth) before anything is timed.
  pn::rng warm_rng(a.seed ^ 0x5741524dULL);
  std::uint64_t warm_counter = 1'000'000;
  checks warm_chk;
  warm_chk.hot_first.assign(s.data.hot.size(), std::string());
  (void)run_phase(s.data, kNominalQps, kWarmLoadS, warm_rng, warm_counter,
                  warm_chk);
  std::sort(gen_s.begin(), gen_s.end());
  std::sort(start_s.begin(), start_s.end());
  out.push("setup_s", gen_s[gen_s.size() / 2] + start_s[start_s.size() / 2] +
                          warm_s);
  return true;
}

// One pass of the worker's request path over `payloads`: parse, canonical
// key, cache probe, twin decode, evaluation, response encode. With a
// tracer, each step is a span under a "service.request" root. Returns the
// next free span id.
std::uint64_t replay_payloads(const std::vector<std::string>& payloads,
                              pn::result_cache& cache, tracer* tr,
                              std::uint64_t op, raw_results& out) {
  const pn::evaluation_options base;
  for (const std::string& payload : payloads) {
    auto root = maybe_open(tr, "service.request", op);
    std::optional<pn::parsed_request> parsed;
    {
      auto s = maybe_open(tr, "service.parse", op);
      auto p = pn::parse_request(payload);
      if (p.is_ok()) parsed.emplace(std::move(p).value());
    }
    if (!parsed.has_value()) {
      out.mismatch("a generated payload does not parse");
      return op + 1;
    }
    const pn::eval_request& req = parsed->eval;
    std::optional<pn::cache_key> key;
    {
      auto s = maybe_open(tr, "service.canon_key", op);
      key.emplace(pn::cache_key_of(pn::encode_eval_request(req)));
    }
    {
      auto s = maybe_open(tr, "service.cache_lookup", op);
      (void)cache.lookup(*key);
    }
    std::optional<pn::network_graph> g;
    {
      auto s = maybe_open(tr, "twin.decode", op);
      auto twin = pn::parse_twin(req.design_twin);
      if (twin.is_ok()) {
        auto decoded = pn::design_from_twin(twin.value());
        if (decoded.is_ok()) g.emplace(std::move(decoded).value());
      }
    }
    auto opt = req.options.apply_to(base);
    if (!g.has_value() || !opt.is_ok()) {
      out.mismatch("a generated payload does not decode");
      return op + 1;
    }
    std::optional<pn::deployability_report> report;
    {
      auto s = maybe_open(tr, "core.evaluate_design", op);
      auto ev = pn::evaluate_design(*g, req.name, opt.value());
      if (ev.is_ok()) report.emplace(ev.value().report);
    }
    if (!report.has_value()) {
      out.mismatch(req.name + ": local evaluation failed");
      return op + 1;
    }
    {
      auto s = maybe_open(tr, "service.response_encode", op);
      (void)pn::encode_eval_response(*report, req.options.seed);
    }
    ++op;
  }
  return op;
}

}  // namespace

void serve_mixed(const run_args& a, raw_results& out) {
  fleet_session s;
  if (!set_up(a, 3, s, out)) return;
  pn::rng r(a.seed);
  std::uint64_t cold_counter = 0;
  out.set("nominal_qps", kNominalQps);
  out.set("limit_ms", kLimitMs);
  // Nominal-rate windows alternate with the rising ladder steps, so both
  // sample the whole run rather than one stretch of it.
  const double budget = std::max(1.0, a.seconds);
  const double steps = static_cast<double>(std::size(kLadderQps));
  const double window_s = budget * kNominalShare / steps;
  const double step_s = budget * (1.0 - kNominalShare) / steps;
  for (const double qps : kLadderQps) {
    if (g_interrupted) break;
    const phase_result nominal =
        run_phase(s.data, kNominalQps, window_s, r, cold_counter, s.chk);
    record_phase(nominal, "", out);
    for (const double v : nominal.all_ms) out.push("op_ms", v);
    out.add("attempted", static_cast<double>(nominal.attempted));
    out.add("failed", static_cast<double>(nominal.failed));

    const phase_result step =
        run_phase(s.data, qps, step_s, r, cold_counter, s.chk);
    const std::string k = "ladder." + std::to_string(static_cast<int>(qps)) + ".";
    out.push("ladder.qps", qps);
    out.push("ladder.attempted", static_cast<double>(step.attempted));
    out.push("ladder.failed", static_cast<double>(step.failed));
    record_phase(step, k, out);
    for (const double v : step.first_quarter_ms) out.push(k + "q1_ms", v);
    for (const double v : step.last_quarter_ms) out.push(k + "q4_ms", v);
  }
  out.set("peak_rss_mb", s.f->peak_rss_mb_sum());
  read_worker_stats(out);
  s.f->stop();
  if (g_interrupted) {
    out.mismatch("interrupted");
    return;
  }
  verify(s.data, s.chk, out);
}

void serve_mixed_traced(const run_args& a, double seconds, raw_results& out,
                        tracer& tr) {
  fleet_session s;
  if (!set_up(a, 1, s, out)) return;

  // Proxy hop: the median round trip of a cached request through the
  // proxy minus the same request sent straight to a worker that holds it
  // (a ping would not measure the hop: the proxy answers ping itself).
  const pn::eval_request& smallest = s.data.hot.front();
  auto median_rtt = [&](const char* ep) {
    std::vector<double> v;
    auto c = pn::eval_client::connect(ep);
    for (int i = 0; i < 201 && c.is_ok(); ++i) {
      const std::int64_t t0 = now_ns();
      if (!c.value().evaluate(smallest).is_ok()) break;
      if (i > 0) v.push_back(ms_since(t0));  // the first call warms the cache
    }
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  const double direct = median_rtt(fleet::kWorkers[0]);
  out.set("proxy.hop_ms", median_rtt(fleet::kProxy) - direct);

  // Local replay of the workload's own payloads through the service's
  // request path, alternately untraced and traced.
  std::vector<pn::eval_request> reqs = s.data.hot;
  for (std::size_t d = 0; d < s.data.twins.size(); ++d) {
    reqs.push_back(
        make_request(s.data, d, s.data.cold_seed_base + 900'000'000 + d));
  }
  std::vector<std::string> payloads;
  for (const pn::eval_request& q : reqs) {
    payloads.push_back(pn::encode_eval_request(q));
  }
  pn::result_cache cache(256);
  for (const pn::eval_request& q : s.data.hot) {
    const pn::cache_key key = pn::cache_key_of(pn::encode_eval_request(q));
    cache.insert(key, "cached", cache.lookup(key).epoch);
  }
  std::uint64_t op = 0;
  const std::int64_t start = now_ns();
  std::size_t pass = 0;
  do {
    for (const bool traced : {pass % 2 == 1, pass % 2 == 0}) {
      const std::int64_t t0 = now_ns();
      if (traced) {
        op = replay_payloads(payloads, cache, &tr, op, out);
        out.add("serve_mixed.traced_ms", ms_since(t0));
      } else {
        (void)replay_payloads(payloads, cache, nullptr, op, out);
        out.add("serve_mixed.untraced_ms", ms_since(t0));
      }
    }
    ++pass;
    out.add("serve_mixed.evals", static_cast<double>(payloads.size()));
  } while (ms_since(start) < seconds * 0.5e3);
  out.add("layer_calls.serve_mixed", static_cast<double>(op));

  // The served side at the nominal rate: latency to reconcile against,
  // plus the workers' own counters.
  pn::rng r(a.seed);
  std::uint64_t cold_counter = 0;
  const phase_result nominal = run_phase(
      s.data, kNominalQps, std::max(1.0, seconds * 0.4), r, cold_counter,
      s.chk);
  record_phase(nominal, "", out);
  out.add("attempted", static_cast<double>(nominal.attempted));
  out.add("failed", static_cast<double>(nominal.failed));
  read_worker_stats(out);
  s.f->stop();
  if (g_interrupted) {
    out.mismatch("interrupted");
    return;
  }
  verify(s.data, s.chk, out);
}

}  // namespace physbench
