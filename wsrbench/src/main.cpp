// wsrbench: one process runs one workload for a fixed time and prints one
// JSON result line (README.md in this directory).
//
//   wsrbench --workload NAME --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--store DIR]
//   wsrbench --prepare-store DIR
//
// Host-time metrics come from many identical passes after a warm-up pass:
// each operation's latency is its fastest over the timed passes, pass_s is
// the sum of those (the fastest pass, taken operation by operation) and
// op_p50_ms their median. On a shared host one whole pass swings 20-40%
// from run to run; the fastest time of each operation holds within a few
// percent.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "bench.hpp"

using namespace wsrbench;

namespace {

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 400;

const char* unit_of(const std::string& name) {
  struct Row {
    const char* suffix;
    const char* unit;
  };
  static const Row rows[] = {
      {"op_p50_ms", "ms"},        {"peak_rss_mb", "MB"},
      {"model_err_pct", "%"},     {"collective_cycles", "cycles"},
      {"opt_ratio", "x"},         {"ns_per_cycle", "ns"},
      {"cache_hit_ratio", "ratio"}, {"response_mb", "MB"},
      {"_s", "s"},
  };
  for (const Row& r : rows) {
    const std::size_t n = std::strlen(r.suffix);
    if (name.size() >= n && name.compare(name.size() - n, n, r.suffix) == 0) {
      return r.unit;
    }
  }
  return "count";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wsrbench: %s\nusage: wsrbench --workload "
               "wafer-sweep|fabric-verify|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--store DIR]\n"
               "       wsrbench --prepare-store DIR\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string prepare_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--store") {
      opt.store_dir = v;
    } else if (a == "--prepare-store") {
      prepare_dir = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!prepare_dir.empty()) return prepare_serve_store(prepare_dir);

  std::unique_ptr<Workload> w;
  if (opt.workload == "wafer-sweep") {
    w = make_wafer_sweep(opt);
  } else if (opt.workload == "fabric-verify") {
    w = make_fabric_verify(opt);
  } else if (opt.workload == "serve-mixed") {
    w = make_serve_mixed(opt);
  } else {
    usage("unknown workload");
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  trace::enable(opt.trace);
  w->setup();
  const double setup_s = since_process_start_s();
  w->prepare();

  const std::size_t n = w->num_ops();
  const std::vector<std::size_t> known = w->known_failures();
  const std::set<std::size_t> known_set(known.begin(), known.end());
  std::uint64_t attempted = 0, failed = 0;
  bool unexpected_failure = false;
  const auto account = [&](const PassRecord& rec) {
    attempted += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rec.failed[i]) continue;
      ++failed;
      if (known_set.count(i) == 0 && !unexpected_failure) {
        unexpected_failure = true;
        std::fprintf(stderr, "wsrbench: operation %zu failed its checks\n", i);
      }
    }
  };
  const auto fresh_record = [n] {
    PassRecord rec;
    rec.op_s.assign(n, 0);
    rec.failed.assign(n, 0);
    return rec;
  };

  PassRecord warm = fresh_record();
  w->run_pass(warm, /*first=*/true);
  account(warm);

  std::vector<double> best_op(n, std::numeric_limits<double>::infinity());
  std::vector<double> whole_pass_s;
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  const double t_start = now_s();
  while (whole_pass_s.size() < kMinPasses ||
         (now_s() - t_start < opt.seconds &&
          whole_pass_s.size() < kMaxPasses)) {
    PassRecord rec = fresh_record();
    const std::size_t begin = trace::mark();
    w->run_pass(rec, /*first=*/false);
    windows.emplace_back(begin, trace::mark());
    account(rec);
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += rec.op_s[i];
      best_op[i] = std::min(best_op[i], rec.op_s[i]);
    }
    whole_pass_s.push_back(total);
  }
  double fastest_ops = 0;
  for (double t : best_op) fastest_ops += t;

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = w->layer_metrics(windows);
    const std::string path =
        opt.work_dir + "/trace-" + opt.workload + ".json";
    if (!trace::write_chrome_trace(path)) {
      w->problems.push_back("could not write " + path);
    }
    std::fprintf(stderr, "traced pass_s %.6f over %zu passes; %s\n",
                 fastest_ops, whole_pass_s.size(), path.c_str());
  } else {
    metrics.push_back({"setup_s", setup_s});
    metrics.push_back({"pass_s", fastest_ops});
    metrics.push_back({"op_p50_ms", median(best_op) * 1e3});
    metrics.push_back({"peak_rss_mb", peak_rss_mb()});
    for (const Metric& m : w->model_metrics()) metrics.push_back(m);
    std::fprintf(stderr, "%zu timed passes of %zu operations; whole pass "
                 "fastest %.6f, median %.6f\n", whole_pass_s.size(), n,
                 *std::min_element(whole_pass_s.begin(), whole_pass_s.end()),
                 median(whole_pass_s));
  }

  for (const std::string& p : w->problems) {
    std::fprintf(stderr, "wsrbench: check failed: %s\n", p.c_str());
  }
  const bool correct = w->problems.empty() && !unexpected_failure;
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + unit_of(metrics[i].name) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
