// Shared machinery of the wsrbench binary: clocks, the span tracer, the
// per-pass recorder and the workload interface (README.md in this
// directory describes the workloads and metrics).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace wsrbench {

/// Seconds on the steady clock.
double now_s();

/// Seconds since the process started (first static initializer of the
/// benchmark binary): the base of setup_s.
double since_process_start_s();

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double>& v);

/// Median (0 when empty).
double median(std::vector<double> v);

// --- tracing -----------------------------------------------------------------

/// Spans around the benchmark's calls into each library layer. A span's
/// name is "<layer>.<what>"; spans nest (the innermost open span is the
/// parent of the next one) and carry the id of the operation they serve.
/// Allocations are counted by the binary's global operator new and charged
/// to the innermost open span. With tracing off a Span costs one branch.
namespace trace {

struct SpanRec {
  const char* name = "";
  std::int64_t op = -1;
  std::int32_t parent = -1;
  double t0 = 0, t1 = 0;
  std::uint64_t allocs0 = 0, allocs1 = 0;
  /// Filled as children close: child-covered time and allocations.
  double child_s = 0;
  std::uint64_t child_allocs = 0;
};

void enable(bool on);
bool enabled();
std::uint64_t allocations();

/// Index of the next span to be opened (marks a window of spans).
std::size_t mark();

class Span {
 public:
  explicit Span(const char* name, std::int64_t op = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Self time per span name ("wse.validate") and self allocations per layer
/// ("wse") over spans [begin, end).
struct LayerTotals {
  std::map<std::string, double> by_name_s;
  std::map<std::string, double> allocs;
};
LayerTotals totals(std::size_t begin, std::size_t end);

/// Writes every recorded span as Chrome trace-event JSON.
bool write_chrome_trace(const std::string& path);

}  // namespace trace

// --- workloads ---------------------------------------------------------------

/// What one pass observed: per-operation latency (in the workload's fixed
/// operation order) and which operations failed their checks.
struct PassRecord {
  std::vector<double> op_s;
  std::vector<std::uint8_t> failed;
};

struct Metric {
  std::string name;
  double value = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One-time set-up (timed from process start as setup_s).
  virtual void setup() = 0;
  /// Untimed preparation after set-up: operation lists and reference
  /// answers the checks compare against.
  virtual void prepare() = 0;
  virtual std::size_t num_ops() const = 0;
  /// Runs every operation once, timing each and checking its output.
  /// `first` marks the warm-up pass, which also runs the expensive
  /// independent checks.
  virtual void run_pass(PassRecord& rec, bool first) = 0;
  /// Operations expected to fail every pass (a known program fault).
  virtual std::vector<std::size_t> known_failures() const { return {}; }
  /// Model-fidelity metrics: model_err_pct, collective_cycles, opt_ratio.
  virtual std::vector<Metric> model_metrics() = 0;
  /// Per-layer metrics from the traced passes, given each traced pass's
  /// span window.
  virtual std::vector<Metric> layer_metrics(
      const std::vector<std::pair<std::size_t, std::size_t>>& windows) = 0;
  /// Workload-level checks that failed (empty = all passed).
  std::vector<std::string> problems;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".wsrbench";
  std::string store_dir;  ///< serve-mixed: the seeded store to copy
};

std::unique_ptr<Workload> make_wafer_sweep(const Options& opt);
std::unique_ptr<Workload> make_fabric_verify(const Options& opt);
std::unique_ptr<Workload> make_serve_mixed(const Options& opt);

/// serve-mixed's seeded store: plans the seeded part of the stream into
/// `dir` (run in its own process before the measured one).
int prepare_serve_store(const std::string& dir);

}  // namespace wsrbench
