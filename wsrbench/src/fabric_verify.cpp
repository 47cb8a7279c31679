// fabric-verify: cycle-level checking of plans. Every operation is one
// runtime::verify_collective call on FabricSim:
//   * model-selected Reduce and AllReduce on 64- and 512-PE rows and on a
//     32x32 grid, from small to large vectors;
//   * the contention shapes: explicit Star on 512 PEs and X-Y Star on 32x32;
//   * one AllGather and one ReduceScatter;
//   * the 512-PE Reduce on a fabric with one throttled link (degraded
//     fabrics run on FabricSim's Worklist engine today).
// Plans are built before the passes; the seed draws the order in which the
// verifications run, afresh for every pass.
#include <algorithm>
#include <cmath>
#include <random>

#include "layers.hpp"

namespace wsrbench {
namespace {

using namespace wsr;
using registry::AlgorithmDescriptor;
using registry::AlgorithmRegistry;
using registry::Collective;
using runtime::Semantic;

constexpr u32 kMaxPes = 512;
/// The throttled link of the degraded operation: PE (300,0)'s west link at
/// a quarter of the rate, on the path every 1D Reduce takes to its root.
const char* const kThrottledLink = "300,0,W,4";
constexpr u32 kThrottleFactor = 4;

struct Check {
  Collective collective = Collective::Reduce;
  GridShape grid;
  u32 vec_len = 0;
  const char* algorithm = nullptr;  ///< explicit; nullptr = model-selected
  bool degraded = false;            ///< run on the throttled fabric
  // Filled by prepare():
  wse::Schedule schedule = wse::Schedule();
  Semantic semantic = Semantic::Sum;
  i64 predicted = 0;
  wse::FabricOptions fabric;
  // Filled by the warm-up pass:
  i64 cycles = -1;
  i64 hops = 0;
};

/// The canonical inputs in the layout verify_collective uses: PE p's
/// element j at [j], or at [p*B + j] for AllGather.
std::vector<std::vector<float>> canonical_inputs(const wse::Schedule& s,
                                                 Semantic semantic) {
  const u32 P = s.grid.num_pes(), B = s.vec_len;
  std::vector<std::vector<float>> in(P,
                                     std::vector<float>(s.memory_words(), 0));
  for (u32 pe = 0; pe < P; ++pe) {
    const std::size_t base =
        semantic == Semantic::AllGather ? std::size_t{pe} * B : 0;
    for (u32 j = 0; j < B; ++j) {
      in[pe][base + j] = runtime::canonical_input(pe, j);
    }
  }
  return in;
}

/// The collective's answer at every result PE, computed here from the
/// canonical integer inputs (exact in float), against FabricSim's memory.
bool results_match(const wse::Schedule& s, Semantic semantic,
                   const wse::FabricResult& r) {
  const u32 P = s.grid.num_pes(), B = s.vec_len;
  std::vector<double> sum(B, 0);
  for (u32 pe = 0; pe < P; ++pe) {
    for (u32 j = 0; j < B; ++j) sum[j] += runtime::canonical_input(pe, j);
  }
  if (s.result_pes.empty()) return false;
  for (u32 pe : s.result_pes) {
    const std::vector<float>& mem = r.memory[pe];
    u32 begin = 0, end = B;
    if (semantic == Semantic::AllGather) end = P * B;
    if (semantic == Semantic::ReduceScatter) {
      begin = pe * (B / P);
      end = begin + B / P;
    }
    if (mem.size() < end) return false;
    for (u32 j = begin; j < end; ++j) {
      double expect = 0;
      switch (semantic) {
        case Semantic::Sum:
        case Semantic::ReduceScatter: expect = sum[j]; break;
        case Semantic::AllGather:
          expect = runtime::canonical_input(j / B, j % B);
          break;
        case Semantic::Broadcast: expect = runtime::canonical_input(0, j); break;
      }
      if (static_cast<double>(mem[j]) != expect) return false;
    }
  }
  return true;
}

class FabricVerify : public Workload {
 public:
  explicit FabricVerify(const Options& opt) : opt_(opt) {}

  void setup() override {
    planner_ = std::make_unique<runtime::Planner>(kMaxPes);
    const u64 a0 = trace::allocations();
    double t0 = now_s();
    {
      trace::Span span("autogen.dp_build");
      planner_->autogen_model();
    }
    setup_["autogen.dp_build_s"] = now_s() - t0;
    t0 = now_s();
    {
      trace::Span span("autogen.lb_build");
      planner_->lower_bound();
    }
    setup_["autogen.lb_build_s"] = now_s() - t0;
    setup_["autogen.allocs"] = static_cast<double>(trace::allocations() - a0);
    ctx_ = planner_->context();
  }

  void prepare() override {
    const GridShape row64{64, 1}, row512{512, 1}, grid{32, 32};
    for (Collective c : {Collective::Reduce, Collective::AllReduce}) {
      for (u32 b : {1u, 64u, 1024u}) checks_.push_back({c, row64, b});
      for (u32 b : {16u, 512u}) checks_.push_back({c, row512, b});
      for (u32 b : {16u, 256u}) checks_.push_back({c, grid, b});
    }
    checks_.push_back({Collective::Reduce, row512, 64, "Star"});
    checks_.push_back({Collective::Reduce, grid, 64, "X-Y Star"});
    checks_.push_back({Collective::AllGather, row64, 16, "Flood"});
    checks_.push_back({Collective::ReduceScatter, row64, 1024, "Pipeline"});
    checks_.push_back({Collective::Reduce, row512, 512, nullptr, true});

    MachineParams degraded;
    degraded.link_overrides.push_back(*parse_link_override(kThrottledLink));
    Counters scratch;
    for (Check& c : checks_) {
      const AlgorithmDescriptor* d = nullptr;
      if (c.algorithm != nullptr) {
        d = &AlgorithmRegistry::instance().at(
            c.collective, registry::dims_for(c.grid), c.algorithm);
        c.predicted = d->cost(c.grid, c.vec_len, ctx_).cycles;
      } else {
        const Selection sel =
            select_model(c.collective, c.grid, c.vec_len, ctx_, -1, scratch);
        d = sel.desc;
        c.predicted = sel.pred.cycles;
        const runtime::Plan plan =
            planner_->plan({c.collective, c.grid, c.vec_len, ""});
        if (plan.algorithm != d->label(c.grid, c.vec_len, ctx_) ||
            plan.prediction.cycles != c.predicted) {
          problems.push_back("selection differs from Planner::plan for " +
                             plan.algorithm);
        }
      }
      c.schedule = d->build(c.grid, c.vec_len, ctx_);
      c.semantic = runtime::semantic_for(c.collective);
      if (c.degraded) {
        c.fabric.link_overrides = degraded.link_overrides;
        c.predicted =
            apply_link_overrides(d->cost(c.grid, c.vec_len, ctx_), c.grid,
                                 degraded)
                .cycles;
      }
      if (!wse::validate(c.schedule).empty()) {
        problems.push_back("invalid schedule " + c.schedule.name);
      }
    }
    rng_.seed(opt_.seed);
    order_.resize(checks_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  std::size_t num_ops() const override { return checks_.size(); }

  void run_pass(PassRecord& rec, bool first) override {
    counters_.clear();
    std::shuffle(order_.begin(), order_.end(), rng_);
    for (std::size_t i : order_) {
      Check& c = checks_[i];
      const auto op = static_cast<std::int64_t>(i);
      bool ok = false;
      i64 cycles = 0, hops = 0;
      if (trace::enabled()) {
        // verify_collective's steps, so FabricSim gets its own span.
        const double t0 = now_s();
        trace::Span span("runtime.verify", op);
        const auto inputs = canonical_inputs(c.schedule, c.semantic);
        wse::FabricResult r;
        {
          trace::Span fabric("wse.fabric", op);
          r = wse::run_fabric(c.schedule, inputs, c.fabric);
        }
        ok = results_match(c.schedule, c.semantic, r);
        cycles = r.cycles;
        hops = r.wavelet_hops;
        rec.op_s[i] = now_s() - t0;
      } else {
        const double t0 = now_s();
        const runtime::VerifyResult r =
            runtime::verify_collective(c.schedule, c.semantic, c.fabric);
        rec.op_s[i] = now_s() - t0;
        ok = r.ok;
        cycles = r.cycles;
        hops = r.wavelet_hops;
      }
      counters_["wse.fabric_cycles"] += static_cast<double>(cycles);
      counters_["wse.wavelet_hops"] += static_cast<double>(hops);
      if (first) {
        c.cycles = cycles;
        c.hops = hops;
        ok = ok && independent_check(c);
      } else {
        ok = ok && cycles == c.cycles && hops == c.hops;
      }
      ok = ok && cycles >= trivial_bound(c.grid, c.vec_len);
      if (c.collective == Collective::Reduce && c.grid.is_row()) {
        ok = ok && respects_lower_bound(
                       cycles, planner_->reduce_1d_lower_bound(c.grid.width,
                                                               c.vec_len));
      }
      if (!ok) rec.failed[i] = 1;
    }
    if (first) throttle_check();
  }

  std::vector<Metric> model_metrics() override {
    double err = 0;
    std::vector<double> selected, ratios;
    for (const Check& c : checks_) {
      err += std::abs(static_cast<double>(c.predicted - c.cycles)) /
             static_cast<double>(c.cycles);
      if (c.algorithm != nullptr || c.degraded) continue;
      selected.push_back(static_cast<double>(c.cycles));
      if (c.collective == Collective::Reduce && c.grid.is_row()) {
        ratios.push_back(static_cast<double>(c.cycles) /
                         planner_->reduce_1d_lower_bound(c.grid.width,
                                                         c.vec_len));
      }
    }
    return {{"model_err_pct", 100 * err / static_cast<double>(checks_.size())},
            {"collective_cycles", geomean(selected)},
            {"opt_ratio", geomean(ratios)}};
  }

  std::vector<Metric> layer_metrics(
      const std::vector<std::pair<std::size_t, std::size_t>>& windows)
      override {
    return standard_layer_metrics(windows, counters_, setup_);
  }

 private:
  /// FabricSim run directly, its memory compared with sums computed here.
  bool independent_check(const Check& c) {
    const wse::FabricResult r = wse::run_fabric(
        c.schedule, canonical_inputs(c.schedule, c.semantic), c.fabric);
    if (r.cycles == c.cycles && results_match(c.schedule, c.semantic, r)) {
      return true;
    }
    problems.push_back("FabricSim result differs from the expected answer on " +
                       c.schedule.name);
    return false;
  }

  /// A throttled link can only slow a schedule down, by at most its factor.
  void throttle_check() {
    for (const Check& d : checks_) {
      if (!d.degraded) continue;
      const runtime::VerifyResult clean =
          runtime::verify_collective(d.schedule, d.semantic);
      if (!clean.ok || clean.cycles > d.cycles ||
          d.cycles > kThrottleFactor * clean.cycles) {
        problems.push_back("throttled run outside [clean, factor x clean]");
      }
    }
  }

  Options opt_;
  std::unique_ptr<runtime::Planner> planner_;
  registry::PlanContext ctx_;
  std::vector<Check> checks_;
  /// Each pass runs the operations in a fresh order drawn from the seed,
  /// so an operation's fastest time does not hinge on one neighbour.
  std::vector<std::size_t> order_;
  std::mt19937_64 rng_;
  std::map<std::string, double> setup_;
  Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_verify(const Options& opt) {
  return std::make_unique<FabricVerify>(opt);
}

}  // namespace wsrbench
