// wafer-sweep: the researcher's Fig. 11-13 loop on FlowSim.
//
// Operations (one sweep cell each):
//   * every registered 1D AllReduce candidate as the 512-PE lane of its
//     X-Y composition on the 512x512 wafer (fig13b's pricing of the X-Y
//     series: rows and columns are identical, so T = 2 * T_lane);
//   * the model-selected 2D Reduce and 2D AllReduce, and Snake+Bcast, on a
//     full kGrid x kGrid grid;
//   * the model-selected 1D Reduce on a 512-PE row.
// The cells are fixed, so every pass does the same work; the seed draws the
// order they run in, afresh for every pass.
#include <algorithm>
#include <random>

#include "layers.hpp"
#include "model/cost.hpp"

namespace wsrbench {
namespace {

using namespace wsr;
using registry::AlgorithmDescriptor;
using registry::AlgorithmRegistry;
using registry::Collective;
using registry::Dims;

constexpr u32 kRow = 512;
constexpr u32 kGrid = 128;
const std::vector<u32> kLaneB = {1, 16, 256, 4096};
const std::vector<u32> kGridB = {16, 1024};
const std::vector<u32> kRowB = {1, 16, 256, 1024, 4096};

enum class Kind { Lane, Grid, Row };

struct Cell {
  Kind kind = Kind::Lane;
  Collective collective = Collective::Reduce;
  GridShape grid;
  u32 vec_len = 0;
  /// Explicit algorithm (lanes and Snake+Bcast); nullptr = model-selected.
  const AlgorithmDescriptor* forced = nullptr;
  i64 predicted = 0;  ///< model cycles (of the whole X-Y run for lanes)
  i64 simulated = -1;  ///< FlowSim cycles (2 * lane for lanes), warm-up pass
};

class WaferSweep : public Workload {
 public:
  explicit WaferSweep(const Options& opt) : opt_(opt) {}

  void setup() override {
    planner_ = std::make_unique<runtime::Planner>(kRow);
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
    const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
    for (const AlgorithmDescriptor* d :
         reg.query(Collective::AllReduce, Dims::OneD)) {
      for (u32 b : kLaneB) {
        const GridShape lane{kRow, 1};
        if (!d->applicable(lane, b)) continue;  // predicted-only in fig13b
        Cell c{Kind::Lane, Collective::AllReduce, lane, b, d};
        c.predicted =
            sequential(d->cost(lane, b, ctx_), d->cost(lane, b, ctx_)).cycles;
        cells_.push_back(c);
      }
    }
    const GridShape grid{kGrid, kGrid};
    const AlgorithmDescriptor& snake =
        reg.at(Collective::AllReduce, Dims::TwoD, "Snake+Bcast");
    for (u32 b : kGridB) {
      cells_.push_back({Kind::Grid, Collective::Reduce, grid, b});
      cells_.push_back({Kind::Grid, Collective::AllReduce, grid, b});
      Cell s{Kind::Grid, Collective::AllReduce, grid, b, &snake};
      s.predicted = snake.cost(grid, b, ctx_).cycles;
      cells_.push_back(s);
    }
    for (u32 b : kRowB) {
      cells_.push_back({Kind::Row, Collective::Reduce, GridShape{kRow, 1}, b});
    }
    rng_.seed(opt_.seed);
    order_.resize(cells_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  std::size_t num_ops() const override { return cells_.size(); }

  void run_pass(PassRecord& rec, bool first) override {
    counters_.clear();
    std::shuffle(order_.begin(), order_.end(), rng_);
    for (std::size_t i : order_) {
      Cell& c = cells_[i];
      const auto op = static_cast<std::int64_t>(i);
      const double t0 = now_s();
      const AlgorithmDescriptor* desc = c.forced;
      i64 predicted = c.predicted;
      if (desc == nullptr) {
        const Selection sel =
            select_model(c.collective, c.grid, c.vec_len, ctx_, op, counters_);
        desc = sel.desc;
        predicted = sel.pred.cycles;
      }
      const wse::Schedule s =
          build_schedule(*desc, c.grid, c.vec_len, ctx_, op, counters_);
      const bool valid = validate_schedule(s, op);
      i64 cycles = flow_cycles(s, op, counters_);
      if (c.kind == Kind::Lane) cycles *= 2;  // row lane + identical column
      rec.op_s[i] = now_s() - t0;

      bool ok = valid && desc != nullptr;
      GridShape extent = c.grid;
      if (c.kind == Kind::Lane) extent = {kRow, kRow};
      ok = ok && cycles >= trivial_bound(extent, c.vec_len);
      if (c.kind == Kind::Row) {
        ok = ok && respects_lower_bound(
                       cycles, planner_->reduce_1d_lower_bound(kRow, c.vec_len));
      }
      if (first) {
        c.simulated = cycles;
        if (c.forced == nullptr) {
          c.predicted = predicted;
          ok = ok && agrees_with_planner(c, *desc, predicted);
        }
      } else {
        ok = ok && cycles == c.simulated;
      }
      if (!ok) rec.failed[i] = 1;
    }
    if (first) {
      twin_checks();
      composition_check();
    }
  }

  std::vector<Metric> model_metrics() override {
    double err = 0;
    std::vector<double> selected, ratios;
    for (const Cell& c : cells_) {
      err += std::abs(static_cast<double>(c.predicted - c.simulated)) /
             static_cast<double>(c.simulated);
      if (c.forced == nullptr) {
        selected.push_back(static_cast<double>(c.simulated));
      }
      if (c.kind == Kind::Row) {
        ratios.push_back(static_cast<double>(c.simulated) /
                         planner_->reduce_1d_lower_bound(kRow, c.vec_len));
      }
    }
    return {{"model_err_pct", 100 * err / static_cast<double>(cells_.size())},
            {"collective_cycles", geomean(selected)},
            {"opt_ratio", geomean(ratios)}};
  }

  std::vector<Metric> layer_metrics(
      const std::vector<std::pair<std::size_t, std::size_t>>& windows)
      override {
    return standard_layer_metrics(windows, counters_, setup_);
  }

 private:
  /// The step-by-step selection must pick what Planner::plan picks.
  bool agrees_with_planner(const Cell& c, const AlgorithmDescriptor& desc,
                           i64 predicted) {
    runtime::PlanRequest req;
    req.collective = c.collective;
    req.grid = c.grid;
    req.vec_len = c.vec_len;
    const runtime::Plan plan = planner_->plan(req);
    if (plan.prediction.cycles == predicted &&
        plan.algorithm == desc.label(c.grid, c.vec_len, ctx_)) {
      return true;
    }
    problems.push_back("selection differs from Planner::plan for " +
                       plan.algorithm);
    return false;
  }

  /// A small-grid twin of every algorithm the sweep runs: FlowSim and the
  /// cycle-level FabricSim agree within the band tests/test_flowsim.cpp
  /// asserts, and FabricSim's results are the collective's exact answer.
  void twin_checks() {
    std::vector<const AlgorithmDescriptor*> seen;
    for (const Cell& c : cells_) {
      const AlgorithmDescriptor* d = c.forced;
      if (d == nullptr) {
        d = select_model(c.collective, c.grid, c.vec_len, ctx_, -1, counters_)
                .desc;
      }
      if (std::find(seen.begin(), seen.end(), d) != seen.end()) continue;
      seen.push_back(d);
      const GridShape small =
          d->dims == Dims::OneD ? GridShape{16, 1} : GridShape{8, 8};
      u32 b = 64;
      if (!d->applicable(small, b)) b = 256;
      if (!d->applicable(small, b)) {
        problems.push_back("no small twin for " + d->name);
        continue;
      }
      const wse::Schedule s = d->build(small, b, ctx_);
      const runtime::VerifyResult fabric = runtime::verify_collective(
          s, runtime::semantic_for(d->collective));
      const i64 flow = flowsim::run_flow(s).cycles;
      if (!fabric.ok) problems.push_back("twin verify failed: " + fabric.error);
      if (!sims_agree(flow, fabric.cycles)) {
        problems.push_back("FlowSim/FabricSim disagree on twin " + d->name);
      }
    }
  }

  /// On the full grid, an X-Y AllReduce takes its row lane plus its column
  /// lane (the identity fig13b's composition rests on).
  void composition_check() {
    const AlgorithmRegistry& reg = AlgorithmRegistry::instance();
    const GridShape grid{kGrid, kGrid};
    const u32 b = kGridB.front();
    u32 checked = 0;
    for (const AlgorithmDescriptor* d2 :
         reg.query(Collective::AllReduce, Dims::TwoD)) {
      if (d2->name.rfind("X-Y ", 0) != 0) continue;
      const AlgorithmDescriptor* d1 = reg.find(
          Collective::AllReduce, Dims::OneD, d2->name.substr(4) + "+Bcast");
      if (d1 == nullptr || !d2->applicable(grid, b) ||
          !d1->applicable({kGrid, 1}, b)) {
        continue;
      }
      const i64 full = flowsim::run_flow(d2->build(grid, b, ctx_)).cycles;
      const i64 lane =
          flowsim::run_flow(d1->build({kGrid, 1}, b, ctx_)).cycles;
      if (!sims_agree(full, 2 * lane, 16)) {
        problems.push_back("full grid != row + column lanes for " + d2->name);
      }
      ++checked;
    }
    if (checked == 0) problems.push_back("no X-Y composition was checked");
  }

  Options opt_;
  std::unique_ptr<runtime::Planner> planner_;
  registry::PlanContext ctx_;
  std::vector<Cell> cells_;
  /// Each pass runs the operations in a fresh order drawn from the seed,
  /// so an operation's fastest time does not hinge on one neighbour.
  std::vector<std::size_t> order_;
  std::mt19937_64 rng_;
  std::map<std::string, double> setup_;
  Counters counters_;
};

}  // namespace

std::unique_ptr<Workload> make_wafer_sweep(const Options& opt) {
  return std::make_unique<WaferSweep>(opt);
}

}  // namespace wsrbench
