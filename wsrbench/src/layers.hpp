// The benchmark's calls into the library's layers, each inside its span,
// shared by the workloads. Selection repeats Planner::plan's policy step by
// step (the planner gives no boundary between pricing and building); each
// workload's warm-up pass checks that the two pick the same plan.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "flowsim/flowsim.hpp"
#include "model/degraded.hpp"
#include "registry/algorithm_registry.hpp"
#include "runtime/planner.hpp"
#include "runtime/verify.hpp"
#include "wse/checks.hpp"
#include "wse/layout.hpp"

namespace wsrbench {

/// Work counters of one pass, by per-layer metric name.
using Counters = std::map<std::string, double>;

struct Selection {
  const wsr::registry::AlgorithmDescriptor* desc = nullptr;
  wsr::Prediction pred;
};

/// Planner::plan's selection: the applicable auto-selectable candidates in
/// registry (name) order, priced for the machine's degraded links, strict
/// minimum. Counts model.candidates_priced.
inline Selection select_model(wsr::registry::Collective c, wsr::GridShape g,
                              wsr::u32 vec_len,
                              const wsr::registry::PlanContext& ctx,
                              std::int64_t op, Counters& counters) {
  trace::Span span("model.select", op);
  Selection best;
  for (const wsr::registry::AlgorithmDescriptor* d :
       wsr::registry::AlgorithmRegistry::instance().query(
           c, wsr::registry::dims_for(g), /*selectable_only=*/true)) {
    if (!d->applicable(g, vec_len)) continue;
    counters["model.candidates_priced"] += 1;
    const wsr::Prediction p =
        wsr::apply_link_overrides(d->cost(g, vec_len, ctx), g, ctx.mp);
    if (best.desc == nullptr || p.cycles < best.pred.cycles) best = {d, p};
  }
  return best;
}

inline wsr::wse::Schedule build_schedule(
    const wsr::registry::AlgorithmDescriptor& d, wsr::GridShape g,
    wsr::u32 vec_len, const wsr::registry::PlanContext& ctx, std::int64_t op,
    Counters& counters) {
  trace::Span span("collectives.build", op);
  wsr::wse::Schedule s = d.build(g, vec_len, ctx);
  double ops = 0;
  for (const auto& p : s.programs) ops += static_cast<double>(p.ops.size());
  counters["collectives.ops_built"] += ops;
  return s;
}

/// wse::validate; true when the schedule passed every static check.
inline bool validate_schedule(const wsr::wse::Schedule& s, std::int64_t op) {
  trace::Span span("wse.validate", op);
  return wsr::wse::validate(s).empty();
}

/// FlowSim, preceded in traced runs by a probe that builds FlowSim's own
/// FabricLayout (same options) under wse.layout: run_flow builds its
/// layout internally, so the probe is how the trace prices that step.
inline std::int64_t flow_cycles(const wsr::wse::Schedule& s, std::int64_t op,
                                Counters& counters) {
  if (trace::enabled()) {
    trace::Span span("wse.layout", op);
    const wsr::wse::FabricLayout layout(
        s, wsr::wse::FabricLayout::Options{.strict = true,
                                           .register_tables = false});
  }
  trace::Span span("flowsim.run", op);
  const std::int64_t cycles = wsr::flowsim::run_flow(s).cycles;
  counters["flowsim.cycles"] += static_cast<double>(cycles);
  return cycles;
}

/// Smallest possible completion time of a collective on `g` with vectors
/// of `vec_len` wavelets: every wavelet leaves one PE serially, and data
/// must cross the grid's diameter.
inline std::int64_t trivial_bound(wsr::GridShape g, wsr::u32 vec_len) {
  const std::int64_t hops = std::int64_t{g.width} - 1 + g.height - 1;
  return std::max<std::int64_t>(vec_len, hops);
}

/// Cycles by which a simulator may finish under the model's T*(P, B): the
/// simulators and the model count a collective's boundary cycles
/// differently (both simulators end AutoGen's 512-PE, B=4096 Reduce at
/// 7161 cycles, one under T* = 7162), the same few-cycle convention gap
/// sims_agree allows between the two simulators.
constexpr std::int64_t kBoundaryCycles = 8;

/// Whether a 1D Reduce of `cycles` respects the lower bound T*(P, B).
inline bool respects_lower_bound(std::int64_t cycles, double t_star) {
  return static_cast<double>(cycles + kBoundaryCycles) >= t_star;
}

/// The FlowSim-vs-FabricSim band tests/test_flowsim.cpp asserts: a few
/// cycles of boundary convention plus 2%.
inline bool sims_agree(std::int64_t flow, std::int64_t fabric,
                       std::int64_t abs_tol = kBoundaryCycles) {
  const double tol = static_cast<double>(abs_tol) + 0.02 * fabric;
  return std::abs(static_cast<double>(flow - fabric)) <= tol;
}

/// The per-layer metric list every traced run reports, in one order:
/// span self times (median over the traced passes), the last traced pass's
/// work counters, and figures measured outside the passes (`outside`:
/// set-up). Layers a workload does not call report 0.
std::vector<Metric> standard_layer_metrics(
    const std::vector<std::pair<std::size_t, std::size_t>>& windows,
    const Counters& counters, const std::map<std::string, double>& outside);

}  // namespace wsrbench
