#include "layers.hpp"

namespace wsrbench {

std::vector<Metric> standard_layer_metrics(
    const std::vector<std::pair<std::size_t, std::size_t>>& windows,
    const Counters& counters, const std::map<std::string, double>& outside) {
  const auto count = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto measured_outside = [&](const char* name) {
    const auto it = outside.find(name);
    return it == outside.end() ? 0.0 : it->second;
  };
  std::vector<trace::LayerTotals> passes;
  for (const auto& [begin, end] : windows) {
    passes.push_back(trace::totals(begin, end));
  }
  // Median over the traced passes of one per-pass figure.
  const auto median_of = [&](const std::map<std::string, double>
                                 trace::LayerTotals::*field,
                             const char* key) {
    std::vector<double> v;
    for (const trace::LayerTotals& t : passes) {
      const auto it = (t.*field).find(key);
      v.push_back(it == (t.*field).end() ? 0.0 : it->second);
    }
    return median(std::move(v));
  };
  const auto span_s = [&](const char* name) {
    return median_of(&trace::LayerTotals::by_name_s, name);
  };
  const auto allocs = [&](const char* layer) {
    return median_of(&trace::LayerTotals::allocs, layer);
  };
  const auto per_cycle_ns = [](double s, double cycles) {
    return cycles > 0 ? s * 1e9 / cycles : 0.0;
  };

  std::vector<Metric> m;
  // Set-up builds the Auto-Gen tables in wafer-sweep and fabric-verify;
  // serve-mixed's planners build small ones inside the passes.
  const bool setup_tables = outside.count("autogen.dp_build_s") != 0;
  m.push_back({"autogen.dp_build_s", setup_tables
                                         ? measured_outside("autogen.dp_build_s")
                                         : span_s("autogen.dp_build")});
  m.push_back({"autogen.lb_build_s", measured_outside("autogen.lb_build_s")});
  m.push_back({"autogen.allocs", setup_tables ? measured_outside("autogen.allocs")
                                              : allocs("autogen")});

  m.push_back({"model.select_s", span_s("model.select")});
  m.push_back({"model.candidates_priced", count("model.candidates_priced")});
  m.push_back({"model.allocs", allocs("model")});

  m.push_back({"collectives.build_s", span_s("collectives.build")});
  m.push_back({"collectives.ops_built", count("collectives.ops_built")});
  m.push_back({"collectives.allocs", allocs("collectives")});

  const double fabric_s = span_s("wse.fabric");
  m.push_back({"wse.validate_s", span_s("wse.validate")});
  m.push_back({"wse.layout_s", span_s("wse.layout")});
  m.push_back({"wse.fabric_s", fabric_s});
  m.push_back({"wse.fabric_cycles", count("wse.fabric_cycles")});
  m.push_back({"wse.fabric_ns_per_cycle",
               per_cycle_ns(fabric_s, count("wse.fabric_cycles"))});
  m.push_back({"wse.wavelet_hops", count("wse.wavelet_hops")});
  m.push_back({"wse.allocs", allocs("wse")});

  const double flow_s = span_s("flowsim.run");
  m.push_back({"flowsim.run_s", flow_s});
  m.push_back({"flowsim.cycles", count("flowsim.cycles")});
  m.push_back({"flowsim.ns_per_cycle",
               per_cycle_ns(flow_s, count("flowsim.cycles"))});
  m.push_back({"flowsim.allocs", allocs("flowsim")});

  const double requests = count("runtime.requests");
  m.push_back({"runtime.verify_s", span_s("runtime.verify")});
  m.push_back({"runtime.cache_lookup_s", span_s("runtime.cache_lookup")});
  m.push_back({"runtime.cache_hit_ratio",
               requests > 0 ? count("runtime.memory_hits") / requests : 0.0});
  m.push_back({"runtime.serialize_s", span_s("runtime.serialize")});
  m.push_back({"runtime.response_mb", count("runtime.response_bytes") / 1e6});
  m.push_back({"runtime.allocs", allocs("runtime")});

  m.push_back({"store.load_s", measured_outside("store.load_s")});
  m.push_back({"store.get_s", span_s("store.get")});
  m.push_back({"store.disk_hits", count("store.disk_hits")});
  m.push_back({"store.append_s", span_s("store.append")});
  m.push_back({"store.appends", count("store.appends")});
  m.push_back({"store.allocs", allocs("store")});

  m.push_back({"serving.parse_s", span_s("serving.parse")});
  m.push_back({"serving.serve_batch_s", measured_outside("serving.serve_batch_s")});
  m.push_back({"serving.allocs", allocs("serving")});
  return m;
}

}  // namespace wsrbench
