// serve-mixed: one client's closed-loop stream of plan requests through
// wsrd's transport-independent core, one request per Core::serve_batch call.
//
// The stream spans the response-size classes (32-PE reductions of ~8 KB,
// mid-size 2D grids of 50-750 KB, a 64x64 AllReduce of 3.4 MB). Shapes
// repeat in a Zipf pattern with fixed per-shape counts; the seed shuffles
// the order, so every seed asks for the same multiset of work. Half of the
// shapes are pre-seeded in the disk store, so each pass sees memory hits,
// disk hits (read + serve-time validation) and planned misses (plan + store
// append). Each pass serves the whole stream on a fresh core over a fresh
// copy of the seeded store.
//
// Ten lines at fixed positions carry link_overrides for a 32-PE machine
// with one throttled or one failed link. They fail every pass today: the
// core's planner table ignores the defect map, so these lines are served
// the pristine machine's plan (the pristine 32-PE reduce at line 0 always
// creates that planner first).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <set>
#include <string_view>

#include "common/minijson.hpp"
#include "layers.hpp"
#include "runtime/persistent_plan_cache.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_json.hpp"
#include "serving/core.hpp"
#include "serving/request.hpp"
#include "store/plan_store.hpp"

namespace wsrbench {
namespace {

using namespace wsr;
namespace fs = std::filesystem;

struct Shape {
  const char* collective;
  const char* grid;
  u32 bytes;
};

/// Zipf rank order, most requested first. Odd ranks are pre-seeded.
const Shape kShapes[] = {
    {"reduce", "32", 1024},          {"allreduce", "32", 4096},
    {"reduce", "32", 256},           {"allreduce", "16x16", 1024},
    {"reduce", "32", 16384},         {"allreduce", "32", 1024},
    {"reduce", "16x16", 4096},       {"allgather", "32", 64},
    {"reduce", "32x32", 1024},       {"reducescatter", "32", 4096},
    {"broadcast", "16x16", 1024},    {"allreduce", "16x8", 2048},
    {"reduce", "32", 65536},         {"reduce", "64x32", 512},
    {"allreduce", "32x32", 1024},    {"reduce", "8x8", 256},
    {"allreduce", "64", 4096},       {"allreduce", "64x64", 1024},
    {"reduce", "64x64", 1024},       {"allreduce", "8x8", 64},
};
constexpr std::size_t kNumShapes = sizeof kShapes / sizeof kShapes[0];
constexpr std::size_t kZipfLines = 590;

/// The fault lines: 32-PE reduces on a machine with a throttled or a failed
/// link, at fixed stream positions, on a shape no pristine line uses.
const char* const kFaultShape =
    R"("collective":"reduce","grid":"32","bytes":4000)";
constexpr std::size_t kFaultFirst = 30, kFaultStride = 59, kFaultLines = 10;
const char* const kSlowLink = "5,0,W,4";
const char* const kFailedLink = "7,0,W";

bool seeded(std::size_t rank) { return rank % 2 == 1; }

/// Shapes the seeded store also holds that this client never asks for (an
/// earlier tenant's traffic): they make booting over the store the work of
/// loading a few megabytes of records, as a warm daemon's restart is.
const Shape kOtherTraffic[] = {
    {"reduce", "16x16", 256},     {"allreduce", "16x16", 4096},
    {"reduce", "32x16", 1024},    {"allreduce", "32x16", 256},
    {"reduce", "32x32", 256},     {"allreduce", "32x32", 4096},
    {"reduce", "64x32", 4096},    {"allreduce", "64x32", 256},
    {"reduce", "64x64", 256},     {"allreduce", "64x64", 4096},
    {"reduce", "128", 1024},      {"allreduce", "256", 4096},
    {"reduce", "128x64", 1024},   {"allreduce", "128x128", 1024},
};

std::string shape_fields(const Shape& s) {
  return std::string("\"collective\":\"") + s.collective + "\",\"grid\":\"" +
         s.grid + "\",\"bytes\":" + std::to_string(s.bytes);
}

/// Per-shape line counts: Zipf (s = 1) over the ranks, at least 2 each.
std::vector<std::size_t> zipf_counts() {
  double h = 0;
  for (std::size_t k = 0; k < kNumShapes; ++k) h += 1.0 / double(k + 1);
  std::vector<std::size_t> counts(kNumShapes);
  std::size_t total = 0;
  for (std::size_t k = 0; k < kNumShapes; ++k) {
    counts[k] = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::lround(kZipfLines / h / double(k + 1))));
    total += counts[k];
  }
  counts[0] += kZipfLines - std::min(total, kZipfLines);
  return counts;
}

struct Line {
  std::string body;  ///< the request's fields without "id"
  std::string text;  ///< the full request line
  std::size_t distinct = 0;  ///< index into the distinct request bodies
  std::string tier;  ///< expected cache_tier
  bool fault = false;
  bool failed_link = false;
};

/// A response split around the per-request fields the core splices in
/// ("id", "cache_tier", "plan_cache" counters): the rest must equal a
/// fresh core's answer byte for byte.
struct Split {
  bool ok = false;
  std::string_view head, tail, id, tier;
};

Split split_response(std::string_view r) {
  Split s;
  const std::size_t tier_at = r.find("\"cache_tier\":\"");
  if (tier_at == std::string_view::npos) return s;
  std::size_t start = tier_at;
  const std::size_t id_at = r.rfind("\"id\":", tier_at);
  if (id_at != std::string_view::npos) {
    s.id = r.substr(id_at + 5, tier_at - 1 - (id_at + 5));
    start = id_at;
  }
  const std::size_t tier_end = r.find('"', tier_at + 14);
  const std::size_t counters = r.find("\"plan_cache\":{", tier_at);
  if (tier_end == std::string_view::npos || counters == std::string_view::npos) {
    return s;
  }
  const std::size_t counters_end = r.find("},", counters);
  if (counters_end == std::string_view::npos) return s;
  s.tier = r.substr(tier_at + 14, tier_end - (tier_at + 14));
  s.head = r.substr(0, start);
  s.tail = r.substr(counters_end + 2);
  s.ok = true;
  return s;
}

/// Whether the served schedule routes across link (x, y, dir), read from
/// the response itself.
bool response_crosses(const std::string& response, const LinkOverride& link) {
  const auto v = json::parse(response);
  if (!v.has_value()) return true;
  const json::Value* sched = v->get("schedule");
  const json::Value* pes = sched == nullptr ? nullptr : sched->get("pes");
  const json::Value* grid = sched == nullptr ? nullptr : sched->get("grid");
  if (pes == nullptr || grid == nullptr) return true;
  const u64 id = u64{link.y} * grid->get_uint("width").value_or(0) + link.x;
  const std::string spec = to_string(link);  // "X,Y,DIR[,FACTOR]"
  const char letter = spec[spec.find(',', spec.find(',') + 1) + 1];
  for (const json::Value& pe : pes->array) {
    if (pe.get_uint("id").value_or(~u64{0}) != id) continue;
    const json::Value* rules = pe.get("rules");
    if (rules == nullptr) return false;
    for (const json::Value& rule : rules->array) {
      if (rule.get_string("forward").find(letter) != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(const Options& opt) : opt_(opt) {}

  void setup() override {
    if (opt_.store_dir.empty() || !fs::exists(opt_.store_dir)) {
      std::fprintf(stderr, "wsrbench: serve-mixed needs --store DIR\n");
      std::exit(2);
    }
    pass_dir_ = opt_.work_dir + "/serve-pass-store";
    core_ = boot_core();
    outside_["store.load_s"] = last_load_s_;
  }

  void prepare() override {
    build_stream();
    reference_answers();
    simulate_distinct_plans();
  }

  std::size_t num_ops() const override { return lines_.size(); }

  std::vector<std::size_t> known_failures() const override {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].fault) out.push_back(i);
    }
    return out;
  }

  void run_pass(PassRecord& rec, bool first) override {
    if (!first || core_ == nullptr) core_ = boot_core();
    if (trace::enabled()) {
      // The core's own pass, timed per serve_batch call, then the same
      // stream again step by step so every layer gets its own span.
      double batch_s = 0;
      PassRecord core_rec = rec;
      serve_core(core_rec, &batch_s);
      if (!first) serve_batch_s_.push_back(batch_s);
      stepwise_marks_.push_back(trace::mark());
      serve_stepwise(rec);
      for (std::size_t i = 0; i < rec.failed.size(); ++i) {
        rec.failed[i] |= core_rec.failed[i];
      }
    } else {
      serve_core(rec, nullptr);
    }
    core_.reset();
  }

  std::vector<Metric> model_metrics() override {
    return {{"model_err_pct", model_err_pct_},
            {"collective_cycles", collective_cycles_},
            {"opt_ratio", opt_ratio_}};
  }

  std::vector<Metric> layer_metrics(
      const std::vector<std::pair<std::size_t, std::size_t>>& windows)
      override {
    // Only the step-by-step half of each traced pass has layer spans.
    std::vector<std::pair<std::size_t, std::size_t>> stepwise;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      stepwise.emplace_back(stepwise_marks_[k + 1], windows[k].second);
    }
    outside_["serving.serve_batch_s"] = median(serve_batch_s_);
    return standard_layer_metrics(stepwise, counters_, outside_);
  }

 private:
  std::unique_ptr<serving::Core> boot_core() {
    fs::remove_all(pass_dir_);
    fs::copy(opt_.store_dir, pass_dir_, fs::copy_options::recursive);
    trace::Span span("store.load");
    const double t0 = now_s();
    auto core = std::make_unique<serving::Core>(
        serving::Core::Options{.cache_dir = pass_dir_, .jobs = 1});
    last_load_s_ = now_s() - t0;
    return core;
  }

  void build_stream() {
    std::vector<std::size_t> ranks;
    const std::vector<std::size_t> counts = zipf_counts();
    for (std::size_t k = 0; k < kNumShapes; ++k) {
      for (std::size_t c = 0; c < counts[k]; ++c) ranks.push_back(k);
    }
    // Line 0 is always the most popular (pristine, 32-PE) shape; the rest
    // is shuffled by the seed.
    std::mt19937_64 rng(opt_.seed);
    std::shuffle(ranks.begin() + 1, ranks.end(), rng);

    std::vector<std::string> bodies;
    for (std::size_t k : ranks) bodies.push_back(shape_fields(kShapes[k]));
    for (std::size_t f = 0; f < kFaultLines; ++f) {
      const bool failed = f % 3 == 2;
      const std::string body =
          std::string(kFaultShape) + ",\"link_overrides\":[\"" +
          (failed ? kFailedLink : kSlowLink) + "\"]";
      bodies.insert(bodies.begin() + kFaultFirst + f * kFaultStride, body);
    }

    std::set<std::string> seeded_bodies, seen;
    for (std::size_t k = 0; k < kNumShapes; ++k) {
      if (seeded(k)) seeded_bodies.insert(shape_fields(kShapes[k]));
    }
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      Line l;
      l.body = bodies[i];
      l.text = "{\"id\":" + std::to_string(i) + "," + l.body + "}";
      l.fault = l.body.find("link_overrides") != std::string::npos;
      l.failed_link = l.body.find(kFailedLink) != std::string::npos;
      const auto at = std::find(distinct_.begin(), distinct_.end(), l.body);
      l.distinct = static_cast<std::size_t>(at - distinct_.begin());
      if (at == distinct_.end()) distinct_.push_back(l.body);
      // The tiers a correct core answers from: memory once a machine's
      // shape was asked for in this pass, else disk when seeded, else a
      // fresh plan.
      if (!seen.insert(l.body).second) {
        l.tier = "memory";
      } else {
        l.tier = seeded_bodies.count(l.body) ? "disk" : "planned";
      }
      lines_.push_back(std::move(l));
    }
  }

  /// What a fresh core answers for each distinct request alone.
  void reference_answers() {
    for (const std::string& body : distinct_) {
      serving::Core fresh(serving::Core::Options{.jobs = 1});
      std::vector<serving::Request> batch{
          serving::parse_request("{" + body + "}")};
      reference_.push_back(fresh.serve_batch(batch));
      if (!reference_.back().empty()) reference_.back().pop_back();  // '\n'
      const Split s = split_response(reference_.back());
      if (!s.ok) problems.push_back("fresh core did not plan " + body);
    }
  }

  /// Each distinct pristine plan once, outside the timing, through
  /// verify_collective on FabricSim: the answer must be exact, and the
  /// cycle counts feed the model-fidelity metrics.
  void simulate_distinct_plans() {
    std::map<u32, std::unique_ptr<runtime::Planner>> planners;
    double err = 0;
    std::vector<double> cycles, ratios;
    for (const std::string& body : distinct_) {
      const serving::Request r = serving::parse_request("{" + body + "}");
      if (!r.mp.link_overrides.empty()) continue;
      const u32 max_dim =
          std::max<u32>({r.req.grid.width, r.req.grid.height, 2});
      auto& planner = planners[max_dim];
      if (!planner) planner = std::make_unique<runtime::Planner>(max_dim);
      const runtime::Plan plan = planner->plan(r.req);
      const runtime::VerifyResult v = runtime::verify_collective(
          plan.schedule, runtime::semantic_for(r.req.collective));
      if (!v.ok) problems.push_back("verify_collective failed: " + body);
      err += std::abs(static_cast<double>(plan.prediction.cycles - v.cycles)) /
             static_cast<double>(v.cycles);
      cycles.push_back(static_cast<double>(v.cycles));
      if (r.req.collective == runtime::Collective::Reduce &&
          r.req.grid.is_row()) {
        const double t_star =
            planner->reduce_1d_lower_bound(r.req.grid.width, r.req.vec_len);
        ratios.push_back(static_cast<double>(v.cycles) / t_star);
        if (!respects_lower_bound(v.cycles, t_star)) {
          problems.push_back("a served 1D Reduce beat T*: " + body);
        }
      }
    }
    model_err_pct_ = 100 * err / static_cast<double>(cycles.size());
    collective_cycles_ = geomean(cycles);
    opt_ratio_ = geomean(ratios);
  }

  /// Checks one response against the stream's expectations; true = passed.
  bool check_response(std::size_t i, const std::string& response,
                      const std::string& tier_seen) {
    const Line& l = lines_[i];
    const Split got = split_response(response);
    const Split want = split_response(reference_[l.distinct]);
    if (l.failed_link) {
      // Refusing in-band is a correct answer; a plan must avoid the link.
      if (response.find("\"error\":") != std::string::npos) return true;
      if (response_crosses(response, *parse_link_override(kFailedLink))) {
        return false;
      }
    }
    return got.ok && want.ok && got.id == std::to_string(i) &&
           got.tier == l.tier && tier_seen == l.tier &&
           got.head == want.head && got.tail == want.tail;
  }

  void serve_core(PassRecord& rec, double* batch_s) {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const double t0 = now_s();
      std::string out;
      {
        std::vector<serving::Request> batch;
        {
          trace::Span parse("serving.parse", static_cast<std::int64_t>(i));
          batch.push_back(serving::parse_request(lines_[i].text));
        }
        trace::Span serve("serving.serve_batch", static_cast<std::int64_t>(i));
        const double t1 = now_s();
        out = core_->serve_batch(batch);
        if (batch_s != nullptr) *batch_s += now_s() - t1;
      }
      rec.op_s[i] = now_s() - t0;
      if (out.empty() || out.back() != '\n') {
        rec.failed[i] = 1;
        continue;
      }
      out.pop_back();
      const Split s = split_response(out);
      if (!check_response(i, out, std::string(s.tier))) rec.failed[i] = 1;
    }
  }

  /// PlanCache::get_or_plan's tier walk, one step per span, over the same
  /// chain the core wires (memory, then the FileStore over a fresh copy of
  /// the seeded store), with the core's planner table (serving::PlannerKey).
  void serve_stepwise(PassRecord& rec) {
    counters_.clear();
    fs::remove_all(pass_dir_);
    fs::copy(opt_.store_dir, pass_dir_, fs::copy_options::recursive);
    runtime::PersistentPlanCache disk(pass_dir_);
    runtime::PlanCache cache(16, 0);
    cache.attach_disk_store(&disk);
    store::PlanStore& file = *cache.file_tier();
    std::map<serving::PlannerKey, std::unique_ptr<runtime::Planner>> planners;

    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const auto op = static_cast<std::int64_t>(i);
      const double t0 = now_s();
      serving::Request r;
      {
        trace::Span parse("serving.parse", op);
        r = serving::parse_request(lines_[i].text);
      }
      const serving::PlannerKey pk{
          r.mp, std::max<u32>({r.req.grid.width, r.req.grid.height, 2})};
      auto& planner_slot = planners[pk];
      if (!planner_slot) {
        // A fresh core's planners build their (small) Auto-Gen tables on
        // first use; here that step gets its own span.
        planner_slot = std::make_unique<runtime::Planner>(pk.max_dim, r.mp);
        trace::Span dp("autogen.dp_build", op);
        planner_slot->autogen_model();
      }
      const runtime::Planner& planner = *planner_slot;
      const runtime::PlanKey key = runtime::PlanCache::key_for(planner, r.req);

      std::shared_ptr<const runtime::Plan> plan;
      std::string tier = "memory";
      {
        trace::Span lookup("runtime.cache_lookup", op);
        file.note_use(key);
        plan = cache.find(key);
      }
      if (plan != nullptr) {
        counters_["runtime.memory_hits"] += 1;
      } else {
        store::GetResult got;
        {
          trace::Span get("store.get", op);
          got = file.get(key);
        }
        if (got.status == store::StoreStatus::Hit) {
          tier = "disk";
          counters_["store.disk_hits"] += 1;
          bool servable = false;
          {
            trace::Span validate("wse.validate", op);
            servable = wse::validate(got.plan->schedule).empty() &&
                       !wse::schedule_crosses_failed_link(
                           got.plan->schedule, r.mp.link_overrides);
          }
          trace::Span lookup("runtime.cache_lookup", op);
          plan = servable ? cache.insert(key, std::move(got.plan)) : nullptr;
        } else {
          tier = "planned";
          const registry::PlanContext ctx = planner.context();
          const Selection sel = select_model(r.req.collective, r.req.grid,
                                             r.req.vec_len, ctx, op, counters_);
          auto fresh = std::make_shared<const runtime::Plan>(runtime::Plan{
              build_schedule(*sel.desc, r.req.grid, r.req.vec_len, ctx, op,
                             counters_),
              sel.pred, sel.desc->label(r.req.grid, r.req.vec_len, ctx)});
          {
            trace::Span lookup("runtime.cache_lookup", op);
            plan = cache.insert(key, fresh);
          }
          trace::Span append("store.append", op);
          file.put(key, plan);
          counters_["store.appends"] += 1;
        }
      }
      std::string out;
      if (plan != nullptr) {
        trace::Span serialize("runtime.serialize", op);
        std::string extras = "\"id\":" + r.id_json + ",\"cache_tier\":\"" +
                             tier + "\"," +
                             runtime::plan_cache_counters_json(cache);
        out = runtime::plan_response_json(r.req, *plan, r.mp, extras);
      }
      rec.op_s[i] = now_s() - t0;
      counters_["runtime.requests"] += 1;
      counters_["runtime.response_bytes"] += static_cast<double>(out.size());
      if (plan == nullptr || !check_response(i, out, tier)) rec.failed[i] = 1;
    }
  }

  Options opt_;
  std::string pass_dir_;
  std::unique_ptr<serving::Core> core_;
  std::vector<Line> lines_;
  std::vector<std::string> distinct_;
  std::vector<std::string> reference_;
  /// Per-layer figures measured outside the traced windows.
  std::map<std::string, double> outside_;
  Counters counters_;
  std::vector<std::size_t> stepwise_marks_;
  std::vector<double> serve_batch_s_;
  double last_load_s_ = 0;
  double model_err_pct_ = 0, collective_cycles_ = 0, opt_ratio_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Options& opt) {
  return std::make_unique<ServeMixed>(opt);
}

int prepare_serve_store(const std::string& dir) {
  fs::remove_all(dir);
  std::vector<Shape> shapes(std::begin(kOtherTraffic), std::end(kOtherTraffic));
  for (std::size_t k = 0; k < kNumShapes; ++k) {
    if (seeded(k)) shapes.push_back(kShapes[k]);
  }
  serving::Core core(serving::Core::Options{.cache_dir = dir, .jobs = 1});
  for (const Shape& shape : shapes) {
    std::vector<serving::Request> batch{
        serving::parse_request("{" + shape_fields(shape) + "}")};
    if (core.serve_batch(batch).find("\"cache_tier\":\"planned\"") ==
        std::string::npos) {
      std::fprintf(stderr, "wsrbench: could not seed %s\n",
                   shape_fields(shape).c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace wsrbench
