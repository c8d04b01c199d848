// kspr_perfbench: the workload driver behind perfbench/run.py.
//
//   kspr_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//
// Runs one workload with a fixed amount of work per (seed, seconds) — the
// work is sized so a run measures about S seconds on a 4-core x86 box —
// and writes raw results to FILE as JSON: the set-up pass times, every
// client-observed latency, failures by reason, deterministic work counts,
// one digest per query result and, with --trace 1, the recorded spans.
// run.py turns these into the benchmark's metrics. The program sees only
// inputs generated here. Every correctness check runs outside the timed
// calls; every mismatch is a failed operation.
//
// Inputs: each workload serves one fixed catalog (IND, n=2000, d=3, from
// kCatalogSeed) and --seed drives everything that arrives at it: the
// query order and mix, the hypothetical focals and the update batches. A
// per-seed catalog would make a run's figures hinge on a few focals whose
// cost varies several-fold between catalogs; with the catalog fixed, every
// run samples the same focal population and the run-to-run spread is the
// traffic's and the machine's. For the same reason every update batch is
// a what-if change — it withdraws the records the previous batch added and
// adds fresh random ones — so the live set stays the catalog plus a few
// records instead of drifting apart from seed to seed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/rng.h"
#include "common/shard_map.h"
#include "core/brute_force.h"
#include "core/candidates.h"
#include "core/region.h"
#include "core/solver.h"
#include "datagen/synthetic.h"
#include "engine/query_engine.h"
#include "index/bbs.h"
#include "index/rtree.h"
#include "net/wire.h"
#include "perfbench/trace.h"
#include "shard/shard_router.h"
#include "shard/shard_worker.h"

namespace kspr::perfbench {
namespace {

constexpr int kDim = 3;
constexpr int kRecords = 2000;
constexpr uint64_t kCatalogSeed = 2017;
// Set-up passes per run; setup_s is their median, which needs ten passes
// beyond it.
constexpr int kSetupPasses = 21;

struct Run {
  Run(uint64_t seed, double seconds, bool trace)
      : seed(seed), seconds(seconds), tracer(trace) {}

  uint64_t seed;
  double seconds;
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> query_ms;
  std::vector<double> update_ms;
  std::vector<double> queue_wait_ms;  // serving-mixed only
  double measured_ms = 0.0;           // sum of the timed calls
  int64_t attempted = 0;
  int64_t failed_queries = 0;
  std::map<std::string, int64_t> failures;  // reason -> operations
  std::map<std::string, int64_t> counts;    // deterministic work counts
  std::vector<uint64_t> digests;            // one per query, in order

  void Fail(const std::string& reason) { ++failures[reason]; }
  void FailQuery(const std::string& reason) {
    Fail(reason);
    ++failed_queries;
  }
};

/// Operations of a run, scaled from its length; always at least `floor`.
size_t Scaled(double seconds, double per_second, size_t floor) {
  return std::max(floor,
                  static_cast<size_t>(std::lround(seconds * per_second)));
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->UniformInt(i)]);
  }
}

Vec RandomRecord(Rng* rng) {
  Vec v(kDim);
  for (int i = 0; i < kDim; ++i) v[i] = rng->Uniform();
  return v;
}


Dataset Catalog() {
  return GenerateSynthetic(Distribution::kIndependent, kRecords, kDim,
                           kCatalogSeed);
}

/// k-skyband of `data` in ascending id order: the focal population.
std::vector<RecordId> Skyband(const Dataset& data, int k) {
  const RTree tree = RTree::BulkLoad(data);
  std::vector<RecordId> band = KSkyband(data, tree, k);
  std::sort(band.begin(), band.end());
  return band;
}

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ULL;
  }
  void Int(int64_t x) { Bytes(&x, sizeof x); }
  void Real(double x) { Bytes(&x, sizeof x); }
  void Point(const Vec& v) {
    Int(v.dim);
    for (int i = 0; i < v.dim; ++i) Real(v[i]);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Bitwise digest of a result: every region field and every counter.
uint64_t Digest(const KsprResult& r) {
  Fnv h;
  h.Int(static_cast<int64_t>(r.regions.size()));
  for (const Region& g : r.regions) {
    h.Int(static_cast<int64_t>(g.space));
    h.Int(g.dim);
    h.Int(g.rank_lb);
    h.Int(g.rank_ub);
    h.Real(g.volume);
    h.Point(g.witness);
    h.Int(static_cast<int64_t>(g.constraints.size()));
    for (const LinIneq& c : g.constraints) {
      h.Point(c.a);
      h.Real(c.b);
    }
    h.Int(static_cast<int64_t>(g.vertices.size()));
    for (const Vec& v : g.vertices) h.Point(v);
  }
  static_assert(sizeof(KsprStats) % sizeof(int64_t) == 0);
  h.Bytes(&r.stats, sizeof r.stats);
  return h.value();
}

/// Accumulates the solver counters of one computed (not cached) result.
void CountSolve(const KsprStats& s, Run* run) {
  auto& c = run->counts;
  ++c["solved_queries"];
  c["stats.cell_tree_nodes"] += s.cell_tree_nodes;
  c["stats.feasibility_lps"] += s.feasibility_lps;
  c["stats.bound_lps"] += s.bound_lps;
  c["stats.finalize_lps"] += s.finalize_lps;
  c["stats.witness_hits"] += s.witness_hits;
  c["stats.lp_skipped_by_ball"] += s.lp_skipped_by_ball;
  c["stats.lp_warm_starts"] += s.lp_warm_starts;
  c["stats.lp_cold_starts"] += s.lp_cold_starts;
  c["stats.lookahead_reported"] += s.lookahead_reported;
  c["stats.lookahead_pruned"] += s.lookahead_pruned;
  c["stats.result_regions"] += s.result_regions;
}

/// Compacts the live records of `data`; `compact_of[id]` maps live ids.
Dataset CompactLive(const Dataset& data, std::vector<RecordId>* compact_of) {
  Dataset out(data.dim());
  compact_of->assign(static_cast<size_t>(data.size()), kInvalidRecord);
  for (RecordId i = 0; i < data.size(); ++i) {
    if (data.IsLive(i)) {
      (*compact_of)[static_cast<size_t>(i)] = out.Add(data.Get(i));
    }
  }
  return out;
}

/// Same cells of one arrangement, in any order: every region of `a` is
/// matched by witness containment to a distinct region of `b` with the
/// same rank bounds. The engine's kIncremental contract for P-CTA/LP-CTA.
bool RegionSetsEqual(const KsprResult& a, const KsprResult& b) {
  if (a.regions.size() != b.regions.size()) return false;
  std::vector<char> used(b.regions.size(), 0);
  for (const Region& ra : a.regions) {
    bool matched = false;
    for (size_t j = 0; j < b.regions.size() && !matched; ++j) {
      const Region& rb = b.regions[j];
      if (used[j] || !rb.Contains(ra.witness)) continue;
      if (rb.rank_lb != ra.rank_lb || rb.rank_ub != ra.rank_ub) return false;
      used[j] = 1;
      matched = true;
    }
    if (!matched) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// analyst-lpcta: distinct LP-CTA queries with finalisation, called directly
// on KsprSolver (no engine, no cache), IND n=2000 d=3 k=15. Focals cycle
// through the k-skyband in a seed-shuffled order, a whole number of times
// (the ~35-record skyline cannot fill a p90). Every kAnalystUpdateEvery
// queries a what-if batch is applied straight to the Dataset and R-tree,
// so a focal met again is queried against another live set.

constexpr int kAnalystK = 15;
constexpr size_t kAnalystWarmupQueries = 4;
constexpr double kAnalystQueriesPerSecond = 45.0;  // rounded to whole cycles
constexpr size_t kAnalystUpdateEvery = 10;
constexpr int kAnalystUpdateSize = 4;  // inserts and deletes per batch
constexpr int kOracleSamples = 400;

void RunAnalyst(Run* run) {
  Rng rng(run->seed * 0x9e3779b97f4a7c15ULL + 1);
  const Dataset base = Catalog();
  const std::vector<RecordId> warmup = Skyband(base, kAnalystK);
  std::vector<RecordId> band = warmup;
  Shuffle(&band, &rng);
  const size_t cycles =
      (Scaled(run->seconds, kAnalystQueriesPerSecond, 100) + band.size() / 2) /
      band.size();
  const size_t queries = std::max<size_t>(cycles, 1) * band.size();

  KsprOptions options;
  options.k = kAnalystK;
  options.algorithm = Algorithm::kLpCta;
  options.finalize_geometry = true;
  KsprOptions solve_only = options;
  solve_only.finalize_geometry = false;

  // Set-up: index build plus warm-up queries (LP scratch, page faults).
  std::unique_ptr<Dataset> data;
  std::unique_ptr<RTree> tree;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    tree.reset();
    data = std::make_unique<Dataset>(base);
    const auto t0 = Clock::now();
    tree = std::make_unique<RTree>(RTree::BulkLoad(*data));
    const KsprSolver solver(data.get(), tree.get());
    for (size_t i = 0; i < kAnalystWarmupQueries; ++i) {
      (void)solver.QueryRecord(warmup[i], options);
    }
    run->setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
  }
  const KsprSolver solver(data.get(), tree.get());
  Tracer& tracer = run->tracer;

  std::vector<RecordId> what_if;  // records the last update batch added
  for (size_t i = 0; i < queries; ++i) {
    if (i > 0 && i % kAnalystUpdateEvery == 0) {
      std::vector<Vec> inserts;
      for (int j = 0; j < kAnalystUpdateSize; ++j) {
        inserts.push_back(RandomRecord(&rng));
      }
      const std::vector<RecordId> deletes = std::move(what_if);
      what_if.clear();
      ++run->attempted;
      ScopedSpan span(&tracer, "update", -1);
      const auto t0 = Clock::now();
      bool ok = true;
      for (RecordId id : deletes) {
        ok = tree->Delete(*data, id) && data->Delete(id) && ok;
      }
      for (const Vec& v : inserts) {
        what_if.push_back(data->Insert(v));
        tree->Insert(*data, what_if.back());
      }
      const double ms = MillisBetween(t0, Clock::now());
      span.Close();
      run->update_ms.push_back(ms);
      run->measured_ms += ms;
      ++run->counts["updates"];
      if (!ok) run->Fail("update_delete_missed");
    }

    const RecordId focal = band[i % band.size()];
    const auto request = static_cast<int64_t>(i);
    KsprResult result;
    double ms = 0.0;
    ++run->attempted;
    if (tracer.enabled()) {
      ScopedSpan query(&tracer, "query", request);
      {
        ScopedSpan solve(&tracer, "core.solve", request);
        result = solver.QueryRecord(focal, solve_only);
      }
      {
        ScopedSpan finalize(&tracer, "core.finalize", request);
        for (Region& region : result.regions) {
          FinalizeRegion(&region, options.compute_volume,
                         options.volume_samples, &result.stats);
        }
      }
      ms = query.Close();
    } else {
      const auto t0 = Clock::now();
      result = solver.QueryRecord(focal, options);
      ms = MillisBetween(t0, Clock::now());
    }
    run->query_ms.push_back(ms);
    run->measured_ms += ms;
    ++run->counts["queries"];
    CountSolve(result.stats, run);
    run->digests.push_back(Digest(result));

    const OracleCheck check =
        VerifyResult(*data, data->Get(focal), focal, kAnalystK, result,
                     Space::kTransformed, kOracleSamples, run->seed + i);
    run->counts["oracle_samples"] += check.samples;
    if (check.mismatches > 0 || check.overlaps > 0) {
      run->FailQuery("oracle_mismatch");
    }
  }
}

// ---------------------------------------------------------------------------
// serving-mixed: a QueryEngine (one pool worker, result cache, amortized
// CTA contexts) serving a repeat-skewed mix of P-CTA queries (finalisation
// off): each batch asks for fresh k-skyband focals (a seed-shuffled cycle)
// and repeats some of the previous batch's, which hit the cache when an
// update left their entry in place. Each batch also carries one amortized
// CTA request, and the same CTA focals hold standing subscriptions. One
// driver thread submits a batch, waits for every response, then applies a
// small insert/delete batch. A batch never holds a focal twice and the
// cache never evicts, so hits, retained/dropped entries and subscriber
// classes are a function of the seed alone. One worker rather than two:
// with two, a neighbour on either core slowed the whole batch, and the
// quartile spread over ten seeds reached 39% against 14% for the serial
// workloads in the same set.

constexpr int kServingK = 10;
constexpr double kServingBatchesPerSecond = 11.0;
constexpr size_t kServingFreshPerBatch = 6;
constexpr size_t kServingRepeatsPerBatch = 5;
constexpr int kServingCtaFocals = 2;
constexpr int kServingUpdateSize = 1;  // inserts and deletes per batch
constexpr size_t kServingWarmFocals = 4;

/// From-scratch answers over the compacted live set of one dataset
/// version, solved by Prefetch and memoised per (focal, algorithm).
class FromScratch {
 public:
  explicit FromScratch(const Dataset* data) : data_(data) {}

  /// Solves every request not memoised yet, spread over up to `threads`
  /// threads (the solver's read path is thread-safe). Runs between timed
  /// calls only, so it never competes with them.
  void Prefetch(const std::vector<QueryRequest>& requests, size_t threads) {
    Build();
    std::vector<const QueryRequest*> todo;
    std::set<Key> queued;
    for (const QueryRequest& r : requests) {
      const Key key = KeyOf(r.focal_id, r.options);
      if (!memo_.contains(key) && queued.insert(key).second) todo.push_back(&r);
    }
    std::vector<KsprResult> solved(todo.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        const QueryRequest& r = *todo[i];
        solved[i] = solver_->QueryRecord(
            compact_of_[static_cast<size_t>(r.focal_id)], r.options);
      }
    };
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < std::min(threads, todo.size()); ++t) {
      helpers.emplace_back(work);
    }
    work();
    for (std::thread& t : helpers) t.join();
    for (size_t i = 0; i < todo.size(); ++i) {
      memo_.emplace(KeyOf(todo[i]->focal_id, todo[i]->options),
                    std::move(solved[i]));
    }
  }

  /// Forget the memo; call after every update batch.
  void Invalidate() {
    memo_.clear();
    solver_.reset();
    tree_.reset();
    compact_.reset();
  }

  /// The answer for a request Prefetch has solved.
  const KsprResult& Get(RecordId focal, const KsprOptions& options) const {
    return memo_.at(KeyOf(focal, options));
  }

 private:
  using Key = std::pair<RecordId, int>;
  static Key KeyOf(RecordId focal, const KsprOptions& options) {
    return {focal, static_cast<int>(options.algorithm)};
  }

  void Build() {
    if (solver_) return;
    compact_ = std::make_unique<Dataset>(CompactLive(*data_, &compact_of_));
    tree_ = std::make_unique<RTree>(RTree::BulkLoad(*compact_));
    solver_ = std::make_unique<KsprSolver>(compact_.get(), tree_.get());
  }

  const Dataset* data_;
  std::unique_ptr<Dataset> compact_;
  std::unique_ptr<RTree> tree_;
  std::unique_ptr<KsprSolver> solver_;
  std::vector<RecordId> compact_of_;
  std::map<Key, KsprResult> memo_;
};

void RunServing(Run* run) {
  Rng rng(run->seed * 0x9e3779b97f4a7c15ULL + 2);
  const Dataset base = Catalog();
  const std::vector<RecordId> band = Skyband(base, kServingK);
  // CTA focals: the skyband records with the largest attribute sums have
  // the fewest non-dominated competitors, so their arrangements are small.
  std::vector<RecordId> by_sum = band;
  std::stable_sort(by_sum.begin(), by_sum.end(), [&](RecordId a, RecordId b) {
    const Vec& va = base.Get(a);
    const Vec& vb = base.Get(b);
    return va[0] + va[1] + va[2] > vb[0] + vb[1] + vb[2];
  });
  const std::vector<RecordId> cta_focals(by_sum.begin(),
                                         by_sum.begin() + kServingCtaFocals);
  std::vector<RecordId> fresh;
  for (RecordId id : band) {
    if (std::find(cta_focals.begin(), cta_focals.end(), id) ==
        cta_focals.end()) {
      fresh.push_back(id);
    }
  }
  if (fresh.size() < 2 * (kServingFreshPerBatch + kServingRepeatsPerBatch)) {
    throw std::runtime_error("k-skyband too small for the query mix");
  }
  Shuffle(&fresh, &rng);

  KsprOptions pcta;
  pcta.k = kServingK;
  pcta.algorithm = Algorithm::kPcta;
  pcta.finalize_geometry = false;
  KsprOptions cta = pcta;
  cta.algorithm = Algorithm::kCta;

  EngineOptions engine_options;
  engine_options.workers = 1;
  engine_options.cache_capacity = 1u << 20;  // never evicts within a run
  engine_options.amortized_contexts = 2 * kServingCtaFocals;

  // Subscription replay state: the diff stream applied in order.
  std::map<SubscriptionId, KsprResult> replay;
  std::map<SubscriptionId, RecordId> sub_focal;
  int64_t gone_events = 0;
  auto on_event = [&](const SubscriptionEvent& e) {
    if (e.kind == SubscriptionEventKind::kFocalGone) {
      ++gone_events;
      return;
    }
    ApplyResultDiff(e.diff, &replay[e.subscription]);
  };

  // Set-up: index build, engine start, subscription registration and a
  // warm-up: a few P-CTA queries and one amortized build per CTA focal.
  std::unique_ptr<Dataset> data;
  std::unique_ptr<RTree> tree;
  std::unique_ptr<QueryEngine> engine;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    engine.reset();
    tree.reset();
    replay.clear();
    sub_focal.clear();
    data = std::make_unique<Dataset>(base);
    const auto t0 = Clock::now();
    tree = std::make_unique<RTree>(RTree::BulkLoad(*data));
    engine = std::make_unique<QueryEngine>(data.get(), tree.get(),
                                           engine_options);
    for (RecordId f : cta_focals) {
      const SubscriptionId id = engine->Subscribe(f, cta, on_event);
      if (id == kInvalidSubscription) run->Fail("subscribe_rejected");
      sub_focal[id] = f;
    }
    std::vector<QueryRequest> warm;
    for (size_t r = 0; r < kServingWarmFocals; ++r) {
      warm.push_back({Vec(), band[r], pcta, false});
    }
    for (RecordId f : cta_focals) warm.push_back({Vec(), f, cta, true});
    const std::vector<QueryResponse> warmed = engine->RunAll(warm);
    run->setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
    if (warmed.size() != warm.size()) run->Fail("warmup_short");
  }
  engine->ResetStats();

  FromScratch scratch(data.get());
  const size_t check_threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<QueryRequest> sub_requests;
  for (RecordId f : cta_focals) sub_requests.push_back({Vec(), f, cta, false});
  auto check_subscriptions = [&]() -> bool {
    scratch.Prefetch(sub_requests, check_threads);
    bool ok = true;
    for (const auto& [id, focal] : sub_focal) {
      ok = ResultsBitwiseEqual(replay[id], scratch.Get(focal, cta)) && ok;
    }
    return ok;
  };
  if (!check_subscriptions()) run->Fail("subscription_initial_mismatch");

  const size_t batches = Scaled(run->seconds, kServingBatchesPerSecond, 15);
  Tracer& tracer = run->tracer;
  int64_t request_id = 0;
  size_t next_fresh = 0;
  size_t next_cta = 0;
  std::vector<RecordId> previous;  // P-CTA focals of the previous batch
  std::vector<RecordId> what_if;   // records the last update batch added
  for (size_t b = 0; b < batches; ++b) {
    // Query batch: fresh focals, repeats of the previous batch's, and one
    // amortized CTA request; no focal twice.
    std::vector<QueryRequest> requests;
    std::unordered_set<RecordId> in_batch;
    while (requests.size() < kServingFreshPerBatch) {
      const RecordId f = fresh[next_fresh++ % fresh.size()];
      if (in_batch.insert(f).second) {
        requests.push_back({Vec(), f, pcta, false});
      }
    }
    Shuffle(&previous, &rng);
    for (RecordId f : previous) {
      if (requests.size() == kServingFreshPerBatch + kServingRepeatsPerBatch) {
        break;
      }
      if (in_batch.insert(f).second) {
        requests.push_back({Vec(), f, pcta, false});
      }
    }
    previous.clear();
    for (const QueryRequest& r : requests) previous.push_back(r.focal_id);
    requests.push_back(
        {Vec(), cta_focals[next_cta++ % cta_focals.size()], cta, true});
    const std::vector<QueryRequest> sent = requests;

    run->attempted += static_cast<int64_t>(sent.size());
    std::vector<QueryResponse> responses;
    std::vector<double> client_ms;
    {
      ScopedSpan batch_span(&tracer, "engine.batch", request_id);
      const auto t0 = Clock::now();
      std::vector<std::future<QueryResponse>> futures =
          engine->SubmitBatch(std::move(requests));
      for (auto& f : futures) {
        responses.push_back(f.get());
        client_ms.push_back(MillisBetween(t0, Clock::now()));
      }
      run->measured_ms += client_ms.back();
    }
    scratch.Prefetch(sent, check_threads);
    for (size_t q = 0; q < sent.size(); ++q, ++request_id) {
      const QueryResponse& r = responses[q];
      run->query_ms.push_back(client_ms[q]);
      run->queue_wait_ms.push_back(client_ms[q] - r.latency_ms);
      ++run->counts["queries"];
      run->digests.push_back(Digest(*r.result));
      if (!r.focal_live) {
        run->FailQuery("focal_not_live");
        continue;
      }
      if (!r.cache_hit) CountSolve(r.result->stats, run);
      const KsprResult& truth = scratch.Get(sent[q].focal_id, sent[q].options);
      const bool ok = sent[q].options.algorithm == Algorithm::kCta
                          ? ResultsBitwiseEqual(*r.result, truth)
                          : RegionSetsEqual(*r.result, truth);
      if (!ok) run->FailQuery("query_mismatch");
    }

    // Update batch between query batches: withdraw the previous batch's
    // records, add fresh ones.
    UpdateBatch update;
    for (int j = 0; j < kServingUpdateSize; ++j) {
      update.inserts.push_back(RandomRecord(&rng));
    }
    update.deletes = std::move(what_if);
    ++run->attempted;
    UpdateResult u;
    {
      ScopedSpan span(&tracer, "engine.update", -1);
      const auto t0 = Clock::now();
      u = engine->ApplyUpdates(update);
      const double ms = MillisBetween(t0, Clock::now());
      run->update_ms.push_back(ms);
      run->measured_ms += ms;
    }
    what_if = u.inserted_ids;
    ++run->counts["updates"];
    auto& c = run->counts;
    c["engine.sub_examined"] += static_cast<int64_t>(u.subscribers_examined);
    c["engine.sub_irrelevant"] +=
        static_cast<int64_t>(u.subscribers_irrelevant);
    c["engine.sub_notified"] += static_cast<int64_t>(u.subscribers_notified);
    scratch.Invalidate();
    if (!u.applied || u.deletes_applied != update.deletes.size() ||
        u.subscribers_terminated != 0 || !check_subscriptions()) {
      run->Fail("update_mismatch");
    }
  }

  const EngineStats::Snapshot s = engine->stats();
  auto& c = run->counts;
  c["engine.queries"] = s.queries;
  c["engine.cache_hits"] = s.cache_hits;
  c["engine.cache_misses"] = s.cache_misses;
  c["engine.cache_retained"] = s.cache_retained;
  c["engine.cache_dropped"] = s.cache_invalidated;
  c["engine.amortized_builds"] = s.amortized_builds;
  c["engine.amortized_reuses"] = s.amortized_reuses;
  c["engine.sub_delta"] = s.sub_delta;
  c["engine.sub_rebuilds"] = s.sub_rebuilds;
  c["engine.sub_events"] = s.sub_events;
  if (gone_events != 0) run->Fail("subscription_focal_gone");
}

// ---------------------------------------------------------------------------
// sharded-socket: a ShardRouter over real loopback sockets (one
// ShardServer per shard, no more shards than cores). One client runs
// P-CTA queries with finalisation on for distinct hypothetical focals —
// "where would a product like this one rank" — each a k-skyband record
// (a seed-shuffled cycle) jittered by up to 2% per attribute. Every
// kShardUpdateEvery queries a router update withdraws the previous
// what-if product and publishes a new one, jittered the same way, so
// nearly every batch changes a k-skyband and the two standing router
// subscriptions are recomputed through the scatter-gather path. (Uniform
// random inserts change a skyband in about 40% of batches, which would
// put update_p50_ms on the boundary between the 0.7 ms and 4 ms modes.)
// Each answer is checked bitwise against the
// in-process candidate pipeline over workers built by
// ShardRouter::PartitionDataset and kept in step with the same deltas;
// the traced run times that pipeline's stages.

constexpr int kShardK = 10;
constexpr double kShardQueriesPerSecond = 140.0;
constexpr size_t kShardUpdateEvery = 6;
constexpr int kShardSubscriptions = 2;

/// The in-process candidate pipeline of core/candidates.h over local
/// ShardWorkers — the reference the router's answer must equal bitwise.
class LocalPipeline {
 public:
  LocalPipeline(const Dataset& data, size_t shards) : map_(shards) {
    ShardWorkerOptions options;
    options.engine.workers = 1;
    std::vector<Dataset> slices = ShardRouter::PartitionDataset(data, map_);
    for (size_t s = 0; s < slices.size(); ++s) {
      workers_.push_back(std::make_unique<ShardWorker>(
          s, map_, std::move(slices[s]), options));
    }
  }

  /// Routes one global batch (ids as the router assigned them).
  void Apply(const std::vector<ShardInsert>& inserts,
             const std::vector<RecordId>& deletes) {
    std::vector<ShardUpdateRequest> requests(workers_.size());
    for (const ShardInsert& ins : inserts) {
      requests[map_.ShardOf(ins.global_id)].inserts.push_back(ins);
    }
    for (RecordId g : deletes) {
      requests[map_.ShardOf(g)].delete_global_ids.push_back(g);
    }
    for (size_t s = 0; s < workers_.size(); ++s) {
      if (!requests[s].inserts.empty() ||
          !requests[s].delete_global_ids.empty()) {
        workers_[s]->ApplyDelta(requests[s]);
      }
    }
  }

  /// Answers one query; spans record each stage when tracing is on, and
  /// the stage counters go to `run` when it is non-null.
  KsprResult Solve(const Vec& focal, const KsprOptions& options,
                   Tracer* tracer, int64_t request, Run* run) {
    int64_t bytes = 0;
    int64_t merged = 0;
    std::vector<Candidate> candidates;
    {
      ScopedSpan scatter(tracer, "shard.scatter", request);
      for (auto& worker : workers_) {
        ScopedSpan span(tracer, "shard.candidates", request);
        CandidateResponse response =
            worker->Candidates(CandidateRequest{options.k});
        span.Close();
        bytes += static_cast<int64_t>(net::Encode(response).size());
        candidates.insert(candidates.end(), response.candidates.begin(),
                          response.candidates.end());
      }
    }
    {
      ScopedSpan merge(tracer, "shard.merge", request);
      merged = static_cast<int64_t>(candidates.size());
      ReduceToGlobalSkyband(&candidates, options.k);
      FilterFocalCovered(&candidates, focal);
      SortCandidates(&candidates);
    }
    if (run != nullptr) {
      run->counts["net.response_bytes"] += bytes;
      run->counts["shard.candidates_merged"] += merged;
      run->counts["shard.candidates_solved"] +=
          static_cast<int64_t>(candidates.size());
    }
    ScopedSpan solve(tracer, "shard.solve", request);
    const RouterOptions defaults;
    return SolveOnCandidates(candidates, focal, options,
                             defaults.solve_leaf_capacity,
                             defaults.solve_fanout);
  }

 private:
  ShardMap map_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
};

void RunSharded(Run* run) {
  Rng rng(run->seed * 0x9e3779b97f4a7c15ULL + 3);
  const Dataset base = Catalog();
  const std::vector<RecordId> band = Skyband(base, kShardK);
  const std::vector<RecordId> sub_focals(band.begin(),
                                         band.begin() + kShardSubscriptions);
  const size_t queries = Scaled(run->seconds, kShardQueriesPerSecond, 100);
  const Vec warmup_focal = base.Get(band.back());
  std::vector<RecordId> order = band;
  Shuffle(&order, &rng);
  auto competitive = [&](size_t i) {
    Vec v = base.Get(order[i % order.size()]);
    for (int j = 0; j < kDim; ++j) {
      v[j] = std::clamp(v[j] * (1.0 + rng.Uniform(-0.02, 0.02)), 0.0, 1.0);
    }
    return v;
  };
  std::vector<Vec> focals;
  for (size_t i = 0; i < queries; ++i) focals.push_back(competitive(i));

  KsprOptions options;
  options.k = kShardK;
  options.algorithm = Algorithm::kPcta;
  options.finalize_geometry = true;

  RouterOptions router_options;
  router_options.num_shards =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  router_options.transport = TransportKind::kSocket;
  router_options.cache_capacity = 1u << 20;

  std::map<SubscriptionId, KsprResult> replay;
  std::map<SubscriptionId, RecordId> sub_focal;
  int64_t gone_events = 0;
  auto on_event = [&](const SubscriptionEvent& e) {
    if (e.kind == SubscriptionEventKind::kFocalGone) {
      ++gone_events;
      return;
    }
    ApplyResultDiff(e.diff, &replay[e.subscription]);
  };

  // Set-up: partition + shard index builds, socket servers, connections
  // (made lazily, so by a warm-up query), subscription registration.
  std::unique_ptr<ShardRouter> router;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    router.reset();
    replay.clear();
    sub_focal.clear();
    const auto t0 = Clock::now();
    router = ShardRouter::Create(base, router_options);
    const RouterQueryResult warm = router->Query(warmup_focal, options);
    for (RecordId f : sub_focals) {
      const SubscriptionId id = router->Subscribe(f, options, on_event);
      if (id == kInvalidSubscription) run->Fail("subscribe_rejected");
      sub_focal[id] = f;
    }
    run->setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
    if (warm.status != RouterStatus::kOk) run->Fail("warmup_unavailable");
  }
  const TransportStats::Snapshot net0 = router->transport_stats()->Get();

  Dataset mirror = base;
  LocalPipeline pipeline(mirror, router_options.num_shards);
  Tracer untraced(false);
  (void)pipeline.Solve(warmup_focal, options, &untraced, -1, nullptr);
  auto check_subscriptions = [&]() -> bool {
    bool ok = true;
    for (const auto& [id, focal] : sub_focal) {
      const KsprResult truth =
          pipeline.Solve(mirror.Get(focal), options, &untraced, -1, nullptr);
      ok = ResultsBitwiseEqual(replay[id], truth) && ok;
    }
    return ok;
  };
  if (!check_subscriptions()) run->Fail("subscription_initial_mismatch");

  Tracer& tracer = run->tracer;
  std::vector<RecordId> what_if;  // records the last update batch added
  for (size_t i = 0; i < queries; ++i) {
    if (i > 0 && i % kShardUpdateEvery == 0) {
      RouterUpdateBatch update;
      update.inserts.push_back(competitive(rng.UniformInt(order.size())));
      update.deletes = std::move(what_if);
      ++run->attempted;
      RouterUpdateResult u;
      {
        ScopedSpan span(&tracer, "router.update", -1);
        const auto t0 = Clock::now();
        u = router->ApplyUpdates(update);
        const double ms = MillisBetween(t0, Clock::now());
        run->update_ms.push_back(ms);
        run->measured_ms += ms;
      }
      ++run->counts["updates"];
      auto& c = run->counts;
      c["shard.cache_retained"] += static_cast<int64_t>(u.cache_retained);
      c["shard.cache_dropped"] += static_cast<int64_t>(u.cache_dropped);
      c["shard.sub_examined"] += static_cast<int64_t>(u.subscribers_examined);
      c["shard.sub_irrelevant"] +=
          static_cast<int64_t>(u.subscribers_irrelevant);
      c["shard.sub_notified"] += static_cast<int64_t>(u.subscribers_notified);
      what_if = u.inserted_global_ids;
      std::vector<ShardInsert> inserts;
      for (const Vec& v : update.inserts) {
        inserts.push_back({mirror.Insert(v), v});
      }
      for (RecordId g : update.deletes) mirror.Delete(g);
      bool ok = u.status == RouterStatus::kOk &&
                u.deletes_applied == update.deletes.size() &&
                u.inserted_global_ids.size() == inserts.size();
      for (size_t j = 0; ok && j < inserts.size(); ++j) {
        ok = u.inserted_global_ids[j] == inserts[j].global_id;
      }
      pipeline.Apply(inserts, update.deletes);
      if (!ok || gone_events != 0 || !check_subscriptions()) {
        run->Fail("update_mismatch");
      }
    }

    const Vec& focal = focals[i];
    const auto request = static_cast<int64_t>(i);
    ++run->attempted;
    ScopedSpan request_span(&tracer, "request", request);
    RouterQueryResult answer;
    double ms = 0.0;
    {
      ScopedSpan span(&tracer, "router.query", request);
      const auto t0 = Clock::now();
      answer = router->Query(focal, options);
      ms = MillisBetween(t0, Clock::now());
    }
    run->query_ms.push_back(ms);
    run->measured_ms += ms;
    ++run->counts["queries"];
    const KsprResult truth =
        pipeline.Solve(focal, options, &tracer, request, run);
    request_span.Close();
    run->digests.push_back(Digest(*answer.result));
    if (answer.status != RouterStatus::kOk) {
      run->FailQuery(std::string("router_") + ToString(answer.status));
      continue;
    }
    if (answer.cache_hit) ++run->counts["shard.router_cache_hits"];
    run->counts["shard.shard_cache_hits"] +=
        static_cast<int64_t>(answer.scatter.shard_cache_hits);
    CountSolve(answer.result->stats, run);
    if (!ResultsBitwiseEqual(*answer.result, truth)) {
      run->FailQuery("query_mismatch");
    }
  }

  const TransportStats::Snapshot net1 = router->transport_stats()->Get();
  auto& c = run->counts;
  c["net.requests"] = net1.requests - net0.requests;
  c["net.retries"] = net1.retries - net0.retries;
  c["net.failures"] = net1.failures - net0.failures;
  c["net.timeouts"] = net1.timeouts - net0.timeouts;
  c["net.reconnects"] = net1.reconnects - net0.reconnects;
  c["shard.num_shards"] = static_cast<int64_t>(router_options.num_shards);
  if (net1.failures != net0.failures) run->Fail("transport_failure");
}

// ---------------------------------------------------------------------------

void WriteNumbers(std::FILE* out, const char* key,
                  const std::vector<double>& v) {
  std::fprintf(out, "\"%s\":[", key);
  for (size_t i = 0; i < v.size(); ++i) {
    std::fprintf(out, "%s%.17g", i ? "," : "", v[i]);
  }
  std::fputs("],\n", out);
}

void WriteCounts(std::FILE* out, const char* key,
                 const std::map<std::string, int64_t>& m) {
  std::fprintf(out, "\"%s\":{", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::fprintf(out, "%s\"%s\":%lld", first ? "" : ",", k.c_str(),
                 static_cast<long long>(v));
    first = false;
  }
  std::fputs("},\n", out);
}

void Write(const Run& run, const std::string& workload, std::FILE* out) {
  std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%llu,\n", workload.c_str(),
               static_cast<unsigned long long>(run.seed));
  WriteNumbers(out, "setup_s", run.setup_s);
  WriteNumbers(out, "query_ms", run.query_ms);
  WriteNumbers(out, "update_ms", run.update_ms);
  WriteNumbers(out, "queue_wait_ms", run.queue_wait_ms);
  std::fprintf(out,
               "\"measured_ms\":%.17g,\n\"attempted\":%lld,\n"
               "\"failed_queries\":%lld,\n",
               run.measured_ms, static_cast<long long>(run.attempted),
               static_cast<long long>(run.failed_queries));
  WriteCounts(out, "failures", run.failures);
  WriteCounts(out, "counts", run.counts);
  std::fputs("\"digests\":[", out);
  for (size_t i = 0; i < run.digests.size(); ++i) {
    std::fprintf(out, "%s\"%016llx\"", i ? "," : "",
                 static_cast<unsigned long long>(run.digests[i]));
  }
  std::fputs("],\n\"spans\":", out);
  run.tracer.WriteJson(out);
  std::fputs("}\n", out);
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::map<std::string, void (*)(Run*)> workloads = {
      {"analyst-lpcta", RunAnalyst},
      {"serving-mixed", RunServing},
      {"sharded-socket", RunSharded},
  };
  const auto it = workloads.find(workload);
  if (it == workloads.end() || out_path.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: kspr_perfbench --workload "
                 "analyst-lpcta|serving-mixed|sharded-socket --seed N "
                 "--seconds S --trace 0|1 --out FILE\n");
    return 2;
  }
  Run run(seed, seconds, trace == 1);
  it->second(&run);
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::perror(out_path.c_str());
    return 1;
  }
  Write(run, workload, out);
  return std::fclose(out) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kspr::perfbench

int main(int argc, char** argv) {
  try {
    return kspr::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kspr_perfbench: %s\n", e.what());
    return 1;
  }
}
