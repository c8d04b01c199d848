// Concurrent batch query engine tests: thread-pool and LRU-cache units,
// bitwise identity of parallel batch results against serial KsprSolver
// runs, cache-hit accounting, and drain-on-shutdown with queued work.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <vector>

#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "engine/thread_pool.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::SyntheticInstance;

// Exact (bitwise) equality of two full results, including geometry.
bool SameResult(const KsprResult& a, const KsprResult& b) {
  if (a.regions.size() != b.regions.size()) return false;
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const Region& ra = a.regions[i];
    const Region& rb = b.regions[i];
    if (ra.dim != rb.dim || ra.space != rb.space) return false;
    if (ra.rank_lb != rb.rank_lb || ra.rank_ub != rb.rank_ub) return false;
    if (!(ra.witness == rb.witness)) return false;
    if (ra.volume != rb.volume) return false;
    if (ra.constraints.size() != rb.constraints.size()) return false;
    for (size_t c = 0; c < ra.constraints.size(); ++c) {
      if (ra.constraints[c].b != rb.constraints[c].b) return false;
      if (!(ra.constraints[c].a == rb.constraints[c].a)) return false;
    }
    if (ra.vertices.size() != rb.vertices.size()) return false;
    for (size_t v = 0; v < ra.vertices.size(); ++v) {
      if (!(ra.vertices[v] == rb.vertices[v])) return false;
    }
  }
  return a.stats.processed_records == b.stats.processed_records &&
         a.stats.cell_tree_nodes == b.stats.cell_tree_nodes &&
         a.stats.result_regions == b.stats.result_regions;
}

// --------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEveryTaskOnValidWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> ran{0};
  std::atomic<bool> bad_worker{false};
  for (int i = 0; i < 64; ++i) {
    pool.Post([&](int worker) {
      if (worker < 0 || worker >= 4) bad_worker = true;
      ran.fetch_add(1);
    });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_FALSE(bad_worker.load());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // one worker so tasks genuinely queue up
    for (int i = 0; i < 32; ++i) {
      pool.Post([&](int) { ran.fetch_add(1); });
    }
  }  // destructor must run all 32 without deadlocking
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Post([](int) {});
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
}

// --------------------------------------------------------------------------
// ResultCache

CacheKey KeyFor(RecordId id, int k) {
  KsprOptions options;
  options.k = k;
  Vec focal{0.5, 0.5};
  return CacheKey::Make(focal, id, options);
}

std::shared_ptr<const KsprResult> DummyResult(int64_t regions) {
  auto r = std::make_shared<KsprResult>();
  r->stats.result_regions = regions;
  return r;
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Put(KeyFor(1, 5), DummyResult(1));
  cache.Put(KeyFor(2, 5), DummyResult(2));
  ASSERT_NE(cache.Get(KeyFor(1, 5)), nullptr);  // promotes key 1
  cache.Put(KeyFor(3, 5), DummyResult(3));      // evicts key 2
  EXPECT_EQ(cache.Get(KeyFor(2, 5)), nullptr);
  EXPECT_NE(cache.Get(KeyFor(1, 5)), nullptr);
  EXPECT_NE(cache.Get(KeyFor(3, 5)), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Put(KeyFor(1, 5), DummyResult(1));
  EXPECT_EQ(cache.Get(KeyFor(1, 5)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, KeyDistinguishesOptions) {
  ResultCache cache(8);
  cache.Put(KeyFor(1, 5), DummyResult(1));
  EXPECT_EQ(cache.Get(KeyFor(1, 6)), nullptr);  // different k
  KsprOptions options;
  options.k = 5;
  KsprOptions other = options;
  other.bound_mode = BoundMode::kRecord;
  Vec focal{0.5, 0.5};
  cache.Put(CacheKey::Make(focal, 1, options), DummyResult(1));
  EXPECT_EQ(cache.Get(CacheKey::Make(focal, 1, other)), nullptr);
  EXPECT_NE(cache.Get(CacheKey::Make(focal, 1, options)), nullptr);
}

// --------------------------------------------------------------------------
// QueryEngine

TEST(QueryEngine, ParallelBatchMatchesSerialSolverBitwise) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 2026);
  const std::vector<Algorithm> algos = {Algorithm::kCta, Algorithm::kPcta,
                                        Algorithm::kLpCta,
                                        Algorithm::kSkybandCta};
  std::vector<QueryRequest> requests;
  for (Algorithm algo : algos) {
    for (int f = 0; f < 4; ++f) {
      QueryRequest request;
      request.focal_id = inst.sky(f);
      request.options.k = 5;
      request.options.algorithm = algo;  // finalize_geometry stays on
      requests.push_back(request);
    }
  }

  EngineOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 0;  // every query runs the solver
  QueryEngine engine(&inst.data(), &inst.tree(), opts);
  std::vector<QueryResponse> responses = engine.RunAll(requests);

  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NE(responses[i].result, nullptr);
    EXPECT_FALSE(responses[i].cache_hit);
    KsprResult serial = inst.solver().QueryRecord(requests[i].focal_id,
                                                  requests[i].options);
    EXPECT_TRUE(SameResult(*responses[i].result, serial))
        << "request " << i << " diverged from the serial solver";
  }
  EngineStats::Snapshot stats = engine.stats();
  EXPECT_EQ(stats.queries, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, static_cast<int64_t>(requests.size()));
  EXPECT_GT(stats.lp_calls, 0);
}

TEST(QueryEngine, HypotheticalFocalMatchesSolverQuery) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 7);
  QueryRequest request;
  request.focal = inst.data().Get(inst.sky(0));  // by value, no id
  request.options.k = 4;
  QueryEngine engine(&inst.data(), &inst.tree(), {.workers = 2});
  QueryResponse response = engine.Submit(request).get();
  ASSERT_NE(response.result, nullptr);
  KsprResult serial = inst.solver().Query(request.focal, request.options);
  EXPECT_TRUE(SameResult(*response.result, serial));
}

TEST(QueryEngine, OutOfRangeFocalIdIsNotLive) {
  // Ids outside [0, size) name no record: the engine must not read a row
  // for them, and answers focal_live = false without computing or caching.
  SyntheticInstance inst(Distribution::kIndependent, 120, 3, 17);
  QueryEngine engine(&inst.data(), &inst.tree(), {.workers = 2});
  KsprOptions options;
  options.k = 4;
  const RecordId n = inst.data().size();
  std::vector<QueryRequest> requests;
  for (RecordId id : {n, n + 100, RecordId{-7}}) {
    SCOPED_TRACE(id);
    const QueryResponse response = engine.SubmitRecord(id, options).get();
    EXPECT_FALSE(response.focal_live);
    EXPECT_FALSE(response.cache_hit);
    ASSERT_NE(response.result, nullptr);
    EXPECT_TRUE(response.result->regions.empty());
    QueryRequest request;
    request.focal_id = id;
    request.options = options;
    requests.push_back(request);
  }
  for (const QueryResponse& response : engine.RunAll(requests)) {
    EXPECT_FALSE(response.focal_live);
    EXPECT_FALSE(response.cache_hit);
    ASSERT_NE(response.result, nullptr);
    EXPECT_TRUE(response.result->regions.empty());
  }
  EXPECT_EQ(engine.cache_size(), 0u);
  EXPECT_EQ(engine.stats().lp_calls, 0);
}

TEST(QueryEngine, CacheHitsReturnIdenticalResultsAndAreCounted) {
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 11);
  KsprOptions options;
  options.k = 5;
  EngineOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 16;
  QueryEngine engine(&inst.data(), &inst.tree(), opts);

  QueryResponse first = engine.SubmitRecord(inst.sky(0), options).get();
  QueryResponse second = engine.SubmitRecord(inst.sky(0), options).get();
  ASSERT_NE(first.result, nullptr);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  // A hit shares the exact cached object — identical by construction.
  EXPECT_EQ(second.result.get(), first.result.get());

  // A different k is a different key, not a hit.
  KsprOptions other = options;
  other.k = 6;
  QueryResponse third = engine.SubmitRecord(inst.sky(0), other).get();
  EXPECT_FALSE(third.cache_hit);

  EngineStats::Snapshot stats = engine.stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(engine.cache_size(), 2u);

  engine.ClearCache();
  EXPECT_EQ(engine.cache_size(), 0u);
  QueryResponse fourth = engine.SubmitRecord(inst.sky(0), options).get();
  EXPECT_FALSE(fourth.cache_hit);
  EXPECT_TRUE(SameResult(*fourth.result, *first.result));
}

TEST(QueryEngine, ShutdownWithQueuedWorkFulfillsEveryFuture) {
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 5);
  std::vector<std::future<QueryResponse>> futures;
  {
    EngineOptions opts;
    opts.workers = 1;  // force a deep queue
    opts.cache_capacity = 0;
    QueryEngine engine(&inst.data(), &inst.tree(), opts);
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 12; ++i) {
      QueryRequest request;
      request.focal_id = inst.sky(i);
      request.options.k = 4;
      requests.push_back(request);
    }
    futures = engine.SubmitBatch(std::move(requests));
  }  // engine destroyed with most queries still queued
  for (std::future<QueryResponse>& future : futures) {
    ASSERT_TRUE(future.valid());
    QueryResponse response = future.get();  // must not throw broken_promise
    EXPECT_NE(response.result, nullptr);
  }
}

TEST(QueryEngine, RunAllUsesMultipleWorkers) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 13);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 16; ++i) {
    QueryRequest request;
    request.focal_id = inst.sky(i);
    request.options.k = 5;
    requests.push_back(request);
  }
  QueryEngine engine(&inst.data(), &inst.tree(), {.workers = 4});
  std::vector<QueryResponse> responses = engine.RunAll(requests);
  std::set<int> workers;
  for (const QueryResponse& response : responses) {
    ASSERT_GE(response.worker, 0);
    ASSERT_LT(response.worker, 4);
    ASSERT_GE(response.latency_ms, 0.0);
    workers.insert(response.worker);
  }
  // With 16 queries claimed from a shared index, at least one worker ran;
  // on a multicore machine typically several did. (Exact distribution is
  // scheduling-dependent, so only sanity-check the ids.)
  EXPECT_GE(workers.size(), 1u);
}

}  // namespace
}  // namespace kspr
