// Dynamic-update subsystem tests: Dataset insert/delete with stable ids
// and versioning, the R-tree's dynamic maintenance (splits, condensation,
// page retirement), the version-stamped result cache (no stale result is
// ever served; provably unaffected entries are retained), the amortized
// CTA contexts (delta re-insertion bitwise-identical to a from-scratch
// run), and queries racing ApplyUpdates (TSan target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/amortized.h"
#include "core/solver.h"
#include "engine/query_engine.h"
#include "index/bbs.h"
#include "io/page_tracker.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::Compact;
using test::ExpectBitwiseEqual;
using test::FromScratch;
using test::OracleOptions;
using test::SyntheticInstance;

// ---------------------------------------------------------------------------
// Helpers.

// Brute-force skyline over the live records only.
std::vector<RecordId> BruteSkylineLive(const Dataset& data) {
  std::vector<RecordId> sky;
  for (RecordId i = 0; i < data.size(); ++i) {
    if (!data.IsLive(i)) continue;
    bool dominated = false;
    for (RecordId j = 0; j < data.size() && !dominated; ++j) {
      if (j == i || !data.IsLive(j)) continue;
      if (data.Dominates(j, i)) dominated = true;
    }
    if (!dominated) sky.push_back(i);
  }
  return sky;
}

Vec RandomPoint(int d, Rng* rng) {
  Vec r(d);
  for (int j = 0; j < d; ++j) r.v[j] = rng->Uniform();
  return r;
}

// ---------------------------------------------------------------------------
// Dataset: stable ids + versioning.

TEST(DatasetUpdates, VersionAndLiveness) {
  Dataset data(2);
  const uint64_t v0 = data.version();
  const RecordId a = data.Add(Vec{0.1, 0.2});
  const RecordId b = data.Insert(Vec{0.3, 0.4});
  EXPECT_EQ(data.version(), v0 + 2);
  EXPECT_EQ(data.size(), 2);
  EXPECT_EQ(data.num_live(), 2);
  EXPECT_TRUE(data.IsLive(a));

  EXPECT_TRUE(data.Delete(a));
  EXPECT_EQ(data.version(), v0 + 3);
  EXPECT_FALSE(data.IsLive(a));
  EXPECT_TRUE(data.IsLive(b));
  EXPECT_EQ(data.num_live(), 1);
  EXPECT_EQ(data.size(), 2);  // slots are never reclaimed

  EXPECT_FALSE(data.Delete(a));   // double delete
  EXPECT_FALSE(data.Delete(99));  // out of range
  EXPECT_FALSE(data.Delete(-1));
  EXPECT_EQ(data.version(), v0 + 3);  // failed deletes don't bump
}

TEST(DatasetUpdates, StableIdsAfterDelete) {
  Dataset data(3);
  data.Add(Vec{0.1, 0.2, 0.3});
  data.Add(Vec{0.4, 0.5, 0.6});
  data.Delete(0);
  // The tombstoned row stays addressable (hyperplane caches, in-flight
  // queries) and new inserts never reuse the id.
  EXPECT_EQ(data.At(0, 1), 0.2);
  const RecordId c = data.Insert(Vec{0.7, 0.8, 0.9});
  EXPECT_EQ(c, 2);
  EXPECT_EQ(data.Get(1)[2], 0.6);
}

// ---------------------------------------------------------------------------
// R-tree: dynamic maintenance.

TEST(RTreeDynamic, InsertFromEmptyKeepsInvariants) {
  Dataset data(3);
  RTree tree = RTree::BulkLoad(data, /*leaf_capacity=*/4, /*fanout=*/4);
  EXPECT_TRUE(tree.empty());
  Rng rng(7);
  std::string err;
  for (int i = 0; i < 300; ++i) {
    const RecordId id = data.Insert(RandomPoint(3, &rng));
    tree.Insert(data, id);
    if (i % 25 == 0) {
      ASSERT_TRUE(tree.CheckInvariants(data, &err)) << "i=" << i << ": "
                                                    << err;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants(data, &err)) << err;
  EXPECT_GT(tree.height(), 1);

  // The dynamically grown tree answers index queries correctly.
  std::vector<RecordId> sky = Skyline(data, tree);
  std::vector<RecordId> brute = BruteSkylineLive(data);
  std::sort(sky.begin(), sky.end());
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(sky, brute);
}

TEST(RTreeDynamic, DeleteCondensesAndDrains) {
  Dataset data = GenerateIndependent(400, 3, /*seed=*/11);
  RTree tree = RTree::BulkLoad(data, 4, 4);
  const int initial_nodes = tree.num_nodes();
  Rng rng(13);
  std::string err;

  // Delete in random order down to a handful of records.
  std::vector<RecordId> order(400);
  for (RecordId i = 0; i < 400; ++i) order[i] = i;
  for (int i = 399; i > 0; --i) {
    std::swap(order[i], order[rng.UniformInt(i + 1)]);
  }
  for (int i = 0; i < 396; ++i) {
    ASSERT_TRUE(tree.Delete(data, order[i])) << "i=" << i;
    ASSERT_TRUE(data.Delete(order[i]));
    if (i % 40 == 0) {
      ASSERT_TRUE(tree.CheckInvariants(data, &err)) << "i=" << i << ": "
                                                    << err;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants(data, &err)) << err;
  EXPECT_LT(tree.num_nodes(), initial_nodes);  // condensation freed nodes

  // Deleting a non-member fails cleanly.
  EXPECT_FALSE(tree.Delete(data, order[0]));

  // Drain completely, then grow again from empty.
  for (int i = 396; i < 400; ++i) {
    ASSERT_TRUE(tree.Delete(data, order[i]));
    ASSERT_TRUE(data.Delete(order[i]));
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.num_nodes(), 0);
  ASSERT_TRUE(tree.CheckInvariants(data, &err)) << err;

  Rng rng2(17);
  for (int i = 0; i < 50; ++i) {
    const RecordId id = data.Insert(RandomPoint(3, &rng2));
    tree.Insert(data, id);
  }
  ASSERT_TRUE(tree.CheckInvariants(data, &err)) << err;
}

TEST(RTreeDynamic, MixedChurnMatchesOracle) {
  Dataset data = GenerateIndependent(200, 2, /*seed=*/23);
  RTree tree = RTree::BulkLoad(data, 8, 8);
  Rng rng(29);
  std::string err;
  for (int step = 0; step < 600; ++step) {
    if (rng.Uniform() < 0.5 && data.num_live() > 20) {
      // Delete a random live record.
      RecordId victim;
      do {
        victim = static_cast<RecordId>(rng.UniformInt(data.size()));
      } while (!data.IsLive(victim));
      ASSERT_TRUE(tree.Delete(data, victim));
      ASSERT_TRUE(data.Delete(victim));
    } else {
      const RecordId id = data.Insert(RandomPoint(2, &rng));
      tree.Insert(data, id);
    }
    if (step % 60 == 0) {
      ASSERT_TRUE(tree.CheckInvariants(data, &err)) << "step " << step
                                                    << ": " << err;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants(data, &err)) << err;

  std::vector<RecordId> sky = Skyline(data, tree);
  std::vector<RecordId> brute = BruteSkylineLive(data);
  std::sort(sky.begin(), sky.end());
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(sky, brute);
}

TEST(RTreeDynamic, TrackerRetiresFreedPages) {
  Dataset data = GenerateIndependent(300, 2, /*seed=*/31);
  RTree tree = RTree::BulkLoad(data, 4, 4);
  PageTracker tracker(/*buffer_pages=*/1024);
  tree.SetTracker(&tracker);
  Skyline(data, tree);  // pull pages into the buffer
  EXPECT_GT(tracker.resident_pages(), 0);

  for (RecordId i = 0; i < 280; ++i) {
    ASSERT_TRUE(tree.Delete(data, i));
    ASSERT_TRUE(data.Delete(i));
  }
  EXPECT_GT(tracker.retired(), 0);  // freed nodes left the buffer

  // No phantom pages: everything still resident is a live node.
  for (int page : tracker.ResidentPages()) {
    EXPECT_TRUE(tree.IsLiveNode(page)) << "phantom page " << page;
  }
  tree.SetTracker(nullptr);
}

TEST(PageTrackerUnit, RetireAllFlushesButKeepsCounters) {
  PageTracker tracker(8);
  tracker.Access(1);
  tracker.Access(2);
  tracker.Access(3);
  tracker.RetireAll();
  EXPECT_EQ(tracker.resident_pages(), 0);
  EXPECT_EQ(tracker.retired(), 3);
  EXPECT_EQ(tracker.reads(), 3);     // history preserved
  EXPECT_EQ(tracker.accesses(), 3);
  tracker.Access(2);  // recycled id: a fresh read
  EXPECT_EQ(tracker.reads(), 4);
}

TEST(PageTrackerUnit, RetireRemovesResidency) {
  PageTracker tracker(4);
  tracker.Access(1);
  tracker.Access(2);
  EXPECT_EQ(tracker.reads(), 2);
  EXPECT_EQ(tracker.resident_pages(), 2);
  tracker.Retire(1);
  EXPECT_EQ(tracker.retired(), 1);
  EXPECT_EQ(tracker.resident_pages(), 1);
  tracker.Access(1);  // recycled id: must be a fresh read, not a hit
  EXPECT_EQ(tracker.reads(), 3);
  tracker.Retire(99);  // not resident: no-op
  EXPECT_EQ(tracker.retired(), 1);
}

// ---------------------------------------------------------------------------
// Result cache: version stamping.

std::shared_ptr<const KsprResult> DummyResult() {
  auto r = std::make_shared<KsprResult>();
  r->stats.result_regions = 1;
  return r;
}

TEST(ResultCacheVersion, PostUpdateGetMisses) {
  // Regression for the tentpole's minimal bug: without the version in the
  // key, a Get after a dataset mutation returned the stale entry.
  ResultCache cache(8);
  Vec focal{0.5, 0.5};
  KsprOptions options;
  const CacheKey before = CacheKey::Make(focal, 3, options, /*version=*/7);
  cache.Put(before, DummyResult());
  EXPECT_NE(cache.Get(before), nullptr);
  const CacheKey after = CacheKey::Make(focal, 3, options, /*version=*/8);
  EXPECT_EQ(cache.Get(after), nullptr) << "stale result served";
}

TEST(ResultCacheVersion, OnDatasetUpdateRestampsSurvivors) {
  ResultCache cache(8);
  KsprOptions options;
  const CacheKey a = CacheKey::Make(Vec{0.9, 0.9}, 1, options, 7);
  const CacheKey b = CacheKey::Make(Vec{0.2, 0.2}, 2, options, 7);
  cache.Put(a, DummyResult());
  cache.Put(b, DummyResult());

  const auto [dropped, retained] = cache.OnDatasetUpdate(
      8, [&](const CacheKey& key) { return key.focal_id == 2; });
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(retained, 1u);

  const CacheKey a_new = CacheKey::Make(Vec{0.9, 0.9}, 1, options, 8);
  const CacheKey b_new = CacheKey::Make(Vec{0.2, 0.2}, 2, options, 8);
  EXPECT_NE(cache.Get(a_new), nullptr) << "survivor not restamped";
  EXPECT_EQ(cache.Get(b_new), nullptr);
  EXPECT_EQ(cache.Get(a), nullptr) << "survivor still under old version";
}

TEST(ResultCacheVersion, RestampCollisionDropsStaleDuplicate) {
  // Two entries for the same logical query under different dataset
  // versions (possible through the public API: Put back a result computed
  // against an older version after a sweep). A sweep restamping both onto
  // the same new version must not double-count them as retained — the
  // index can point at only one list node; the older duplicate would be
  // orphaned (unreachable via Get, still occupying capacity).
  ResultCache cache(8);
  KsprOptions options;
  const Vec focal{0.9, 0.9};
  const CacheKey v1 = CacheKey::Make(focal, 1, options, /*version=*/7);
  const CacheKey v2 = CacheKey::Make(focal, 1, options, /*version=*/8);
  cache.Put(v2, DummyResult());
  cache.Put(v1, DummyResult());
  ASSERT_EQ(cache.size(), 2u);

  const auto [dropped, retained] =
      cache.OnDatasetUpdate(9, [](const CacheKey&) { return false; });
  EXPECT_EQ(dropped, 1u) << "stale duplicate silently orphaned";
  EXPECT_EQ(retained, 1u) << "cache_retained double-counted";
  EXPECT_EQ(cache.size(), 1u);

  const CacheKey v3 = CacheKey::Make(focal, 1, options, /*version=*/9);
  EXPECT_NE(cache.Get(v3), nullptr);

  // A second sweep sees a clean map: one entry, retained once.
  const auto [dropped2, retained2] =
      cache.OnDatasetUpdate(10, [](const CacheKey&) { return false; });
  EXPECT_EQ(dropped2, 0u);
  EXPECT_EQ(retained2, 1u);
}

// ---------------------------------------------------------------------------
// Engine: ApplyUpdates end to end.

EngineOptions SerialEngine(IndexUpdatePolicy policy,
                           size_t amortized_contexts = 0) {
  EngineOptions opts;
  opts.workers = 2;
  opts.update_policy = policy;
  opts.amortized_contexts = amortized_contexts;
  return opts;
}

TEST(EngineUpdates, ReadOnlyEngineRejectsUpdates) {
  SyntheticInstance inst(Distribution::kIndependent, 100, 2, 41);
  QueryEngine engine(&inst.data(), &inst.tree(), {.workers = 1});
  UpdateBatch batch;
  batch.inserts.push_back(Vec{0.5, 0.5});
  EXPECT_FALSE(engine.ApplyUpdates(batch).applied);
}

TEST(EngineUpdates, CacheMissesAfterUpdateAndResultIsFresh) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 43);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kRebuild));
  const RecordId focal = inst.sky(0);
  KsprOptions options = OracleOptions(Algorithm::kLpCta, 5);

  QueryResponse first = engine.SubmitRecord(focal, options).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(engine.SubmitRecord(focal, options).get().cache_hit);

  // Insert a strong record that definitely affects the focal's regions.
  UpdateBatch batch;
  batch.inserts.push_back(Vec{0.99, 0.99, 0.99});
  UpdateResult ur = engine.ApplyUpdates(batch);
  ASSERT_TRUE(ur.applied);
  EXPECT_EQ(ur.version, engine.dataset_version());

  QueryResponse after = engine.SubmitRecord(focal, options).get();
  EXPECT_FALSE(after.cache_hit) << "stale cache entry served post-update";
  ExpectBitwiseEqual(*after.result,
                     FromScratch(inst.data(), focal, options),
                     "post-update vs from-scratch");
}

TEST(EngineUpdates, TargetedInvalidationRetainsUnaffectedFocals) {
  // Handcrafted instance: focal A dominates the delta record, focal B does
  // not — only B's cached entry may be dropped.
  Dataset data(2);
  const RecordId a = data.Add(Vec{0.9, 0.9});
  const RecordId b = data.Add(Vec{0.85, 0.2});
  data.Add(Vec{0.3, 0.8});
  data.Add(Vec{0.7, 0.6});
  data.Add(Vec{0.2, 0.3});
  data.Add(Vec{0.6, 0.1});
  RTree tree = RTree::BulkLoad(data, 4, 4);
  QueryEngine engine(&data, &tree,
                     SerialEngine(IndexUpdatePolicy::kIncremental));
  KsprOptions options = OracleOptions(Algorithm::kCta, 3);

  EXPECT_FALSE(engine.SubmitRecord(a, options).get().cache_hit);
  EXPECT_FALSE(engine.SubmitRecord(b, options).get().cache_hit);

  // Delta (0.5, 0.5): dominated by A (0.9 > 0.5 both dims) but not by B
  // (0.2 < 0.5 in dim 1).
  UpdateBatch batch;
  batch.inserts.push_back(Vec{0.5, 0.5});
  UpdateResult ur = engine.ApplyUpdates(batch);
  EXPECT_EQ(ur.cache_retained, 1u);
  EXPECT_EQ(ur.cache_dropped, 1u);

  EXPECT_TRUE(engine.SubmitRecord(a, options).get().cache_hit)
      << "unaffected focal was invalidated";
  QueryResponse rb = engine.SubmitRecord(b, options).get();
  EXPECT_FALSE(rb.cache_hit) << "affected focal served stale";
  ExpectBitwiseEqual(*rb.result, FromScratch(data, b, options, 4, 4),
                     "recomputed focal B");

  // Deleting a record dominated by A (but not by B) behaves the same.
  UpdateBatch del;
  del.deletes.push_back(ur.inserted_ids[0]);
  UpdateResult ur2 = engine.ApplyUpdates(del);
  EXPECT_EQ(ur2.cache_retained, 1u);  // A survived both sweeps
  EXPECT_TRUE(engine.SubmitRecord(a, options).get().cache_hit);
  EXPECT_FALSE(engine.SubmitRecord(b, options).get().cache_hit);
}

TEST(EngineUpdates, LookAheadEntryDroppedOnDominatedInsert) {
  // Regression: LP-CTA and OLP-CTA read focal-covered records through
  // R-tree bounds, so a record the focal dominates still changes their
  // partition and stats. Their entries must not survive such a batch — a
  // retained hit would differ from a from-scratch run.
  for (Algorithm algo : {Algorithm::kLpCta, Algorithm::kOlpCta}) {
    SCOPED_TRACE(static_cast<int>(algo));
    SyntheticInstance inst(Distribution::kIndependent, 300, 3, 127);
    QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                       SerialEngine(IndexUpdatePolicy::kRebuild));
    const RecordId focal = test::MaxSumRecord(inst.data());
    const KsprOptions options = OracleOptions(algo, 4);
    engine.SubmitRecord(focal, options).get();

    Vec below = inst.data().Get(focal);
    for (int j = 0; j < below.dim; ++j) below.v[j] *= 0.999;
    UpdateBatch batch;
    batch.inserts.push_back(below);
    const UpdateResult ur = engine.ApplyUpdates(batch);
    EXPECT_EQ(ur.cache_retained, 0u);

    const QueryResponse after = engine.SubmitRecord(focal, options).get();
    EXPECT_FALSE(after.cache_hit);
    ExpectBitwiseEqual(*after.result,
                       FromScratch(inst.data(), focal, options),
                       "look-ahead re-query after dominated insert");
  }
}

TEST(EngineUpdates, TiedDeltaRetainsCtaAndPctaEntries) {
  // A record tying the focal on every attribute is skipped by the query
  // preprocessing exactly like a dominated one, so inserting and then
  // deleting it leaves CTA and P-CTA answers unchanged: both entries are
  // retained and every hit equals a from-scratch run (P-CTA bitwise
  // because kRebuild reproduces the from-scratch tree).
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 131);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kRebuild));
  const RecordId focal = test::MaxSumRecord(inst.data());
  const std::vector<KsprOptions> queries = {
      OracleOptions(Algorithm::kCta, 4), OracleOptions(Algorithm::kPcta, 4)};
  for (const KsprOptions& options : queries) {
    engine.SubmitRecord(focal, options).get();
  }

  const auto expect_retained_hits = [&](const UpdateResult& ur,
                                        const char* what) {
    EXPECT_EQ(ur.cache_retained, queries.size()) << what;
    EXPECT_EQ(ur.cache_dropped, 0u) << what;
    for (const KsprOptions& options : queries) {
      const QueryResponse hit = engine.SubmitRecord(focal, options).get();
      SCOPED_TRACE(static_cast<int>(options.algorithm));
      EXPECT_TRUE(hit.cache_hit) << what;
      ExpectBitwiseEqual(*hit.result, FromScratch(inst.data(), focal, options),
                         what);
    }
  };

  UpdateBatch insert;
  insert.inserts.push_back(inst.data().Get(focal));
  const UpdateResult inserted = engine.ApplyUpdates(insert);
  expect_retained_hits(inserted, "tie inserted");

  UpdateBatch remove;
  remove.deletes.push_back(inserted.inserted_ids[0]);
  expect_retained_hits(engine.ApplyUpdates(remove), "tie deleted");
}

TEST(EngineUpdates, RebuildPolicyFlushesTrackerResidency) {
  // Regression: the rebuilt tree recycles node ids, so the reattached
  // tracker must not keep residency for pages of the discarded tree
  // (phantom buffer hits, undercounted reads).
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 103);
  PageTracker tracker(/*buffer_pages=*/1024);
  inst.mutable_tree().SetTracker(&tracker);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kRebuild));
  KsprOptions options = OracleOptions(Algorithm::kLpCta, 4);
  engine.SubmitRecord(inst.sky(0), options).get();
  EXPECT_GT(tracker.resident_pages(), 0);

  Rng rng(107);
  UpdateBatch batch;
  batch.inserts.push_back(RandomPoint(3, &rng));
  ASSERT_TRUE(engine.ApplyUpdates(batch).index_rebuilt);
  EXPECT_EQ(tracker.resident_pages(), 0) << "stale residency survived";
  EXPECT_GT(tracker.retired(), 0);

  engine.SubmitRecord(inst.sky(1), options).get();
  for (int page : tracker.ResidentPages()) {
    EXPECT_TRUE(inst.tree().IsLiveNode(page)) << "phantom page " << page;
  }
  inst.mutable_tree().SetTracker(nullptr);
}

class UpdatePolicyBitwiseTest
    : public ::testing::TestWithParam<Algorithm> {};

TEST_P(UpdatePolicyBitwiseTest, RebuildPolicyMatchesFromScratch) {
  // Acceptance gate: after any insert/delete batch, a fresh query equals a
  // from-scratch build on the mutated dataset — bitwise, regions AND
  // stats. The kRebuild policy reproduces the from-scratch R-tree, so the
  // guarantee holds for every algorithm, index-driven ones included.
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 47);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kRebuild));
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(GetParam(), 6);
  options.finalize_geometry = true;  // cover the full pipeline

  Rng rng(53);
  for (int round = 0; round < 3; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 5; ++i) {
      batch.inserts.push_back(RandomPoint(3, &rng));
    }
    for (int i = 0; i < 5; ++i) {
      RecordId victim;
      do {
        victim = static_cast<RecordId>(rng.UniformInt(inst.data().size()));
      } while (!inst.data().IsLive(victim) || victim == focal);
      batch.deletes.push_back(victim);
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

    QueryResponse response = engine.SubmitRecord(focal, options).get();
    EXPECT_FALSE(response.cache_hit);
    ExpectBitwiseEqual(*response.result,
                       FromScratch(inst.data(), focal, options),
                       "rebuild-policy round");
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, UpdatePolicyBitwiseTest,
                         ::testing::Values(Algorithm::kCta,
                                           Algorithm::kPcta,
                                           Algorithm::kLpCta));

TEST(EngineUpdates, IncrementalCtaMatchesFromScratch) {
  // CTA never touches the R-tree, so even the incremental index policy is
  // bitwise-identical to a from-scratch rebuild.
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 59);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kIncremental));
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);

  Rng rng(61);
  for (int round = 0; round < 3; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 8; ++i) batch.inserts.push_back(RandomPoint(3, &rng));
    for (int i = 0; i < 8; ++i) {
      RecordId victim;
      do {
        victim = static_cast<RecordId>(rng.UniformInt(inst.data().size()));
      } while (!inst.data().IsLive(victim) || victim == focal);
      batch.deletes.push_back(victim);
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).applied);
    QueryResponse response = engine.SubmitRecord(focal, options).get();
    ExpectBitwiseEqual(*response.result,
                       FromScratch(inst.data(), focal, options),
                       "incremental CTA round");
    std::string err;
    ASSERT_TRUE(inst.tree().CheckInvariants(inst.data(), &err)) << err;
  }
}

TEST(EngineUpdates, IncrementalLpCtaIsRegionEquivalent) {
  // Under the incremental policy the R-tree shape diverges from a fresh
  // bulk load, so LP-CTA's traversal (counters, region order) may differ —
  // but the reported region SET must coincide with the from-scratch run.
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 67);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kIncremental));
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kLpCta, 6);

  Rng rng(71);
  UpdateBatch batch;
  for (int i = 0; i < 10; ++i) batch.inserts.push_back(RandomPoint(3, &rng));
  for (int i = 0; i < 10; ++i) {
    RecordId victim;
    do {
      victim = static_cast<RecordId>(rng.UniformInt(inst.data().size()));
    } while (!inst.data().IsLive(victim) || victim == focal);
    batch.deletes.push_back(victim);
  }
  ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

  const KsprResult incremental =
      *engine.SubmitRecord(focal, options).get().result;
  const KsprResult scratch = FromScratch(inst.data(), focal, options);

  ASSERT_EQ(incremental.regions.size(), scratch.regions.size());
  // Match each incremental region to a from-scratch region by witness
  // containment (cells of the same arrangement: witnesses identify them).
  std::vector<char> used(scratch.regions.size(), 0);
  for (const Region& region : incremental.regions) {
    bool matched = false;
    for (size_t j = 0; j < scratch.regions.size() && !matched; ++j) {
      if (used[j]) continue;
      if (scratch.regions[j].Contains(region.witness)) {
        EXPECT_EQ(scratch.regions[j].rank_lb, region.rank_lb);
        EXPECT_EQ(scratch.regions[j].rank_ub, region.rank_ub);
        used[j] = 1;
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << "incremental region with no from-scratch match";
  }
}

// ---------------------------------------------------------------------------
// Amortized CTA contexts.

TEST(Amortized, InsertOnlyDeltaIsBitwiseFromScratch) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 73);
  QueryEngine engine(
      &inst.mutable_data(), &inst.mutable_tree(),
      SerialEngine(IndexUpdatePolicy::kIncremental, /*amortized=*/4));
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);
  options.finalize_geometry = true;

  QueryRequest request;
  request.focal_id = focal;
  request.options = options;
  request.amortized = true;

  QueryResponse initial = engine.Submit(request).get();
  EXPECT_TRUE(initial.amortized);
  ExpectBitwiseEqual(*initial.result, FromScratch(inst.data(), focal, options),
                     "amortized initial build");
  EXPECT_EQ(engine.stats().amortized_builds, 1);

  Rng rng(79);
  for (int round = 0; round < 4; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 12; ++i) {
      batch.inserts.push_back(RandomPoint(3, &rng));
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

    QueryResponse response = engine.Submit(request).get();
    EXPECT_TRUE(response.amortized);
    EXPECT_FALSE(response.cache_hit);
    ExpectBitwiseEqual(*response.result,
                       FromScratch(inst.data(), focal, options),
                       "amortized delta round");
    // Re-query in the same version: served by the result cache.
    EXPECT_TRUE(engine.Submit(request).get().cache_hit);
  }
  // All four rounds reused the skeleton — no extra builds.
  EXPECT_EQ(engine.stats().amortized_builds, 1);
  EXPECT_EQ(engine.stats().amortized_reuses, 4);
}

TEST(Amortized, DominatorInsertForcesRebuild) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 83);
  QueryEngine engine(
      &inst.mutable_data(), &inst.mutable_tree(),
      SerialEngine(IndexUpdatePolicy::kIncremental, /*amortized=*/4));
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);

  QueryRequest request;
  request.focal_id = focal;
  request.options = options;
  request.amortized = true;
  engine.Submit(request).get();

  // Insert a record dominating the focal: k_effective changes, the cached
  // skeleton cannot be patched — the context must rebuild, and the result
  // must still equal a from-scratch run.
  Vec dominator = inst.data().Get(focal);
  for (int j = 0; j < 3; ++j) dominator.v[j] += 0.001;
  UpdateBatch batch;
  batch.inserts.push_back(dominator);
  ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

  QueryResponse response = engine.Submit(request).get();
  EXPECT_TRUE(response.amortized);
  ExpectBitwiseEqual(*response.result, FromScratch(inst.data(), focal, options),
                     "post-dominator rebuild");
  EXPECT_EQ(engine.stats().amortized_builds, 2);
  EXPECT_EQ(engine.stats().amortized_reuses, 0);
}

TEST(Amortized, DeleteBelowCursorForcesRebuild) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 89);
  QueryEngine engine(
      &inst.mutable_data(), &inst.mutable_tree(),
      SerialEngine(IndexUpdatePolicy::kIncremental, /*amortized=*/4));
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);

  QueryRequest request;
  request.focal_id = focal;
  request.options = options;
  request.amortized = true;
  engine.Submit(request).get();

  // Victim: a skyline record other than the focal — NOT dominated by the
  // focal, so the cached result is dropped (not retained) and the re-query
  // actually reaches the context. Any pre-existing id is below the cursor.
  RecordId victim = inst.sky(0);
  for (size_t i = 1; victim == focal; ++i) victim = inst.sky(i);
  UpdateBatch batch;
  batch.deletes.push_back(victim);
  ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

  QueryResponse response = engine.Submit(request).get();
  EXPECT_TRUE(response.amortized);
  ExpectBitwiseEqual(*response.result, FromScratch(inst.data(), focal, options),
                     "post-delete rebuild");
  EXPECT_EQ(engine.stats().amortized_builds, 2);
}

TEST(Amortized, RootDeadBuildSkipsPrefixOnAdvance) {
  // f = (0.5, 0.5); records 0 and 1 jointly outscore f on the entire
  // preference space, so with k_effective = 1 the tree dies during the
  // initial pass. Record 3 dominates f and is folded into k_effective by
  // the constructor's prep. Regression: the cursor must land past the
  // WHOLE prefix even on the early exit — otherwise Advance re-classifies
  // record 3 as a delta dominator and forces a from-scratch rebuild on
  // every single query.
  Dataset data(2);
  data.Add(Vec{0.9, 0.2});  // 0: outscores f for w0 > 3/7
  data.Add(Vec{0.2, 0.9});  // 1: outscores f for w0 < 4/7
  const RecordId focal = data.Add(Vec{0.5, 0.5});  // 2
  data.Add(Vec{0.6, 0.6});  // 3: dominator of f
  KsprOptions options = OracleOptions(Algorithm::kCta, 2);  // k_eff = 1

  AmortizedCta ctx(&data, data.Get(focal), focal, options);
  EXPECT_EQ(ctx.cursor(), data.size()) << "cursor stuck inside the prefix";

  // Insert-only delta on the dead tree: the context stays valid and its
  // harvest matches a from-scratch run (both report zero regions with
  // identical stats — the from-scratch insertion loop stops at the same
  // killer record).
  data.Insert(Vec{0.8, 0.3});
  EXPECT_TRUE(ctx.Advance()) << "prefix dominator re-classified as delta";
  RTree tree = RTree::BulkLoad(data, 4, 4);
  KsprSolver solver(&data, &tree);
  const KsprResult scratch = solver.QueryRecord(focal, options);
  EXPECT_TRUE(scratch.regions.empty());
  EXPECT_TRUE(ResultsBitwiseEqual(ctx.Collect(), scratch));

  // A delta dominator still invalidates (k_effective shrinks further:
  // the from-scratch run now returns an empty result with ZERO stats).
  data.Insert(Vec{0.7, 0.7});
  EXPECT_FALSE(ctx.Advance());
}

TEST(Amortized, DeletedFocalEvictsSlotAndQueryReportsNotLive) {
  // The amortized slots key on a version-zeroed CacheKey, so without
  // explicit eviction a slot outlives its focal record: a later amortized
  // query for the dead focal would rebuild a context from the tombstoned
  // row values and cache a "current" result for a record that no longer
  // exists.
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 109);
  QueryEngine engine(
      &inst.mutable_data(), &inst.mutable_tree(),
      SerialEngine(IndexUpdatePolicy::kIncremental, /*amortized=*/4));
  const RecordId focal = inst.sky(0);
  KsprOptions options = OracleOptions(Algorithm::kCta, 4);

  QueryRequest request;
  request.focal_id = focal;
  request.options = options;
  request.amortized = true;
  EXPECT_TRUE(engine.Submit(request).get().amortized);
  EXPECT_EQ(engine.stats().amortized_builds, 1);

  UpdateBatch batch;
  batch.deletes.push_back(focal);
  ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

  // Back-to-back batches: the second one must not resurrect anything.
  UpdateBatch more;
  more.inserts.push_back(Vec{0.4, 0.4, 0.4});
  ASSERT_TRUE(engine.ApplyUpdates(more).applied);

  QueryResponse dead = engine.Submit(request).get();
  EXPECT_FALSE(dead.focal_live);
  EXPECT_FALSE(dead.amortized);
  ASSERT_NE(dead.result, nullptr);
  EXPECT_TRUE(dead.result->regions.empty());
  EXPECT_EQ(engine.stats().amortized_builds, 1)
      << "dead focal rebuilt an amortized context";
  EXPECT_EQ(engine.cache_size(), 0u)
      << "dead-focal result cached under the current version";
}

TEST(Amortized, DominatedDeleteRetainsContext) {
  // Deleting a record the preprocessing skips (dominated by the focal) is
  // provably invisible to the skeleton: the context must be retained — and
  // its next harvest still bitwise-equal to a from-scratch run over the
  // mutated dataset.
  Dataset data(2);
  const RecordId focal = data.Add(Vec{0.9, 0.9});
  data.Add(Vec{0.85, 0.2});
  data.Add(Vec{0.3, 0.8});
  const RecordId dominated = data.Add(Vec{0.5, 0.5});
  data.Add(Vec{0.2, 0.3});
  data.Add(Vec{0.7, 0.6});
  RTree tree = RTree::BulkLoad(data, 4, 4);
  QueryEngine engine(
      &data, &tree,
      SerialEngine(IndexUpdatePolicy::kIncremental, /*amortized=*/4));
  KsprOptions options = OracleOptions(Algorithm::kCta, 3);

  QueryRequest request;
  request.focal_id = focal;
  request.options = options;
  request.amortized = true;
  engine.Submit(request).get();
  EXPECT_EQ(engine.stats().amortized_builds, 1);

  UpdateBatch batch;
  batch.deletes.push_back(dominated);
  UpdateResult ur = engine.ApplyUpdates(batch);
  ASSERT_TRUE(ur.applied);
  EXPECT_EQ(ur.cache_retained, 1u);  // the focal dominates the victim

  // Drop the (correctly retained) cache entry so the re-query actually
  // reaches the amortized context instead of the cache.
  engine.ClearCache();
  QueryResponse response = engine.Submit(request).get();
  EXPECT_TRUE(response.amortized);
  EXPECT_FALSE(response.cache_hit);
  ExpectBitwiseEqual(*response.result,
                     FromScratch(data, focal, options, 4, 4),
                     "retained context after dominated delete");
  EXPECT_EQ(engine.stats().amortized_builds, 1)
      << "provably invisible delete rebuilt the context";
  EXPECT_EQ(engine.stats().amortized_reuses, 1);
}

TEST(EngineUpdates, NoOpBatchDoesNotInflateCacheRetained) {
  // A batch with no effective mutation (deletes of already-dead ids) must
  // not run the retention sweep: back-to-back no-op batches would restamp
  // every entry onto its own version and count the whole cache as
  // retained again each time.
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 113);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(),
                     SerialEngine(IndexUpdatePolicy::kIncremental));
  KsprOptions options = OracleOptions(Algorithm::kLpCta, 4);
  engine.SubmitRecord(inst.sky(0), options).get();
  engine.SubmitRecord(inst.sky(1), options).get();
  ASSERT_EQ(engine.cache_size(), 2u);

  const uint64_t version = engine.dataset_version();
  UpdateBatch dead_delete;
  dead_delete.deletes.push_back(inst.data().size() + 5);  // unknown id

  for (int i = 0; i < 3; ++i) {
    UpdateResult ur = engine.ApplyUpdates(i == 0 ? UpdateBatch{} : dead_delete);
    ASSERT_TRUE(ur.applied);
    EXPECT_EQ(ur.version, version) << "no-op batch bumped the version";
    EXPECT_EQ(ur.cache_dropped, 0u);
    EXPECT_EQ(ur.cache_retained, 0u) << "no-op batch counted retention";
  }
  EXPECT_EQ(engine.stats().cache_retained, 0);

  // Entries still hit under the unchanged version.
  EXPECT_TRUE(engine.SubmitRecord(inst.sky(0), options).get().cache_hit);
}

// ---------------------------------------------------------------------------
// Concurrency: queries racing ApplyUpdates (primary TSan target).

TEST(EngineUpdates, ConcurrentQueriesDuringUpdates) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 97);
  EngineOptions opts = SerialEngine(IndexUpdatePolicy::kIncremental,
                                    /*amortized=*/4);
  opts.workers = 4;
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), opts);

  std::vector<RecordId> focals;
  for (size_t i = 0; i < 6; ++i) focals.push_back(inst.sky(i));
  KsprOptions options = OracleOptions(Algorithm::kLpCta, 4);

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      KsprOptions my_options = options;
      my_options.algorithm = t == 0 ? Algorithm::kCta : Algorithm::kLpCta;
      for (int q = 0; q < 25; ++q) {
        QueryRequest request;
        request.focal_id = focals[(t + q) % focals.size()];
        request.options = my_options;
        request.amortized = t == 0;  // one thread exercises the contexts
        QueryResponse response = engine.Submit(request).get();
        if (response.result == nullptr) failed.store(true);
      }
    });
  }

  Rng rng(101);
  for (int round = 0; round < 12; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 4; ++i) batch.inserts.push_back(RandomPoint(3, &rng));
    RecordId victim;
    do {
      victim = static_cast<RecordId>(rng.UniformInt(inst.data().size()));
    } while (!inst.data().IsLive(victim) ||
             std::find(focals.begin(), focals.end(), victim) != focals.end());
    batch.deletes.push_back(victim);
    ASSERT_TRUE(engine.ApplyUpdates(batch).applied);
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  // Quiesced end state: a fresh query equals the from-scratch build (CTA:
  // exact under the incremental policy).
  KsprOptions cta = OracleOptions(Algorithm::kCta, 4);
  QueryResponse final_response = engine.SubmitRecord(focals[0], cta).get();
  ExpectBitwiseEqual(*final_response.result,
                     FromScratch(inst.data(), focals[0], cta),
                     "post-race state");
  std::string err;
  ASSERT_TRUE(inst.tree().CheckInvariants(inst.data(), &err)) << err;
}

// Regression: the amortized sweep in ApplyUpdates used to touch slot->ctx
// under amortized_mu_ alone, leaning on the writer quiesce instead of the
// slot mutex that guards the context everywhere else. The sweep now takes
// slot.mu (lock order update_mu_ -> amortized_mu_ -> slot.mu). This drives
// the sweep's both arms — dead-focal slot eviction and per-delete context
// invalidation — while reader threads churn the same slot list with
// amortized queries, then checks the quiesced end state.
TEST(Amortized, SweepRacesAmortizedQueries) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 113);
  EngineOptions opts = SerialEngine(IndexUpdatePolicy::kIncremental,
                                    /*amortized=*/6);
  opts.workers = 4;
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), opts);

  // Capacity covers all six focals, so the two doomed slots seeded here
  // are still resident when their records are deleted mid-run — the
  // sweep's erase path runs deterministically, not only when LRU churn
  // happens to spare them.
  std::vector<RecordId> focals;
  for (size_t i = 0; i < 6; ++i) focals.push_back(inst.sky(i));
  KsprOptions options = OracleOptions(Algorithm::kCta, 4);
  for (RecordId doomed : {focals[4], focals[5]}) {
    QueryRequest seed;
    seed.focal_id = doomed;
    seed.options = options;
    seed.amortized = true;
    ASSERT_NE(engine.Submit(seed).get().result, nullptr);
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int q = 0; q < 25; ++q) {
        QueryRequest request;
        request.focal_id = focals[(t + q) % 4];  // live focals only
        request.options = options;
        request.amortized = true;
        QueryResponse response = engine.Submit(request).get();
        if (response.result == nullptr) failed.store(true);
      }
    });
  }

  Rng rng(127);
  bool doomed_deleted = false;
  for (int round = 0; round < 12; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 4; ++i) batch.inserts.push_back(RandomPoint(3, &rng));
    if (round == 5) {
      batch.deletes.push_back(focals[4]);
      batch.deletes.push_back(focals[5]);
      doomed_deleted = true;
    } else {
      // Random victims keep the per-delete invalidation arm busy.
      RecordId victim;
      do {
        victim = static_cast<RecordId>(rng.UniformInt(inst.data().size()));
      } while (!inst.data().IsLive(victim) ||
               std::find(focals.begin(), focals.end(), victim) !=
                   focals.end());
      batch.deletes.push_back(victim);
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).applied);
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  ASSERT_TRUE(doomed_deleted);

  // Quiesced: an amortized query on a surviving focal is bitwise equal to
  // the from-scratch build over the post-churn dataset.
  QueryRequest request;
  request.focal_id = focals[0];
  request.options = options;
  request.amortized = true;
  QueryResponse response = engine.Submit(request).get();
  ASSERT_NE(response.result, nullptr);
  ExpectBitwiseEqual(*response.result,
                     FromScratch(inst.data(), focals[0], options),
                     "post-sweep amortized state");
}

}  // namespace
}  // namespace kspr
