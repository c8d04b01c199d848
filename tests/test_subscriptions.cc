// Standing-subscription tests: the ResultDiff splice machinery, the three
// per-batch classification paths (irrelevant / delta-insertable /
// rebuild-forcing), deleted-focal termination, and — the acceptance
// criterion — diff-stream replay reproducing the from-scratch regions
// bitwise after every update batch. Also a TSan target: subscriptions and
// Execute racing ApplyUpdates under the quiesce lock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/region.h"
#include "core/solver.h"
#include "engine/query_engine.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::ExpectBitwiseEqual;
using test::FromScratch;
using test::OracleOptions;
using test::SyntheticInstance;

// ---------------------------------------------------------------------------
// Helpers.

Vec RandomPoint(int d, Rng* rng) {
  Vec r(d);
  for (int j = 0; j < d; ++j) r.v[j] = rng->Uniform();
  return r;
}

EngineOptions SubEngine() {
  EngineOptions opts;
  opts.workers = 2;
  opts.update_policy = IndexUpdatePolicy::kIncremental;
  return opts;
}

// A subscriber-side replayer: applies every received diff in order to a
// local copy, exactly as a remote client maintaining its region set would.
struct Replayer {
  KsprResult state;
  std::vector<SubscriptionEvent> events;
  bool terminated = false;

  SubscriptionCallback Callback() {
    return [this](const SubscriptionEvent& event) {
      events.push_back(event);
      if (event.kind == SubscriptionEventKind::kFocalGone) {
        terminated = true;
        return;
      }
      ApplyResultDiff(event.diff, &state);
    };
  }
};

Region MakeRegion(double x, int rank) {
  Region r;
  r.space = Space::kTransformed;
  r.dim = 1;
  r.witness = Vec{x};
  r.rank_lb = rank;
  r.rank_ub = rank;
  return r;
}

// ---------------------------------------------------------------------------
// ResultDiff unit tests.

TEST(ResultDiff, EmptyForIdenticalResults) {
  KsprResult a;
  a.regions.push_back(MakeRegion(0.1, 1));
  a.regions.push_back(MakeRegion(0.2, 2));
  a.stats.processed_records = 5;
  const ResultDiff diff = DiffResults(a, a);
  EXPECT_TRUE(diff.Empty());
  KsprResult b = a;
  ApplyResultDiff(diff, &b);
  EXPECT_TRUE(ResultsBitwiseEqual(a, b));
}

TEST(ResultDiff, SpliceTrimsCommonPrefixAndSuffix) {
  KsprResult before;
  for (int i = 0; i < 5; ++i) before.regions.push_back(MakeRegion(0.1 * i, i));
  KsprResult after = before;
  // Replace the middle region (index 2) by two new ones.
  after.regions[2] = MakeRegion(0.77, 9);
  after.regions.insert(after.regions.begin() + 3, MakeRegion(0.88, 10));
  after.stats.processed_records = 42;

  const ResultDiff diff = DiffResults(before, after);
  EXPECT_EQ(diff.splice_begin, 2u);
  EXPECT_EQ(diff.regions_removed, 1u);
  EXPECT_EQ(diff.regions_added.size(), 2u);
  EXPECT_TRUE(diff.stats_changed);

  KsprResult replayed = before;
  ApplyResultDiff(diff, &replayed);
  ExpectBitwiseEqual(after, replayed, "splice replay");
}

TEST(ResultDiff, GrowShrinkAndStatsOnly) {
  KsprResult empty;
  KsprResult grown;
  for (int i = 0; i < 3; ++i) grown.regions.push_back(MakeRegion(0.2 * i, i));
  grown.stats.processed_records = 3;

  // empty -> grown (the kInitial shape).
  ResultDiff up = DiffResults(empty, grown);
  EXPECT_EQ(up.splice_begin, 0u);
  EXPECT_EQ(up.regions_removed, 0u);
  EXPECT_EQ(up.regions_added.size(), 3u);
  KsprResult replayed;
  ApplyResultDiff(up, &replayed);
  ExpectBitwiseEqual(grown, replayed, "grow replay");

  // grown -> empty.
  ResultDiff down = DiffResults(grown, empty);
  EXPECT_EQ(down.regions_removed, 3u);
  EXPECT_TRUE(down.regions_added.empty());
  ApplyResultDiff(down, &replayed);
  ExpectBitwiseEqual(empty, replayed, "shrink replay");

  // Stats-only change: identical regions, different counters (the shape a
  // delta advance produces when every delta hyperplane misses the cells).
  KsprResult recounted = grown;
  recounted.stats.feasibility_lps = 7;
  ResultDiff stats_only = DiffResults(grown, recounted);
  EXPECT_FALSE(stats_only.Empty());
  EXPECT_EQ(stats_only.regions_removed, 0u);
  EXPECT_TRUE(stats_only.regions_added.empty());
  EXPECT_TRUE(stats_only.stats_changed);
  KsprResult target = grown;
  ApplyResultDiff(stats_only, &target);
  ExpectBitwiseEqual(recounted, target, "stats-only replay");
}

// ---------------------------------------------------------------------------
// Subscribe: initial event and API validation.

TEST(Subscriptions, InitialEventReproducesFromScratch) {
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 301);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 5);

  Replayer replayer;
  const SubscriptionId id =
      engine.Subscribe(focal, options, replayer.Callback());
  ASSERT_NE(id, kInvalidSubscription);
  EXPECT_EQ(engine.num_subscriptions(), 1u);
  ASSERT_EQ(replayer.events.size(), 1u);
  EXPECT_EQ(replayer.events[0].kind, SubscriptionEventKind::kInitial);
  EXPECT_EQ(replayer.events[0].version, engine.dataset_version());

  ExpectBitwiseEqual(replayer.state, FromScratch(inst.data(), focal, options),
                     "initial replay vs from-scratch");

  EXPECT_TRUE(engine.Unsubscribe(id));
  EXPECT_FALSE(engine.Unsubscribe(id));
  EXPECT_EQ(engine.num_subscriptions(), 0u);
}

TEST(Subscriptions, RejectsInvalidRequests) {
  SyntheticInstance inst(Distribution::kIndependent, 100, 2, 303);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  KsprOptions cta = OracleOptions(Algorithm::kCta, 3);

  // Non-CTA algorithms cannot be maintained through the CTA skeleton.
  EXPECT_EQ(engine.Subscribe(inst.sky(0), OracleOptions(Algorithm::kLpCta, 3),
                             [](const SubscriptionEvent&) {}),
            kInvalidSubscription);
  // Out-of-range and dead focals.
  EXPECT_EQ(engine.Subscribe(kInvalidRecord, cta, nullptr),
            kInvalidSubscription);
  EXPECT_EQ(engine.Subscribe(inst.data().size(), cta, nullptr),
            kInvalidSubscription);
  RecordId victim = inst.sky(1);
  UpdateBatch batch;
  batch.deletes.push_back(victim);
  ASSERT_TRUE(engine.ApplyUpdates(batch).applied);
  EXPECT_EQ(engine.Subscribe(victim, cta, nullptr), kInvalidSubscription);
  EXPECT_EQ(engine.num_subscriptions(), 0u);
}

// ---------------------------------------------------------------------------
// Classification paths.

TEST(Subscriptions, IrrelevantBatchEmitsNothing) {
  // Handcrafted: the focal dominates every delta record, so the batch is
  // provably invisible — no event, and the maintained state still equals a
  // from-scratch run over the mutated dataset.
  Dataset data(2);
  const RecordId focal = data.Add(Vec{0.9, 0.9});
  data.Add(Vec{0.85, 0.2});
  data.Add(Vec{0.3, 0.8});
  const RecordId dominated = data.Add(Vec{0.5, 0.5});
  data.Add(Vec{0.2, 0.3});
  RTree tree = RTree::BulkLoad(data, 4, 4);
  QueryEngine engine(&data, &tree, SubEngine());
  KsprOptions options = OracleOptions(Algorithm::kCta, 3);

  Replayer replayer;
  ASSERT_NE(engine.Subscribe(focal, options, replayer.Callback()),
            kInvalidSubscription);

  UpdateBatch batch;
  batch.inserts.push_back(Vec{0.4, 0.6});   // dominated by (0.9, 0.9)
  batch.inserts.push_back(Vec{0.88, 0.1});  // also dominated
  batch.deletes.push_back(dominated);
  UpdateResult ur = engine.ApplyUpdates(batch);
  ASSERT_TRUE(ur.applied);
  EXPECT_EQ(ur.subscribers_examined, 1u);
  EXPECT_EQ(ur.subscribers_irrelevant, 1u);
  EXPECT_EQ(ur.subscribers_notified, 0u);
  ASSERT_EQ(replayer.events.size(), 1u) << "irrelevant batch emitted a diff";

  ExpectBitwiseEqual(replayer.state,
                     FromScratch(data, focal, options, 4, 4),
                     "irrelevant batch replay vs from-scratch");
  EXPECT_EQ(engine.stats().sub_irrelevant, 1);
}

TEST(Subscriptions, TiedDeltaIsIrrelevant) {
  // A record tying the focal on every attribute is skipped by the query
  // preprocessing, so inserting it and deleting it again are both
  // irrelevant batches: no event, and the replayed state still equals a
  // from-scratch run.
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 337);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  const RecordId focal = test::MaxSumRecord(inst.data());
  const KsprOptions options = OracleOptions(Algorithm::kCta, 5);

  Replayer replayer;
  ASSERT_NE(engine.Subscribe(focal, options, replayer.Callback()),
            kInvalidSubscription);

  UpdateBatch insert;
  insert.inserts.push_back(inst.data().Get(focal));
  const UpdateResult inserted = engine.ApplyUpdates(insert);
  UpdateBatch remove;
  remove.deletes.push_back(inserted.inserted_ids[0]);
  for (const UpdateResult& ur : {inserted, engine.ApplyUpdates(remove)}) {
    EXPECT_EQ(ur.subscribers_irrelevant, 1u);
    EXPECT_EQ(ur.subscribers_notified, 0u);
  }
  EXPECT_EQ(replayer.events.size(), 1u) << "tied delta emitted a diff";
  ExpectBitwiseEqual(replayer.state, FromScratch(inst.data(), focal, options),
                     "tied delta replay vs from-scratch");
}

TEST(Subscriptions, DeltaInsertableBatchPushesSpliceDiff) {
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 307);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);

  Replayer replayer;
  ASSERT_NE(engine.Subscribe(focal, options, replayer.Callback()),
            kInvalidSubscription);

  Rng rng(311);
  for (int round = 0; round < 3; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 10; ++i) {
      batch.inserts.push_back(RandomPoint(3, &rng));
    }
    UpdateResult ur = engine.ApplyUpdates(batch);
    ASSERT_TRUE(ur.applied);
    ExpectBitwiseEqual(replayer.state,
                       FromScratch(inst.data(), focal, options),
                       "delta round replay vs from-scratch");
  }
  // MaxSumRecord cannot acquire a dominator from uniform inserts with
  // probability ~1 at this seed; the classification must have stayed on
  // the delta path (no rebuilds).
  EXPECT_EQ(engine.stats().sub_rebuilds, 0);
  EXPECT_GE(engine.stats().sub_delta, 1);
  for (size_t e = 1; e < replayer.events.size(); ++e) {
    EXPECT_EQ(replayer.events[e].kind, SubscriptionEventKind::kDelta);
  }
}

TEST(Subscriptions, DominatorInsertForcesRebuildPath) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 313);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);

  Replayer replayer;
  ASSERT_NE(engine.Subscribe(focal, options, replayer.Callback()),
            kInvalidSubscription);

  Vec dominator = inst.data().Get(focal);
  for (int j = 0; j < 3; ++j) dominator.v[j] += 0.001;
  UpdateBatch batch;
  batch.inserts.push_back(dominator);
  UpdateResult ur = engine.ApplyUpdates(batch);
  ASSERT_TRUE(ur.applied);
  EXPECT_EQ(ur.subscribers_notified, 1u);
  ASSERT_EQ(replayer.events.size(), 2u);
  EXPECT_EQ(replayer.events[1].kind, SubscriptionEventKind::kRebuild);
  EXPECT_EQ(engine.stats().sub_rebuilds, 1);

  ExpectBitwiseEqual(replayer.state, FromScratch(inst.data(), focal, options),
                     "post-dominator replay vs from-scratch");
}

TEST(Subscriptions, DeleteBelowCursorForcesRebuildPath) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 317);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  const RecordId focal = test::MaxSumRecord(inst.data());
  KsprOptions options = OracleOptions(Algorithm::kCta, 6);

  Replayer replayer;
  ASSERT_NE(engine.Subscribe(focal, options, replayer.Callback()),
            kInvalidSubscription);

  // A skyline victim is never dominated by the focal: its hyperplane is
  // part of the subscriber's skeleton, so the delete forces a rebuild.
  RecordId victim = inst.sky(0);
  for (size_t i = 1; victim == focal; ++i) victim = inst.sky(i);
  UpdateBatch batch;
  batch.deletes.push_back(victim);
  UpdateResult ur = engine.ApplyUpdates(batch);
  ASSERT_TRUE(ur.applied);
  ASSERT_EQ(replayer.events.size(), 2u);
  EXPECT_EQ(replayer.events[1].kind, SubscriptionEventKind::kRebuild);
  EXPECT_EQ(engine.stats().sub_rebuilds, 1);

  ExpectBitwiseEqual(replayer.state, FromScratch(inst.data(), focal, options),
                     "post-delete replay vs from-scratch");
}

// ---------------------------------------------------------------------------
// Deleted focal: terminal event, no stale regions.

TEST(Subscriptions, DeletedFocalTerminatesWithFocalGone) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 331);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  const RecordId focal = inst.sky(0);
  KsprOptions options = OracleOptions(Algorithm::kCta, 4);

  Replayer replayer;
  ASSERT_NE(engine.Subscribe(focal, options, replayer.Callback()),
            kInvalidSubscription);
  ASSERT_EQ(engine.num_subscriptions(), 1u);

  UpdateBatch batch;
  batch.deletes.push_back(focal);
  UpdateResult ur = engine.ApplyUpdates(batch);
  ASSERT_TRUE(ur.applied);
  EXPECT_EQ(ur.subscribers_terminated, 1u);
  ASSERT_EQ(replayer.events.size(), 2u);
  EXPECT_EQ(replayer.events[1].kind, SubscriptionEventKind::kFocalGone);
  EXPECT_EQ(replayer.events[1].num_regions, 0u);
  EXPECT_TRUE(replayer.terminated);
  EXPECT_EQ(engine.num_subscriptions(), 0u) << "terminated sub not evicted";
  EXPECT_EQ(engine.stats().sub_focal_gone, 1);

  // Later batches must not resurrect the subscriber.
  Rng rng(337);
  UpdateBatch more;
  more.inserts.push_back(RandomPoint(3, &rng));
  ASSERT_TRUE(engine.ApplyUpdates(more).applied);
  EXPECT_EQ(replayer.events.size(), 2u);

  // The terminated id is gone for Unsubscribe too.
  EXPECT_FALSE(engine.Unsubscribe(replayer.events[1].subscription));

  // The engine-level guard: a direct query for the dead focal reports
  // focal_live = false with an empty placeholder instead of computing (and
  // caching) a region set for a record that no longer exists.
  QueryResponse dead = engine.SubmitRecord(focal, options).get();
  EXPECT_FALSE(dead.focal_live);
  ASSERT_NE(dead.result, nullptr);
  EXPECT_TRUE(dead.result->regions.empty());
  EXPECT_EQ(engine.cache_size(), 0u) << "dead-focal query was cached";
}

// ---------------------------------------------------------------------------
// Acceptance criterion: mixed insert/delete rounds, every subscriber's
// replayed diff stream bitwise-equal to from-scratch after every batch.

TEST(Subscriptions, MixedChurnReplayIsBitwiseFromScratchEveryBatch) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 347);
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), SubEngine());
  KsprOptions options = OracleOptions(Algorithm::kCta, 5);
  options.finalize_geometry = true;  // exercise the full diff payload

  constexpr size_t kSubs = 5;
  std::vector<RecordId> focals;
  std::vector<Replayer> replayers(kSubs);
  for (size_t s = 0; s < kSubs; ++s) {
    focals.push_back(inst.sky(s));
    ASSERT_NE(engine.Subscribe(focals[s], options, replayers[s].Callback()),
              kInvalidSubscription);
  }
  // One designated focal dies mid-run; the victim pool spares the others.
  const RecordId doomed = focals[2];

  Rng rng(349);
  for (int round = 0; round < 8; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 5; ++i) {
      batch.inserts.push_back(RandomPoint(3, &rng));
    }
    if (round == 3) {
      batch.deletes.push_back(doomed);
    } else {
      // Two random live victims that are not subscribed focals.
      while (batch.deletes.size() < 2) {
        const RecordId cand =
            static_cast<RecordId>(rng.UniformInt(inst.data().size()));
        if (!inst.data().IsLive(cand)) continue;
        if (std::find(focals.begin(), focals.end(), cand) != focals.end()) {
          continue;
        }
        if (std::find(batch.deletes.begin(), batch.deletes.end(), cand) !=
            batch.deletes.end()) {
          continue;
        }
        batch.deletes.push_back(cand);
      }
    }
    ASSERT_TRUE(engine.ApplyUpdates(batch).applied);

    for (size_t s = 0; s < kSubs; ++s) {
      if (focals[s] == doomed) {
        if (round >= 3) {
          EXPECT_TRUE(replayers[s].terminated);
        }
        continue;
      }
      ExpectBitwiseEqual(replayers[s].state,
                         FromScratch(inst.data(), focals[s], options),
                         "mixed churn replay");
    }
  }

  EXPECT_EQ(engine.num_subscriptions(), kSubs - 1);
  const EngineStats::Snapshot stats = engine.stats();
  EXPECT_EQ(stats.sub_focal_gone, 1);
  // All three classification paths must actually have been exercised.
  EXPECT_GE(stats.sub_rebuilds, 1);
  EXPECT_GE(stats.sub_delta + stats.sub_irrelevant, 1);
}

// ---------------------------------------------------------------------------
// Concurrency: subscriptions racing Execute under the quiesce lock
// (TSan target).

TEST(Subscriptions, SubscriptionsRacingExecuteUnderQuiesce) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 353);
  EngineOptions opts = SubEngine();
  opts.workers = 4;
  QueryEngine engine(&inst.mutable_data(), &inst.mutable_tree(), opts);
  KsprOptions options = OracleOptions(Algorithm::kCta, 4);

  std::vector<RecordId> focals;
  for (size_t i = 0; i < 6; ++i) focals.push_back(inst.sky(i));

  // Callbacks fire on the updater thread while readers pound Execute; the
  // replayed states are verified after the race.
  std::vector<Replayer> replayers(3);
  for (size_t s = 0; s < replayers.size(); ++s) {
    ASSERT_NE(engine.Subscribe(focals[s], options, replayers[s].Callback()),
              kInvalidSubscription);
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int q = 0; q < 20; ++q) {
        QueryRequest request;
        request.focal_id = focals[(t + q) % focals.size()];
        request.options = OracleOptions(Algorithm::kLpCta, 4);
        QueryResponse response = engine.Submit(request).get();
        if (response.result == nullptr) failed.store(true);
      }
    });
  }

  Rng rng(359);
  for (int round = 0; round < 10; ++round) {
    UpdateBatch batch;
    for (int i = 0; i < 4; ++i) {
      batch.inserts.push_back(RandomPoint(3, &rng));
    }
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

  for (size_t s = 0; s < replayers.size(); ++s) {
    EXPECT_FALSE(replayers[s].terminated);
    ExpectBitwiseEqual(replayers[s].state,
                       FromScratch(inst.data(), focals[s], options),
                       "post-race replay");
  }
}

}  // namespace
}  // namespace kspr
