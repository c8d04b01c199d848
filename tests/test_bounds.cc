// Property tests for the look-ahead rank bounds (Sec 6): for randomly
// generated cells, the computed [lb, ub] must bracket the true rank at
// every sampled interior point, in all bound modes and both spaces.

#include "core/bounds.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/brute_force.h"
#include "geom/hyperplane.h"
#include "geom/volume.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::SyntheticInstance;

// Builds a random nonempty cell from record hyperplanes: pick a random
// interior point and orient a few hyperplanes around it.
std::vector<LinIneq> RandomCell(const Dataset& data, const Vec& p,
                                Space space, int num_planes, Rng* rng,
                                Vec* interior) {
  const int pref_dim = space == Space::kTransformed ? data.dim() - 1
                                                    : data.dim();
  *interior = SampleSpacePoint(space, pref_dim, rng);
  std::vector<LinIneq> cons;
  int tries = 0;
  while (static_cast<int>(cons.size()) < num_planes && tries++ < 200) {
    const RecordId rid =
        static_cast<RecordId>(rng->UniformInt(data.size()));
    RecordHyperplane h = MakeHyperplane(p, data.Get(rid), space);
    if (h.kind != RecordHyperplane::Kind::kRegular) continue;
    const double side = h.Eval(*interior);
    if (std::abs(side) < 1e-6) continue;
    LinIneq c;
    if (side < 0) {  // interior on the negative side: keep a.w < b
      c.a = h.a;
      c.b = h.b;
    } else {
      c.a = h.a * -1.0;
      c.b = -h.b;
    }
    cons.push_back(c);
  }
  return cons;
}

struct BoundsCase {
  Space space;
  BoundMode mode;
  int d;
  uint64_t seed;
};

class RankBoundsTest : public ::testing::TestWithParam<BoundsCase> {};

TEST_P(RankBoundsTest, BracketsTrueRankEverywhere) {
  const BoundsCase& c = GetParam();
  SyntheticInstance inst(Distribution::kIndependent, 300, c.d, c.seed);
  const Dataset& data = inst.data();
  Rng rng(c.seed * 7 + 1);
  const RecordId focal = static_cast<RecordId>(rng.UniformInt(data.size()));
  const Vec p = data.Get(focal);

  BoundsContext ctx;
  ctx.data = &data;
  ctx.tree = &inst.tree();
  ctx.space = c.space;
  ctx.pref_dim = c.space == Space::kTransformed ? c.d - 1 : c.d;
  ctx.p = p;
  ctx.focal_id = focal;
  ctx.mode = c.mode;
  KsprStats stats;
  ctx.stats = &stats;

  for (int trial = 0; trial < 10; ++trial) {
    Vec interior;
    std::vector<LinIneq> cell =
        RandomCell(data, p, c.space, 3, &rng, &interior);
    // Use a large k so the traversal is not cut short by the lb > k exit
    // (we want the tightest bounds the mode can give).
    RankBounds rb = ComputeRankBounds(ctx, cell, /*k=*/data.size() + 1);
    ASSERT_LE(rb.lb, rb.ub);

    // Sample interior points of the cell (rejection from the space).
    int checked = 0;
    Rng srng(c.seed + trial);
    for (int s = 0; s < 2000 && checked < 30; ++s) {
      Vec w = SampleSpacePoint(c.space, ctx.pref_dim, &srng);
      bool inside = true;
      for (const LinIneq& con : cell) {
        if (con.Margin(w) <= 1e-9) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      ++checked;
      const Vec w_full = ExpandWeight(c.space, c.d, w);
      const int rank = RankAt(data, p, focal, w_full);
      EXPECT_GE(rank, rb.lb) << "trial " << trial;
      EXPECT_LE(rank, rb.ub) << "trial " << trial;
    }
    // The witness used to build the cell is inside by construction.
    const int rank_w =
        RankAt(data, p, focal, ExpandWeight(c.space, c.d, interior));
    EXPECT_GE(rank_w, rb.lb);
    EXPECT_LE(rank_w, rb.ub);
  }
}

std::vector<BoundsCase> BoundsCases() {
  std::vector<BoundsCase> cases;
  uint64_t seed = 11;
  for (BoundMode mode :
       {BoundMode::kRecord, BoundMode::kGroup, BoundMode::kFast}) {
    cases.push_back({Space::kTransformed, mode, 3, seed++});
    cases.push_back({Space::kTransformed, mode, 4, seed++});
    cases.push_back({Space::kOriginal, mode, 3, seed++});
  }
  cases.push_back({Space::kTransformed, BoundMode::kFast, 5, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Modes, RankBoundsTest,
                         ::testing::ValuesIn(BoundsCases()));

TEST(RankBounds, WholeSpaceCellGivesFullRange) {
  SyntheticInstance inst(Distribution::kIndependent, 100, 3, 5);
  const Dataset& data = inst.data();
  BoundsContext ctx;
  ctx.data = &data;
  ctx.tree = &inst.tree();
  ctx.space = Space::kTransformed;
  ctx.pref_dim = 2;
  ctx.focal_id = 0;
  ctx.p = data.Get(0);
  ctx.mode = BoundMode::kFast;
  KsprStats stats;
  ctx.stats = &stats;
  RankBounds rb = ComputeRankBounds(ctx, {}, data.size() + 1);
  // Over the whole space the rank can be as low as the best rank of the
  // record; lb = 1 is always sound.
  EXPECT_GE(rb.lb, 1);
  EXPECT_LE(rb.ub, data.size());
}

TEST(RankBounds, DominatorAlwaysCounts) {
  // A record dominating p must advance BOTH bounds in any cell.
  Dataset data(2);
  data.Add(Vec{0.9, 0.9});  // dominator of p
  data.Add(Vec{0.1, 0.1});
  RTree tree = RTree::BulkLoad(data);
  BoundsContext ctx;
  ctx.data = &data;
  ctx.tree = &tree;
  ctx.space = Space::kTransformed;
  ctx.pref_dim = 1;
  ctx.p = Vec{0.5, 0.5};
  ctx.focal_id = kInvalidRecord;
  ctx.mode = BoundMode::kFast;
  KsprStats stats;
  ctx.stats = &stats;
  RankBounds rb = ComputeRankBounds(ctx, {}, 10);
  EXPECT_EQ(rb.lb, 2);
  EXPECT_EQ(rb.ub, 2);
}

TEST(RankBounds, PivotPruningPreservesSoundness) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 77);
  const Dataset& data = inst.data();
  Rng rng(3);
  const RecordId focal = 5;
  const Vec p = data.Get(focal);

  BoundsContext ctx;
  ctx.data = &data;
  ctx.tree = &inst.tree();
  ctx.space = Space::kTransformed;
  ctx.pref_dim = 2;
  ctx.p = p;
  ctx.focal_id = focal;
  ctx.mode = BoundMode::kFast;
  KsprStats stats;
  ctx.stats = &stats;

  Vec interior;
  std::vector<LinIneq> cell =
      RandomCell(data, p, Space::kTransformed, 2, &rng, &interior);
  // Build a pivot list from records below p at the interior point (their
  // negative halfspace contains the witness; weak-dominance pruning only
  // uses them as dominance anchors, which is sound for any record set
  // whose negative halfspace covers the cell — emulate with records that
  // score below p across the whole cell).
  RankBounds plain = ComputeRankBounds(ctx, cell, data.size() + 1);

  std::vector<const double*> pivots;
  const Vec w_full = ExpandWeight(Space::kTransformed, 3, interior);
  for (RecordId i = 0; i < data.size() && pivots.size() < 3; ++i) {
    // A record dominated by p is below p everywhere: a valid pivot.
    if (data.Dominates(focal, i)) pivots.push_back(data.Row(i));
  }
  ctx.pivots = &pivots;
  RankBounds pruned = ComputeRankBounds(ctx, cell, data.size() + 1);
  ctx.pivots = nullptr;
  // Pruning may only tighten ub (skip below-everywhere records) and must
  // keep soundness: the true rank at the witness stays inside.
  const int rank = RankAt(data, p, focal, w_full);
  EXPECT_GE(rank, pruned.lb);
  EXPECT_LE(rank, pruned.ub);
  EXPECT_LE(pruned.ub, plain.ub + 0);  // never looser than plain
}

TEST(ScoreObjective, MatchesDirectEvaluation) {
  Rng rng(8);
  for (int t = 0; t < 100; ++t) {
    const int d = 2 + static_cast<int>(rng.UniformInt(6));
    Vec x(d);
    for (int j = 0; j < d; ++j) x.v[j] = rng.Uniform(-1, 2);
    Vec w = SampleSpacePoint(Space::kTransformed, d - 1, &rng);
    double c0;
    Vec obj = ScoreObjective(Space::kTransformed, x, &c0);
    const double via_obj = obj.Dot(w) + c0;
    const Vec w_full = ExpandWeight(Space::kTransformed, d, w);
    EXPECT_NEAR(via_obj, x.Dot(w_full), 1e-10);
  }
}

}  // namespace
}  // namespace kspr
