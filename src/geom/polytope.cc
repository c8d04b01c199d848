#include "geom/polytope.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/types.h"

namespace kspr {

bool SolveLinearSystem(int dim, std::vector<Vec> rows, Vec rhs, Vec* out) {
  assert(static_cast<int>(rows.size()) == dim);
  // Gaussian elimination with partial pivoting.
  for (int col = 0; col < dim; ++col) {
    int piv = col;
    double best = std::abs(rows[col][col]);
    for (int i = col + 1; i < dim; ++i) {
      const double v = std::abs(rows[i][col]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < 1e-10) return false;
    std::swap(rows[col], rows[piv]);
    std::swap(rhs.v[col], rhs.v[piv]);
    const double inv = 1.0 / rows[col][col];
    for (int i = col + 1; i < dim; ++i) {
      const double f = rows[i][col] * inv;
      if (f == 0.0) continue;
      for (int j = col; j < dim; ++j) rows[i].v[j] -= f * rows[col].v[j];
      rhs.v[i] -= f * rhs.v[col];
    }
  }
  Vec x(dim);
  for (int i = dim - 1; i >= 0; --i) {
    double s = rhs.v[i];
    for (int j = i + 1; j < dim; ++j) s -= rows[i].v[j] * x.v[j];
    x.v[i] = s / rows[i][i];
  }
  *out = x;
  return true;
}

std::vector<LinIneq> RemoveRedundant(Space space, int dim,
                                     const std::vector<LinIneq>& cons,
                                     KsprStats* stats) {
  std::vector<LinIneq> kept = cons;
  // Test each constraint against the others (plus space bounds); remove
  // as we go so duplicated constraints don't mask each other. The solver
  // is fed the kept set with one index skipped instead of a freshly
  // copied "all but i" vector per test.
  thread_local CellBoundSolver solver;
  for (size_t i = 0; i < kept.size();) {
    if (stats != nullptr) ++stats->finalize_lps;
    solver.Reset(space, dim, kept.data(), static_cast<int>(kept.size()),
                 static_cast<int>(i));
    BoundResult r = solver.Maximize(kept[i].a, 0.0, /*stats=*/nullptr);
    if (r.ok && r.value <= kept[i].b + tol::kGeom) {
      kept.erase(kept.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  return kept;
}

namespace {

// Appends the closed space-boundary constraints.
std::vector<LinIneq> WithSpaceBounds(Space space, int dim,
                                     const std::vector<LinIneq>& cons) {
  std::vector<LinIneq> all = cons;
  AppendSpaceBounds(space, dim, &all);
  return all;
}

bool SatisfiesAll(const std::vector<LinIneq>& cons, const Vec& w, double eps) {
  for (const LinIneq& c : cons) {
    if (c.Margin(w) < -eps) return false;
  }
  return true;
}

}  // namespace

std::vector<Vec> EnumerateVertices(Space space, int dim,
                                   const std::vector<LinIneq>& cons,
                                   long max_combinations) {
  std::vector<LinIneq> all = WithSpaceBounds(space, dim, cons);
  const int m = static_cast<int>(all.size());
  if (m < dim) return {};

  // Guard against C(m, dim) blow-up.
  long combos = 1;
  for (int i = 0; i < dim; ++i) {
    combos = combos * (m - i) / (i + 1);
    if (combos > max_combinations) return {};
  }

  std::vector<Vec> vertices;
  std::vector<int> idx(dim);
  for (int i = 0; i < dim; ++i) idx[i] = i;

  auto process = [&]() {
    std::vector<Vec> rows(dim);
    Vec rhs(dim);
    for (int i = 0; i < dim; ++i) {
      rows[i] = all[idx[i]].a;
      rhs.v[i] = all[idx[i]].b;
    }
    Vec x;
    if (!SolveLinearSystem(dim, std::move(rows), rhs, &x)) return;
    if (!SatisfiesAll(all, x, tol::kGeom)) return;
    for (const Vec& v : vertices) {
      if (Distance(v, x) < tol::kGeom * 10) return;  // duplicate
    }
    vertices.push_back(x);
  };

  // Iterate over all dim-subsets of the m constraints.
  while (true) {
    process();
    int i = dim - 1;
    while (i >= 0 && idx[i] == m - dim + i) --i;
    if (i < 0) break;
    ++idx[i];
    for (int j = i + 1; j < dim; ++j) idx[j] = idx[j - 1] + 1;
  }
  return vertices;
}

bool StrictlyInside(Space space, int dim, const std::vector<LinIneq>& cons,
                    const Vec& w, double eps) {
  // The constraints, then the space bounds, tested in place: this sits
  // behind Region::Contains and is called per sample point.
  for (const LinIneq& c : cons) {
    if (c.Margin(w) <= eps) return false;
  }
  const int bounds = NumSpaceBounds(space, dim);
  for (int i = 0; i < bounds; ++i) {
    if (SpaceBound(space, dim, i).Margin(w) <= eps) return false;
  }
  return true;
}

}  // namespace kspr
