// Minimum bounding rectangles in data space.

#ifndef KSPR_INDEX_MBR_H_
#define KSPR_INDEX_MBR_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/vec.h"

namespace kspr {

/// Axis-aligned box in data space. `lo` is the min-corner (G^L in the
/// paper), `hi` the max-corner (G^U).
struct Mbr {
  Vec lo;
  Vec hi;

  static Mbr Empty(int dim) {
    Mbr m;
    m.lo = Vec(dim);
    m.hi = Vec(dim);
    for (int i = 0; i < dim; ++i) {
      m.lo.v[i] = std::numeric_limits<double>::infinity();
      m.hi.v[i] = -std::numeric_limits<double>::infinity();
    }
    return m;
  }

  static Mbr OfPoint(const Vec& p) {
    Mbr m;
    m.lo = p;
    m.hi = p;
    return m;
  }

  void ExpandToPoint(const Vec& p) {
    for (int i = 0; i < p.dim; ++i) {
      lo.v[i] = std::min(lo.v[i], p.v[i]);
      hi.v[i] = std::max(hi.v[i], p.v[i]);
    }
  }

  void ExpandToMbr(const Mbr& o) {
    for (int i = 0; i < lo.dim; ++i) {
      lo.v[i] = std::min(lo.v[i], o.lo.v[i]);
      hi.v[i] = std::max(hi.v[i], o.hi.v[i]);
    }
  }

  /// Sum of max-corner coordinates; the BBS priority (larger-is-better
  /// convention, so entries with larger MaxSum are explored first).
  double MaxSum() const { return hi.Sum(); }

  /// True iff v >= hi componentwise: v weakly dominates every point in the
  /// box, so (Lemma 5) no record inside can affect a cell pivoted on v.
  bool WeaklyDominatedBy(const Vec& v) const {
    for (int i = 0; i < v.dim; ++i) {
      if (v.v[i] < hi.v[i]) return false;
    }
    return true;
  }

  /// Raw-row form of the test above: `v` points at hi.dim attributes
  /// (a Dataset::Row).
  bool WeaklyDominatedBy(const double* v) const {
    for (int i = 0; i < hi.dim; ++i) {
      if (v[i] < hi.v[i]) return false;
    }
    return true;
  }
};

/// True iff a >= b componentwise (weak dominance of point b by point a).
inline bool WeaklyDominates(const Vec& a, const Vec& b) {
  for (int i = 0; i < a.dim; ++i) {
    if (a.v[i] < b.v[i]) return false;
  }
  return true;
}

/// Raw-row form over `dim` attributes (Dataset::Row pointers). Same
/// `a < b -> false` form, so NaN attributes decide as in the Vec form.
inline bool WeaklyDominates(const double* a, const double* b, int dim) {
  for (int i = 0; i < dim; ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

/// The Lemma-5 pivot test: does some pivot (a raw row) weakly dominate a
/// point or a whole box? Each test tries first the pivot that answered the
/// previous one, since neighbouring records and boxes tend to fall to the
/// same pivot. Only the probe order changes, never the verdict. `pivots`
/// (null means none) must outlive the scan.
class PivotScan {
 public:
  PivotScan() = default;
  PivotScan(const std::vector<const double*>* pivots, int dim)
      : pivots_(pivots), dim_(dim) {}

  bool Dominates(const double* r) {
    return Find(
        [&](const double* piv) { return WeaklyDominates(piv, r, dim_); });
  }
  bool Dominates(const Mbr& box) {
    return Find(
        [&](const double* piv) { return box.WeaklyDominatedBy(piv); });
  }

 private:
  template <typename Test>
  bool Find(Test test) {
    if (pivots_ == nullptr || pivots_->empty()) return false;
    const std::vector<const double*>& piv = *pivots_;
    if (test(piv[last_])) return true;
    for (size_t i = 0; i < piv.size(); ++i) {
      if (i != last_ && test(piv[i])) {
        last_ = i;
        return true;
      }
    }
    return false;
  }

  const std::vector<const double*>* pivots_ = nullptr;
  int dim_ = 0;
  size_t last_ = 0;
};

}  // namespace kspr

#endif  // KSPR_INDEX_MBR_H_
