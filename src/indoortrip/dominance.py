"""Dominance pruning by the detour certificate.

Within one partition, a point p of a category is dominated by a cheaper
point q of the same category on its floor when going to q instead of p
costs less than the scores save: 3*alpha*d(p, q) < (1 - alpha) *
(s(p) - s(q)).  Swapping p for q in any route lengthens each leg that
touches it by at most d(p, q) (triangle inequality), so

- `cnn`'s three-leg score (source, from, target) of q is strictly below
  p's, p never wins a `cnn` call, and `gcnn` returns the same routes on
  the pruned snapshot as on the full one;
- a complete route through p costs more than the same route through q
  (two legs touch a stop, and 2 < 3), so the exact optimum survives too.

A float margin, derived in `certified`, keeps the first of these exact
for the kernel's float distances and `cnn`'s float scores.

The rule needs no door enumeration and covers every route shape: any
number of stops, repeated visits and any number of doors.  Its left side
grows with alpha and its right side shrinks, so a snapshot pruned at
alpha serves every query whose alpha is at most that; a query with a
larger alpha runs on it unguarded, with no promise that it keeps its
route.  Each category is pruned on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .routing import check_alpha
from .venue import BOUNDARY_EPS, IndoorPoint

# The certificate's margin, relative to the scale of a query's score
# terms, and an absolute floor for products that underflow (`certified`).
MARGIN_FACTOR = 2.0 ** -44
UNDERFLOW_FLOOR = 2.0 ** -500


def venue_reach(index) -> float:
    """An upper bound on every indoor distance the block kernel returns
    on the index's venue: two legs inside a partition, each at most its
    diagonal plus the boundary tolerance a validated venue allows for
    its doors, points and query locations, and the longest door path."""
    leg = max((p.diagonal for p in index.venue.partitions.values()), default=0.0) \
        + 4.0 * BOUNDARY_EPS
    return 2.0 * leg + float(index.graph.matrix.max(initial=0.0))


def certified(points: list[IndoorPoint], alpha: float, reach: float) -> list[int]:
    """Ids of the points of one partition and category that a rival on
    their floor certifies at alpha, in list order: one n x n pass.

    p is certified by q when 3*alpha*d + margin < (1 - alpha)*(s(p) -
    s(q)), with margin = MARGIN_FACTOR*(3*alpha*W + (1 - alpha)*S) +
    UNDERFLOW_FLOOR.  Here W = reach, d is the float distance of p and q,
    computed as sqrt(dx*dx + dy*dy) of float differences, and S = |s(p)|
    + |s(q)|.  With this margin a certified point's float `cnn` score is
    strictly above its rival's in every query whose alpha is at most
    this one.

    Let u = 2**-53.  A float op is within a factor (1 -+ u) of its real
    result.  A distance computed from rounded coordinate differences is
    within (1 -+ 4u) of the real one: `intra_distance`'s hypot (a
    rounding per difference, under one ulp for hypot itself) and this
    pass's d (a rounding per difference, square and sum, and one for
    the square root) alike.

    - One leg.  For any location L, K(L, q) <= K(L, p) + d + 23u*W,
      where K is the kernel.  From outside the partition, take the door
      pair (i, j) that gives K(L, p) = (leg_i + leg_j(p)) + M[i, j]: q's
      entry for the same pair differs only in leg_j(q), and leg_j(q) <=
      leg_j(p) + d + 8.1u*W by the triangle inequality of the partition's
      metric (straight lines on p's floor, the footprint's diagonal to
      another floor), which holds because p and q share a floor; leg_j(p)
      + d <= W, as each is at most one leg.  The two roundings of each
      sum add 2u per side.  From inside, K is the intra distance itself:
      8.1u*W.
    - The score.  cnn's score ((s + f) + t) * a + (1 - a) * static has
      three legs, each at most W, and five roundings.  So score(q) <
      score(p) whenever the real inequality 3a*d + 94u*a*W + 3.1u*(1 -
      a)*S < (1 - a)*(s(p) - s(q)) holds, and in particular whenever
      3a*d + 32u*(3a*W + (1 - a)*S) < (1 - a)*(s(p) - s(q)).
    - The check.  The pass evaluates the certificate in floats with the
      margin's terms moved to the sides they belong to: 3*alpha*d +
      (m*3*alpha*W + floor) < (1 - alpha)*(s(p) - m*|s(p)|) - (1 -
      alpha)*(s(q) + m*|s(q)|), for m = MARGIN_FACTOR.  That is about a
      dozen roundings, each relative to 3*alpha*W or (1 - alpha)*S, so
      it proves the real inequality with m - 13u in place of m.  m =
      2**-44 = 512u leaves more than ten times the 45u that needs.  The
      floor, 2**-500, covers the absolute error of squares and products
      that underflow (below 2**-536 in d, far less elsewhere), which the
      relative bounds miss.
    - Smaller alpha.  Written as a*(3d + 3mW) < (1 - a)*(s(p) - s(q) -
      m*S), the real inequality's left side grows with a and its right
      side shrinks, so it holds for every alpha' <= alpha.

    Certification needs no margin along a chain of rivals: each
    certificate orders two float scores strictly, and those orders are
    transitive, so every certified point can be removed at once.  The
    lowest-scored point of a group is never certified, so no category
    empties.
    """
    x, y, floor, s = np.array([(p.x, p.y, p.floor, p.static_score) for p in points]).T
    dx = x[:, None] - x
    dy = y[:, None] - y
    dx *= dx
    dy *= dy
    dx += dy
    d = np.sqrt(dx, out=dx)
    slack = MARGIN_FACTOR * np.abs(s)
    detour = (3.0 * alpha) * d
    detour += MARGIN_FACTOR * (3.0 * alpha) * reach + UNDERFLOW_FLOOR
    saving = ((1.0 - alpha) * (s - slack))[:, None] - (1.0 - alpha) * (s + slack)
    beaten = detour < saving
    if floor.min() < floor.max():
        beaten &= floor[:, None] == floor
    return [p.id for p, hit in zip(points, beaten.any(axis=1).tolist()) if hit]


@dataclass
class PruneReport:
    """Deterministic record of what preprocessing eliminated, at which alpha
    and among which categories (ascending)."""

    alpha: float
    categories: tuple[int, ...] = ()
    eliminated: dict[int, dict[int, int]] = field(default_factory=dict)  # partition -> category -> count
    kept: int = 0
    removed: int = 0

    def add(self, partition_id: int, category: int, count: int) -> None:
        if count:
            self.eliminated.setdefault(partition_id, {})[category] = count
            self.removed += count

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "removed": self.removed,
            "kept": self.kept,
            "per_partition": {
                str(pid): {str(c): n for c, n in sorted(cats.items())}
                for pid, cats in sorted(self.eliminated.items())
            },
        }


def preprocess(index, frequent_categories, alpha: float = 0.5) -> tuple["object", PruneReport]:
    """A fresh index snapshot without the points of the given categories
    that a same-partition rival certifies at alpha, and its report.  The
    snapshot keeps every query's `cnn` results, and so its `gcnn` routes,
    for queries whose alpha is at most this one."""
    frequent = set(frequent_categories)
    if not frequent:
        raise ValueError("preprocess needs at least one category")
    check_alpha(alpha)
    reach = venue_reach(index)
    report = PruneReport(alpha=alpha, categories=tuple(sorted(frequent)))
    to_remove: list[int] = []
    for cat in report.categories:
        by_part: dict[int, list[IndoorPoint]] = {}
        for p in index.live_points(cat):  # in id order
            by_part.setdefault(p.partition_id, []).append(p)
        for pid, points in by_part.items():
            if len(points) > 1:
                gone = certified(points, alpha, reach)
                report.add(pid, cat, len(gone))
                to_remove.extend(gone)

    new_index = index.remove_points(to_remove)
    report.kept = len(new_index.alive)
    return new_index, report
