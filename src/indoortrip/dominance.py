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
  (two legs touch a stop, and 2 < 3), so the exact optimum survives too,
  in real numbers; `routing.route_cost`'s lemma bounds the float costs.

A float margin, derived in `certified`, keeps the first of these exact
for the kernel's float distances and `cnn`'s float scores.

The rule needs no door enumeration and covers every route shape: any
number of stops, repeated visits and any number of doors.  Its left side
grows with alpha and its right side shrinks, so a snapshot pruned at
alpha serves every query whose alpha is at most that; a query with a
larger alpha runs on it unguarded, with no promise that it keeps its
route.  One presorted pass prunes every (category, partition) group of
the chosen categories at once: a point meets only the lower-scored
rivals of its group on its floor, the only ones that can certify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .routing import check_alpha
from .venue import BOUNDARY_EPS, PointTable

# The certificate's margin, relative to the scale of a query's score
# terms, and an absolute floor for products that underflow (`certified`).
MARGIN_FACTOR = 2.0 ** -44
UNDERFLOW_FLOOR = 2.0 ** -500
# The pass's rank windows (`certified`): a point meets its _FIRST_WINDOW
# lowest-scored rivals first, and each later window ends _WINDOW_GROWTH
# times further down (2, then the next 14, ...).  A window's pairs go in
# slices of at most _PAIR_BUDGET pairs.  Neither changes the result.
_FIRST_WINDOW = 2
_WINDOW_GROWTH = 8
_PAIR_BUDGET = 2 ** 12


def venue_reach(index) -> float:
    """An upper bound on every indoor distance the block kernel returns
    on the index's venue: two legs inside a partition, each at most its
    diagonal plus the boundary tolerance a validated venue allows for
    its doors, points and query locations, and the longest door path."""
    leg = max((p.diagonal for p in index.venue.partitions.values()), default=0.0) \
        + 4.0 * BOUNDARY_EPS
    return 2.0 * leg + float(index.graph.matrix.max(initial=0.0))


def point_columns(table: PointTable, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table rows' (group, score, x, y) as the rows of one float
    array, its columns sorted by the exact int64 (category, partition,
    floor) and then the score (NaN last), and the sort order: column i is
    table row rows[order[i]].  group numbers the (category, partition,
    floor) groups in that order, so it is exact in a float."""
    keys = np.array([table.category[rows], table.partition_id[rows], table.floor[rows]])
    score = table.static_score[rows]
    order = np.lexsort((score, *keys[::-1]))
    group = np.cumsum(_starts(keys[:, order]))
    return np.array([group, score[order], table.x[rows][order], table.y[rows][order]]), order


def _starts(keys: np.ndarray) -> np.ndarray:
    """Whether each column of the rows of keys starts a run of equal keys."""
    new = np.ones(keys.shape[1], dtype=bool)
    new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return new


def certified(columns: np.ndarray, alpha: float, reach: float) -> np.ndarray:
    """Which of the points laid out by `point_columns` a rival of their
    category and partition on their floor certifies at alpha, as a mask
    over the columns: one presorted pass over every group at once.

    p is certified by q when 3*alpha*d + margin < (1 - alpha)*(s(p) -
    s(q)), with margin = MARGIN_FACTOR*(3*alpha*W + (1 - alpha)*S) +
    UNDERFLOW_FLOOR, W = reach, d = sqrt(dx*dx + dy*dy) of p's and q's
    float differences, and S = |s(p)| + |s(q)|.  Then a certified point's
    float `cnn` score is strictly above its rival's in every query whose
    alpha is at most this one.  With u = 2**-53, each of q's three legs
    exceeds p's by at most d + 23u*W (the one-leg bound at
    `DistanceEngine.door_distances`), and each score is within
    gamma_4*3a*W + gamma_3*(1 - a)*|s| of exact (the corollary at
    `routing.route_cost`), so score(q) < score(p) whenever 3a*d +
    94u*a*W + 3.1u*(1 - a)*S < (1 - a)*(s(p) - s(q)), and in particular
    whenever 3a*d + 32u*(3a*W + (1 - a)*S) < (1 - a)*(s(p) - s(q)).

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

    Only a lower score certifies.  The pass rounds keep(p) = (1 -
    alpha)*(s(p) - m*|s(p)|) and lose(q) = (1 - alpha)*(s(q) + m*|s(q)|)
    as written and compares the detour with keep(p) - lose(q).  For
    finite scores m*|s| rounds to a value >= 0 and rounding is monotone,
    so s - m*|s| rounds to at most s and s + m*|s| to at least s; 1 -
    alpha >= 0, so s(q) >= s(p) gives keep(p) <= lose(q) and a float
    difference <= 0.  The detour is a rounded sum of terms >= 0 and the
    floor, so it is at least 2**-500 > 0, and the test fails.  A NaN
    score or distance never compares true.  So q certifies p only if
    s(q) < s(p): q ranks ahead of p and of p's ties in their group
    sorted by score (NaN last).

    So the pass tests each point only against the rivals ranked ahead of
    its ties, lowest scores first, in rank windows (`_FIRST_WINDOW`,
    `_WINDOW_GROWTH`), until one certifies it; a window's pairs go in
    slices of at most `_PAIR_BUDGET` (or one point's rivals in it), so
    transient memory grows with the points, not with a group's square.
    Each pair is the float expression above, so neither changes the result.
    """
    s, x, y = columns[1:]
    at = np.arange(len(s))
    start = np.maximum.accumulate(np.where(_starts(columns[:1]), at, 0))
    rivals = np.maximum.accumulate(np.where(_starts(columns[:2]), at, 0)) - start
    slack = MARGIN_FACTOR * np.abs(s)
    keep = (1.0 - alpha) * (s - slack)
    lose = (1.0 - alpha) * (s + slack)
    margin = MARGIN_FACTOR * (3.0 * alpha) * reach + UNDERFLOW_FLOOR
    beaten = np.zeros(len(s), dtype=bool)
    lo, hi = 0, _FIRST_WINDOW
    while (rows := np.flatnonzero((rivals > lo) & ~beaten)).size:
        width = np.minimum(rivals[rows], hi) - lo
        ends = np.cumsum(width)
        shift = start[rows] + lo - (ends - width)  # a pair's rival: shift + its pair number
        cut = done = 0
        while cut < rows.size:
            stop = max(cut + 1, int(ends.searchsorted(done + _PAIR_BUDGET, "right")))
            p = np.repeat(rows[cut:stop], width[cut:stop])
            q = np.repeat(shift[cut:stop], width[cut:stop]) + np.arange(done, ends[stop - 1])
            dx, dy = x[p] - x[q], y[p] - y[q]
            detour = (3.0 * alpha) * np.sqrt(dx * dx + dy * dy) + margin
            beaten[p[detour < keep[p] - lose[q]]] = True
            cut, done = stop, ends[stop - 1]
        lo, hi = hi, hi * _WINDOW_GROWTH
    return beaten


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
    report = PruneReport(alpha=alpha, categories=tuple(sorted(frequent)))
    table = index.table
    rows = np.concatenate([index.live_rows(cat) for cat in report.categories])
    columns, order = point_columns(table, rows)
    gone = rows[order[certified(columns, alpha, venue_reach(index))]]
    categories, partitions = table.category[gone], table.partition_id[gone]
    heads = np.flatnonzero(_starts(np.array([categories, partitions]))).tolist()
    for head, end in zip(heads, heads[1:] + [gone.size]):
        report.add(partitions[head].item(), categories[head].item(), end - head)

    new_index = index.remove_rows(gone)
    report.kept = int(np.count_nonzero(new_index.live))
    return new_index, report
