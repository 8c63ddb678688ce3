"""Dominance-based pruning of in-partition category points.

Inside one partition, a point beats a same-category rival when it is
both nearer to a door and cheaper.  Chaining such comparisons over pairs
of doors and pairs of categories certifies that whole two-stop routes
can never win, which lets most of a partition's points be dropped before
query time.  The certificate covers two-stop visits inside one partition
(entry door -> a -> b -> exit door), ranked by the unweighted
distance-plus-score form, over at most 8 of its doors.  Routes that
visit a partition any other way are not covered at any alpha: a route
that stops once in a one-door room can lose its optimum on a pruned
index even at alpha = 0.5 (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .routing import Route
from .venue import Door, IndoorPoint, Partition, Venue, intra_distance

# Door-pair enumeration cap for door-rich partitions (hallways).
MAX_DOORS_PER_PARTITION = 8


class DominanceError(ValueError):
    """Inputs violate the same-partition / same-category preconditions."""


@dataclass
class DistanceTable:
    """Exact in-partition distances of one category pair, each measured once:
    `cross[j][i]` = d(a_i, b_j), `legs_a[door_id][i]` = d(door, a_i) and
    `legs_b[door_id][j]` = d(door, b_j), rows in the measured lists' order."""

    cross: list[list[float]]
    legs_a: dict[int, list[float]]
    legs_b: dict[int, list[float]]


def measure_tables(partition: Partition, points_by_category: dict[int, list[IndoorPoint]],
                   doors: Iterable[Door]) -> dict[tuple[int, int], DistanceTable]:
    """One table per category pair, in the mapping's order, over the doors.

    Every entry is one `intra_distance` call on locations built once per
    point: a leg per (point, door) and a cross distance per pair.
    """
    locs = {c: [p.location for p in pts] for c, pts in points_by_category.items()}
    at = [(door.id, door.location) for door in doors]
    legs = {c: {d: [intra_distance(partition, loc_d, loc) for loc in row] for d, loc_d in at}
            for c, row in locs.items()}
    return {
        (c_a, c_b): DistanceTable(
            [[intra_distance(partition, a, b) for a in locs[c_a]] for b in locs[c_b]],
            legs[c_a], legs[c_b],
        )
        for c_a, c_b in combinations(locs, 2)
    }


@dataclass
class DominanceContext:
    """One pruning run: a door pair and a category pair in one partition."""

    partition: Partition
    entry_door: Door
    exit_door: Door
    category_a: int
    category_b: int
    # Measured over the point lists select_points is given; None measures them there.
    table: DistanceTable | None = field(default=None, repr=False)

    def __post_init__(self):
        for door in (self.entry_door, self.exit_door):
            if door.id not in self.partition.door_ids:
                raise DominanceError(
                    f"door {door.id} does not belong to partition {self.partition.id}"
                )
        if self.category_a == self.category_b:
            raise DominanceError("category pair must be distinct")

    def dist(self, a, b) -> float:
        return intra_distance(self.partition, a.location, b.location)

    def entry_rank(self, p: IndoorPoint) -> float:
        """Monotonic rank from the entry door: distance plus score."""
        return self.dist(self.entry_door, p) + p.static_score

    def exit_rank(self, p: IndoorPoint) -> float:
        return self.dist(self.exit_door, p) + p.static_score

    def pair_route(self, first: IndoorPoint, second: IndoorPoint) -> Route:
        """Two-stop in-partition route entry -> first -> second -> exit."""
        # Measured inside the partition, not by the engine: doors sit on its
        # walls, and resolving one may place it in the neighbouring room.
        return Route.through(
            lambda a, b: intra_distance(self.partition, a, b),
            self.entry_door.location, (first, second), self.exit_door.location,
        )


@dataclass
class SelectionResult:
    selected: dict[int, set[int]]  # category -> point ids kept as dominant
    pruned: dict[int, set[int]]    # category -> point ids certified prunable

    def selected_ids(self, category: int) -> set[int]:
        return self.selected.get(category, set())

    def pruned_ids(self, category: int) -> set[int]:
        return self.pruned.get(category, set())


def prune_points(cross: list[list[float]], entry: list[float], exit_rank: list[float],
                 i: int, j: int, rest: list[int], dom_j: Iterable[int]) -> list[int]:
    """Rows of p_j's dominated set that no first-category partner can rescue.

    `cross` is a DistanceTable's; `entry` holds the first category's entry
    ranks and `exit_rank` the second's exit ranks.  Partners are the anchor
    row i plus the unselected first-category rows `rest`.  A dominated
    point is prunable when its nearest partner is already farther than the
    selected pair (then every partner is), or when the rank margin covers
    the gap against every partner.
    """
    partners = [i] + rest
    d_ij = cross[j][i]
    base = (entry[i] + d_ij) + exit_rank[j]
    return [
        q for q in dom_j
        if d_ij < min(cross[q][k] for k in partners)
        or all(base < (entry[k] + cross[q][k]) + exit_rank[q] for k in partners)
    ]


def select_points(ctx: DominanceContext, points_a: list[IndoorPoint],
                  points_b: list[IndoorPoint]) -> SelectionResult:
    """One pruning run: pick dominant points of both categories.

    First-category points are consumed in (entry rank, id) order; for each,
    the second category is scanned in (distance, id) order and a candidate
    is kept only if no closer first-category rival builds a strictly better
    two-stop route with it.  Kept candidates prune their dominated sets.
    Every distance is read from the context's table.
    """
    for points, cat in ((points_a, ctx.category_a), (points_b, ctx.category_b)):
        for p in points:
            if p.category != cat:
                raise DominanceError(f"point {p.id} does not carry category {cat}")
            if p.partition_id != ctx.partition.id:
                raise DominanceError(f"point {p.id} is not in partition {ctx.partition.id}")

    table = ctx.table or measure_tables(
        ctx.partition, {ctx.category_a: points_a, ctx.category_b: points_b},
        (ctx.entry_door, ctx.exit_door),
    )[ctx.category_a, ctx.category_b]
    cross = table.cross
    ids_b = [p.id for p in points_b]
    scores_b = [p.static_score for p in points_b]
    entry = [leg + p.static_score for leg, p in zip(table.legs_a[ctx.entry_door.id], points_a)]
    exit_legs = table.legs_b[ctx.exit_door.id]
    exit_rank = [leg + s for leg, s in zip(exit_legs, scores_b)]

    # Unselected first-category points only ever lose the anchor p_i, so
    # the anchors walk this order and the rest follow each one.
    order_a = sorted(range(len(points_a)), key=lambda i: (entry[i], points_a[i].id))
    live_b = set(range(len(points_b)))
    sel_a, sel_b, pruned_b = [], set(), set()

    for pos, i in enumerate(order_a):
        if not live_b:
            break
        sel_a.append(points_a[i].id)
        rest = order_a[pos + 1:]
        scan = set(live_b)
        for j in sorted(scan, key=lambda j: (cross[j][i], ids_b[j])):
            if j not in scan:
                continue
            scan.remove(j)
            col = cross[j]
            d_ij = col[i]
            # A rival (a later anchor) nearer to p_j than its own threshold
            # pairs strictly better with p_j.  Thresholds never exceed d_ij
            # and shrink as ranks grow, so testing each rival against its
            # own drops the same p_j as a rank-ordered rival scan.
            if not any(col[k] < d_ij - (entry[k] - entry[i]) for k in rest):
                sel_b.add(ids_b[j])
                live_b.remove(j)
                dom_j = [q for q in scan
                         if exit_legs[j] < exit_legs[q] and scores_b[j] < scores_b[q]]
                scan.difference_update(dom_j)
                for q in prune_points(cross, entry, exit_rank, i, j, rest, dom_j):
                    pruned_b.add(ids_b[q])
                    live_b.discard(q)

    # live_b only shrinks after a selection, and the last anchor has no
    # rival, so the second category is never wiped out.
    assert sel_b or not (points_a and points_b)
    return SelectionResult(
        selected={ctx.category_a: set(sel_a), ctx.category_b: sel_b},
        pruned={ctx.category_a: set(), ctx.category_b: pruned_b},
    )


def _door_pairs(venue: Venue, partition: Partition) -> list[tuple[Door, Door]]:
    doors = venue.partition_doors(partition.id)
    if len(doors) > MAX_DOORS_PER_PARTITION:
        x0, y0, x1, y1 = partition.bounds
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        doors = sorted(doors, key=lambda d: ((d.x - cx) ** 2 + (d.y - cy) ** 2, d.id))
        doors = doors[:MAX_DOORS_PER_PARTITION]
    doors = sorted(doors, key=lambda d: d.id)
    return [(di, dj) for di in doors for dj in doors]


@dataclass
class PruneReport:
    """Deterministic record of what preprocessing eliminated."""

    eliminated: dict[int, dict[int, int]] = field(default_factory=dict)  # partition -> category -> count
    kept: int = 0
    removed: int = 0
    door_capped: int = 0  # partitions pruned over only MAX_DOORS_PER_PARTITION of their doors

    def add(self, partition_id: int, category: int, count: int) -> None:
        if count:
            self.eliminated.setdefault(partition_id, {})[category] = count
            self.removed += count

    def to_dict(self) -> dict:
        return {
            "removed": self.removed,
            "kept": self.kept,
            "door_capped_partitions": self.door_capped,
            "per_partition": {
                str(pid): {str(c): n for c, n in sorted(cats.items())}
                for pid, cats in sorted(self.eliminated.items())
            },
        }


def prune_partition(venue: Venue, partition: Partition,
                    points_by_category: dict[int, list[IndoorPoint]],
                    report: PruneReport | None = None) -> dict[int, set[int]]:
    """Surviving point ids per category after all pruning runs.

    Every ordered door pair (self-pairs included) is crossed with every
    unordered category pair; each run starts from the partition's full
    point sets and the survivors are the union of all selections.  The
    runs of a category pair share one DistanceTable.
    A category is only touched when a second category is present.
    A given report counts a door cap.
    """
    cats = sorted(c for c, pts in points_by_category.items() if pts)
    if len(cats) < 2:
        return {c: {p.id for p in pts} for c, pts in points_by_category.items()}

    if report is not None and len(partition.door_ids) > MAX_DOORS_PER_PARTITION:
        report.door_capped += 1
    pairs = _door_pairs(venue, partition)
    tables = measure_tables(
        partition, {c: points_by_category[c] for c in cats}, {d.id: d for d, _ in pairs}.values()
    )
    survivors: dict[int, set[int]] = {c: set() for c in points_by_category}
    for d_i, d_j in pairs:
        for (c_a, c_b), table in tables.items():
            ctx = DominanceContext(partition, d_i, d_j, c_a, c_b, table)
            result = select_points(ctx, points_by_category[c_a], points_by_category[c_b])
            survivors[c_a] |= result.selected_ids(c_a)
            survivors[c_b] |= result.selected_ids(c_b)
    return survivors


def preprocess(index, frequent_categories) -> tuple["object", PruneReport]:
    """Prune every partition holding at least two of the given categories
    and return a fresh index snapshot without the eliminated points."""
    frequent = sorted(set(frequent_categories))
    if not frequent:
        raise ValueError("preprocess needs at least one category")
    venue: Venue = index.venue
    report = PruneReport()
    to_remove: list[int] = []

    for pid in sorted(venue.partitions):
        by_cat: dict[int, list[IndoorPoint]] = {}
        for cat in frequent:
            ids = index._live_by_part_cat.get((pid, cat), ())
            if ids:
                by_cat[cat] = [venue.points[i] for i in ids]
        if len(by_cat) < 2:
            continue
        survivors = prune_partition(venue, venue.partitions[pid], by_cat, report)
        for cat, pts in by_cat.items():
            gone = [p.id for p in pts if p.id not in survivors[cat]]
            report.add(pid, cat, len(gone))
            to_remove.extend(gone)

    new_index = index.remove_points(to_remove)
    report.kept = len(new_index.alive)
    return new_index, report
