"""Dominance-based pruning of in-partition category points.

Inside one partition, a point beats a same-category rival when it is
both nearer to a door and cheaper.  Chaining such comparisons over pairs
of doors and pairs of categories certifies that whole two-stop routes
can never win, which lets most of a partition's points be dropped before
query time.  Pruning uses the unweighted distance-plus-score form, so
it is certified only for the equal-weight cost, alpha = 0.5: a query at
another alpha may lose its optimum on a pruned index (ROADMAP item 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .routing import Route
from .venue import Door, IndoorPoint, Partition, Venue, intra_distance

# Door-pair enumeration cap for door-rich partitions (hallways).
MAX_DOORS_PER_PARTITION = 8


class DominanceError(ValueError):
    """Inputs violate the same-partition / same-category preconditions."""


@dataclass
class DominanceContext:
    """One pruning run: a door pair and a category pair in one partition."""

    partition: Partition
    entry_door: Door
    exit_door: Door
    category_a: int
    category_b: int
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for door in (self.entry_door, self.exit_door):
            if door.id not in self.partition.door_ids:
                raise DominanceError(
                    f"door {door.id} does not belong to partition {self.partition.id}"
                )
        if self.category_a == self.category_b:
            raise DominanceError("category pair must be distinct")

    def _check(self, point: IndoorPoint) -> None:
        if point.partition_id != self.partition.id:
            raise DominanceError(
                f"point {point.id} is not in partition {self.partition.id}"
            )

    def dist(self, a, b) -> float:
        key = (a.x, a.y, a.floor, b.x, b.y, b.floor)
        got = self._cache.get(key)
        if got is None:
            got = intra_distance(self.partition, a.location, b.location)
            self._cache[key] = got
        return got

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


def dominates_point(p_a: IndoorPoint, p_b: IndoorPoint, door: Door,
                    partition: Partition) -> bool:
    """True iff p_a is strictly nearer to the door and strictly cheaper."""
    if p_a.category != p_b.category:
        raise DominanceError("point dominance requires one category")
    if p_a.partition_id != p_b.partition_id or p_a.partition_id != partition.id:
        raise DominanceError("point dominance requires one partition")
    if door.id not in partition.door_ids:
        raise DominanceError(f"door {door.id} does not belong to partition {partition.id}")
    da = intra_distance(partition, door.location, p_a.location)
    db = intra_distance(partition, door.location, p_b.location)
    return da < db and p_a.static_score < p_b.static_score


def dominated_set(p_a: IndoorPoint, door: Door, pool: Iterable[IndoorPoint],
                  partition: Partition) -> set[IndoorPoint]:
    """Every pool point p_a strictly beats with respect to the door."""
    return {
        p for p in pool if p.id != p_a.id and dominates_point(p_a, p, door, partition)
    }


@dataclass
class SelectionResult:
    selected: dict[int, set[int]]  # category -> point ids kept as dominant
    pruned: dict[int, set[int]]    # category -> point ids certified prunable
    forced: int = 0                # 1 when the fallback force-selected a point

    def selected_ids(self, category: int) -> set[int]:
        return self.selected.get(category, set())

    def pruned_ids(self, category: int) -> set[int]:
        return self.pruned.get(category, set())


def prune_points(ctx: DominanceContext, p_i: IndoorPoint, p_j: IndoorPoint,
                 remaining_a: list[IndoorPoint], dom_j: Iterable[IndoorPoint]) -> set[int]:
    """Subset of p_j's dominated set that no first-category partner can
    rescue, scanned in exit-door dominance order.

    Partners are the unselected first-category points plus the anchor
    p_i itself.  A dominated point is prunable when its nearest partner
    is already farther than the selected pair (then every partner is),
    or when the rank margin covers the gap against every partner.
    """
    prunable: set[int] = set()
    partners = [p_i] + remaining_a
    base = ctx.entry_rank(p_i) + ctx.dist(p_i, p_j) + ctx.exit_rank(p_j)
    for p_k in sorted(dom_j, key=lambda p: (ctx.exit_rank(p), p.id)):
        p_m = min(partners, key=lambda p: (ctx.dist(p_k, p), p.id))
        if ctx.dist(p_i, p_j) < ctx.dist(p_k, p_m):
            prunable.add(p_k.id)
            continue
        # Farther-pair case: require the margin test against every partner,
        # not just the nearest one.
        if all(
            base < ctx.entry_rank(p) + ctx.dist(p_k, p) + ctx.exit_rank(p_k)
            for p in partners
        ):
            prunable.add(p_k.id)
    return prunable


def select_points(ctx: DominanceContext, points_a: list[IndoorPoint],
                  points_b: list[IndoorPoint]) -> SelectionResult:
    """One pruning run: pick dominant points of both categories.

    First-category points are consumed in entry-rank order; for each, the
    second category is scanned nearest-first and a candidate is kept only
    if no closer first-category rival builds a strictly better two-stop
    route with it.  Kept candidates prune their dominated sets.
    """
    for p in points_a:
        if p.category != ctx.category_a:
            raise DominanceError(f"point {p.id} does not carry category {ctx.category_a}")
        ctx._check(p)
    for p in points_b:
        if p.category != ctx.category_b:
            raise DominanceError(f"point {p.id} does not carry category {ctx.category_b}")
        ctx._check(p)

    live_a = {p.id: p for p in points_a}
    live_b = {p.id: p for p in points_b}
    sel_a: list[int] = []
    sel_b: set[int] = set()
    pruned_b: set[int] = set()

    while live_a and live_b:
        p_i = min(live_a.values(), key=lambda p: (ctx.entry_rank(p), p.id))
        sel_a.append(p_i.id)
        del live_a[p_i.id]

        scan = dict(live_b)
        while scan:
            p_j = min(scan.values(), key=lambda p: (ctx.dist(p_i, p), p.id))
            d_ij = ctx.dist(p_i, p_j)
            rivals = sorted(
                (p for p in live_a.values() if ctx.dist(p, p_j) < d_ij),
                key=lambda p: (ctx.entry_rank(p), p.id),
            )
            keep = True
            while rivals:
                p_k = rivals[0]
                threshold = d_ij - (ctx.entry_rank(p_k) - ctx.entry_rank(p_i))
                if ctx.dist(p_k, p_j) < threshold:
                    keep = False  # the rival pairs strictly better with p_j
                    break
                # Rivals at or beyond the threshold are certified beaten; the
                # threshold only shrinks as ranks grow, so drop them for good.
                rivals = [p for p in rivals[1:] if ctx.dist(p, p_j) < threshold]
            if keep:
                sel_b.add(p_j.id)
                dom_j = dominated_set(p_j, ctx.exit_door, scan.values(), ctx.partition)
                del scan[p_j.id]
                del live_b[p_j.id]
                for p in dom_j:
                    del scan[p.id]
                for pid in prune_points(ctx, p_i, p_j, list(live_a.values()), dom_j):
                    pruned_b.add(pid)
                    live_b.pop(pid, None)
            else:
                del scan[p_j.id]

    forced = 0
    if sel_a and not sel_b and points_b:
        # The pseudocode cannot reach this state, but guard against a
        # category being wiped out by an unforeseen corner case.
        anchor = next(p for p in points_a if p.id == sel_a[0])
        pick = min(points_b, key=lambda p: (ctx.dist(anchor, p), p.id))
        sel_b.add(pick.id)
        pruned_b.discard(pick.id)
        forced = 1

    return SelectionResult(
        selected={ctx.category_a: set(sel_a), ctx.category_b: sel_b},
        pruned={ctx.category_a: set(), ctx.category_b: pruned_b},
        forced=forced,
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
    forced: int = 0       # runs whose fallback force-selected a point

    def add(self, partition_id: int, category: int, count: int) -> None:
        if count:
            self.eliminated.setdefault(partition_id, {})[category] = count
            self.removed += count

    def to_dict(self) -> dict:
        return {
            "removed": self.removed,
            "kept": self.kept,
            "door_capped_partitions": self.door_capped,
            "forced_selections": self.forced,
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
    point sets and the survivors are the union of all selections.
    A category is only touched when a second category is present.
    A given report counts a door cap and the runs' forced selections.
    """
    cats = sorted(c for c, pts in points_by_category.items() if pts)
    if len(cats) < 2:
        return {c: {p.id for p in pts} for c, pts in points_by_category.items()}

    if report is not None and len(partition.door_ids) > MAX_DOORS_PER_PARTITION:
        report.door_capped += 1
    survivors: dict[int, set[int]] = {c: set() for c in points_by_category}
    for d_i, d_j in _door_pairs(venue, partition):
        for ai in range(len(cats)):
            for bi in range(ai + 1, len(cats)):
                c_a, c_b = cats[ai], cats[bi]
                ctx = DominanceContext(partition, d_i, d_j, c_a, c_b)
                result = select_points(
                    ctx, list(points_by_category[c_a]), list(points_by_category[c_b])
                )
                survivors[c_a] |= result.selected_ids(c_a)
                survivors[c_b] |= result.selected_ids(c_b)
                if report is not None:
                    report.forced += result.forced
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
