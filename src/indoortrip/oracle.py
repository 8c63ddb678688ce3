"""Exact brute-force solver and a rank-once greedy baseline.

The exact solver enumerates category visiting orders; within one order a
layered dynamic program picks the best point per category, which is
exponentially cheaper than enumerating point tuples.  A naive full
enumeration is kept for cross-checking the DP on tiny instances.

Both read the query's ends from its `QueryTables`; rank-once measures its
stops there too; the exact solver reads one `pair_table` per unordered category pair.
"""

from __future__ import annotations

import itertools

import numpy as np

from .index import QueryTables
from .routing import EvalCounter, Route, TripQuery, route_cost

ORACLE_CATEGORY_LIMIT = 7
RANK_ONCE_SHORTLIST = 8  # points per category rank-once keeps from its ranking


class OracleScaleError(Exception):
    """Too many categories for factorial enumeration."""


def _best_in_order(tables: QueryTables, pairs: dict[tuple[int, int], np.ndarray],
                   order: tuple[int, ...], counter: EvalCounter | None) -> Route:
    """The layered DP over one category order: a min-plus step per layer.

    A first-index argmin keeps the earliest (smallest-id) predecessor among
    equal candidates.  Each layer keeps the distance table it read (a pair
    table after the first), and the route's legs are its entries at the chosen rows."""
    alpha = tables.alpha
    layers = []  # per layer: its block, the distances it read, argmin parents
    prev_costs = np.zeros(1)
    for k, cat in enumerate(order):
        block, from_source, _, static = tables.category(cat)
        dist = from_source[None, :] if k == 0 else pairs[order[k - 1], cat]
        cand = prev_costs[:, None] + alpha * dist
        if counter is not None:
            counter.point_evals += cand.size
        layers.append((block, dist, cand.argmin(axis=0)))
        prev_costs = cand.min(axis=0) + static

    # Close at the target, then walk parents back to the chosen rows.
    to_target = tables.category(order[-1])[2]
    row = last = int((prev_costs + alpha * to_target).argmin())
    stops = []
    for block, dist, parent in reversed(layers):
        prev = int(parent[row])
        stops.append((tables.index.point(block.rows[row]), float(dist[prev, row])))
        row = prev
    route = Route(waypoints=(tables.source,), stops=(), leg_lengths=())
    for point, leg in reversed(stops):
        route = route.then(point, leg)
    return route.to(tables.target, float(to_target[last]))


def exact_route(query: TripQuery, index, limit: int = ORACLE_CATEGORY_LIMIT,
                counter: EvalCounter | None = None) -> Route:
    """Optimal route: minimum over all category visiting orders, each
    unordered pair of categories measured once, as one `pair_table`.

    Ties keep the lexicographically smaller order: `permutations` yields
    that one first, and `min` keeps the first of equal costs.
    """
    cats = tuple(sorted(query.categories))
    if len(cats) > limit:
        raise OracleScaleError(f"{len(cats)} categories exceed the factorial guard of {limit}")
    tables = QueryTables(index, query.source, query.target, query.alpha, query.categories)
    pairs = {}
    for a, b in itertools.combinations(cats, 2):  # b to a: the transpose, bit for bit
        pairs[a, b] = index.engine.pair_table(tables.span(a)[0], tables.span(b)[0])
        pairs[b, a] = pairs[a, b].T
    return min((_best_in_order(tables, pairs, order, counter)
                for order in itertools.permutations(cats)),
               key=lambda route: route_cost(route, query.alpha))


def enumerate_route(query: TripQuery, index) -> Route:
    """Naive exhaustive search over orders x point tuples; tiny inputs only.
    Ties keep the first route of least `route_cost`, as in `exact_route`."""
    source, target = index.venue.resolve(query.source), index.venue.resolve(query.target)
    cats = tuple(sorted(query.categories))
    pools = {c: list(map(index.point, index.category_block(c).rows)) for c in cats}
    return min((Route.through(index.engine.distance, source, combo, target)
                for order in itertools.permutations(cats)
                for combo in itertools.product(*(pools[c] for c in order))),
               key=lambda route: route_cost(route, query.alpha))


def _shortlist(ranked: np.ndarray, k: int) -> np.ndarray:
    """`np.sort(np.argsort(ranked, kind="stable")[:k])` for k >= 1 and no NaN in
    ranked (validation refuses NaN scores, coordinates and alpha), in linear time:
    every row below `cut`, the k-th least entry, is kept (fewer than k are), then
    the first rows equal to it, as a stable sort keeps the smaller of equal rows."""
    if ranked.size <= k:
        return np.arange(ranked.size)
    cut = np.partition(ranked, k - 1)[k - 1]
    rows = (ranked <= cut).nonzero()[0]
    if rows.size > k:  # more rows tie at cut than places are left
        below = ranked[rows] < cut
        rows = rows[below | (np.cumsum(~below) <= k - np.count_nonzero(below))]
    return rows


def rank_once_greedy(query: TripQuery, index, counter: EvalCounter | None = None) -> Route:
    """Baseline that ranks each category once, up front, from the source.

    Extensions are then chosen only among each category's frozen
    `RANK_ONCE_SHORTLIST` best, scored against the route's current
    endpoint's measured row.  Stands in for planners that do all their
    ranking before construction starts.  Ties go to the first minimum of
    the scan: shortlists keep the smaller ids of equal scores, in id order; categories ascend.
    """
    tables = QueryTables(index, query.source, query.target, query.alpha, query.categories)
    uncovered = sorted(set(query.categories))

    # Rank by the source's scored row, the source leg counted twice.
    shortlists = {}  # category -> its shortlist's table rows and rows of the joined block
    for cat in uncovered:
        block, span = tables.span(cat)
        ranked = tables.scored(tables.source, cat)[1][span]
        if counter is not None:
            counter.point_evals += len(block.rows)
        rows = _shortlist(ranked, RANK_ONCE_SHORTLIST)
        shortlists[cat] = ([block.rows[r] for r in rows.tolist()], span.start + rows)

    route = Route(waypoints=(tables.source,), stops=(), leg_lengths=())
    while uncovered:
        batch = []  # (step cost, category, table row, leg, row)
        current = route.end()
        for cat in uncovered:
            points, rows = shortlists[cat]
            legs = tables.measured(current, cat)[rows]
            steps = tables.alpha * legs + tables.static[rows]
            if counter is not None:
                counter.point_evals += len(rows)
            at = int(steps.argmin())  # first minimum: the smallest id among ties
            batch.append((float(steps[at]), cat, points[at], float(legs[at]), rows[at]))
        _, cat, point, leg, row = min(batch, key=lambda item: item[:2])
        route = route.then(index.point(point), leg)
        uncovered.remove(cat)
    return route.to(tables.target, float(tables.to_target[row]))
