"""Exact brute-force solver and a rank-once greedy baseline.

The exact solver enumerates category visiting orders; within one order a
layered dynamic program picks the best point per category, which is
exponentially cheaper than enumerating point tuples.  A naive full
enumeration is kept for cross-checking the DP on tiny instances.
"""

from __future__ import annotations

import itertools

from .routing import (
    EmptyCategoryError,
    EvalCounter,
    QueryContext,
    Route,
    TripQuery,
    point_score,
    route_cost,
)
from .venue import IndoorPoint, Location

ORACLE_CATEGORY_LIMIT = 7


class OracleScaleError(Exception):
    """Too many categories for factorial enumeration."""


def _live_points(index, category: int) -> list[IndoorPoint]:
    points = index.live_points(category)
    if not points:
        raise EmptyCategoryError(f"category {category} has no live points")
    return points


def fixed_order_best(query: TripQuery, order: tuple[int, ...], index,
                     counter: EvalCounter | None = None) -> Route:
    """Cheapest route visiting the categories exactly in the given order.

    Edge legs contribute alpha * distance, each chosen point contributes
    (1 - alpha) * score; ties inside a layer go to the smaller point id.
    """
    if sorted(order) != sorted(query.categories):
        raise ValueError("order must be a permutation of the query categories")
    engine = index.engine
    venue = index.venue
    source = venue.resolve(query.source)
    target = venue.resolve(query.target)
    alpha = query.alpha

    layers = [_live_points(index, c) for c in order]
    parent: list[list[int]] = []  # per layer, argmin index into the previous layer

    prev_costs = [0.0]
    prev_locs: list[Location] = [source]
    for layer in layers:
        costs = []
        parents = []
        for point in layer:
            best = float("inf")
            arg = -1
            for j, (pc, ploc) in enumerate(zip(prev_costs, prev_locs)):
                cand = pc + alpha * engine.distance(ploc, point.location)
                if counter is not None:
                    counter.point_evals += 1
                if cand < best:
                    best = cand
                    arg = j
            costs.append(best + (1.0 - alpha) * point.static_score)
            parents.append(arg)
        parent.append(parents)
        prev_costs = costs
        prev_locs = [p.location for p in layer]

    # Close at the target, then walk parents back to recover the stops.
    best_total = float("inf")
    last = -1
    for j, (pc, ploc) in enumerate(zip(prev_costs, prev_locs)):
        cand = pc + alpha * engine.distance(ploc, target)
        if cand < best_total:
            best_total = cand
            last = j
    chosen: list[IndoorPoint] = []
    idx = last
    for k in range(len(layers) - 1, -1, -1):
        chosen.append(layers[k][idx])
        idx = parent[k][idx]
    chosen.reverse()
    return Route.through(engine.distance, source, chosen, target)


def exact_route(query: TripQuery, index, limit: int = ORACLE_CATEGORY_LIMIT,
                counter: EvalCounter | None = None) -> Route:
    """Optimal route: minimum over all category visiting orders.

    Ties between orders keep the lexicographically smaller permutation.
    """
    cats = tuple(sorted(query.categories))
    if len(cats) > limit:
        raise OracleScaleError(
            f"{len(cats)} categories exceed the factorial guard of {limit}"
        )
    best_route: Route | None = None
    best_cost = float("inf")
    for order in itertools.permutations(cats):
        route = fixed_order_best(query, order, index, counter=counter)
        cost = route_cost(route, query.alpha)
        if cost < best_cost:
            best_cost = cost
            best_route = route
    assert best_route is not None
    return best_route


def enumerate_route(query: TripQuery, index) -> Route:
    """Naive exhaustive search over orders x point tuples; tiny inputs only."""
    engine = index.engine
    venue = index.venue
    source = venue.resolve(query.source)
    target = venue.resolve(query.target)
    cats = tuple(sorted(query.categories))
    pools = {c: _live_points(index, c) for c in cats}

    best_route: Route | None = None
    best_cost = float("inf")
    for order in itertools.permutations(cats):
        for combo in itertools.product(*(pools[c] for c in order)):
            route = Route.through(engine.distance, source, combo, target)
            cost = route_cost(route, query.alpha)
            if cost < best_cost:
                best_cost = cost
                best_route = route
    assert best_route is not None
    return best_route


def rank_once_greedy(query: TripQuery, index, top_k: int = 8,
                     counter: EvalCounter | None = None) -> Route:
    """Baseline that ranks each category once, up front, from the source.

    Extensions are then chosen only among each category's frozen top-k,
    scored against the route's current endpoint.  Stands in for planners
    that do all their ranking before construction starts.
    """
    engine = index.engine
    venue = index.venue
    source = venue.resolve(query.source)
    target = venue.resolve(query.target)
    ctx = QueryContext(source, target, query.alpha)
    alpha = query.alpha

    shortlists: dict[int, list[IndoorPoint]] = {}
    for cat in sorted(set(query.categories)):
        pool = _live_points(index, cat)
        ranked = sorted(
            pool, key=lambda p: (point_score(ctx, source, p, engine), p.id)
        )
        if counter is not None:
            counter.point_evals += len(pool)
        shortlists[cat] = ranked[:top_k]

    route = Route(waypoints=(source,), stops=(), leg_lengths=())
    uncovered = set(query.categories)
    while uncovered:
        best = None  # (step cost, category, point id, point)
        current = route.end()
        for cat in sorted(uncovered):
            for p in shortlists[cat]:
                step = alpha * engine.distance(current, p.location) + (1.0 - alpha) * p.static_score
                if counter is not None:
                    counter.point_evals += 1
                cand = (step, cat, p.id, p)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        _, cat, _, point = best
        route = route.then(point, engine.distance)
        uncovered.discard(cat)
    return route.to(target, engine.distance)
