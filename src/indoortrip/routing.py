"""Route cost model and the greedy category-nearest-neighbour planner.

A route's cost blends travel distance and the static scores of its
stops: cost = alpha * travel + (1 - alpha) * static.  The planner grows
a route from the source one stop at a time, always committing to the
globally cheapest extension over all still-uncovered categories, and
finishes at the target once everything is covered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .venue import IndoorPoint, Location, as_float, as_int


class EmptyCategoryError(Exception):
    """A query category has no live point to visit."""


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha, a cost's travel weight, lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


@dataclass(frozen=True)
class QueryContext:
    """Fixed per-query data every candidate score depends on.

    `categories` are the query's; `index.QueryTables` lays out their
    blocks, or every live category of the snapshot when it is empty.
    `memo` holds what the cnn calls made with this context object share:
    one `index.QueryTables` per index snapshot they ran on.  It takes no
    part in ==, hash or repr, and is freed with the context.
    """

    source: Location
    target: Location
    alpha: float
    categories: tuple[int, ...] = ()
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        check_alpha(self.alpha)


@dataclass(frozen=True)
class TripQuery:
    source: Location
    target: Location
    categories: tuple[int, ...]
    alpha: float = 0.5

    def __post_init__(self):
        if not self.categories:
            raise ValueError("a query needs at least one category")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("query categories must be distinct")
        check_alpha(self.alpha)

    def context(self) -> QueryContext:
        return QueryContext(self.source, self.target, self.alpha, self.categories)


@dataclass(frozen=True)
class Stop:
    category: int
    point_id: int
    score: float
    location: Location


@dataclass(frozen=True)
class Route:
    waypoints: tuple[Location, ...]
    stops: tuple[Stop, ...]
    leg_lengths: tuple[float, ...]
    complete: bool = False

    @property
    def travel(self) -> float:
        return sum(self.leg_lengths)

    @property
    def static(self) -> float:
        return sum(s.score for s in self.stops)

    @property
    def covered(self) -> frozenset[tuple[int, int]]:
        return frozenset((s.category, s.point_id) for s in self.stops)

    def end(self) -> Location:
        return self.waypoints[-1]

    def then(self, point: IndoorPoint, leg: float) -> "Route":
        """This route extended by a stop at the point, leg metres from its end."""
        loc = point.location
        return Route(
            waypoints=self.waypoints + (loc,),
            stops=self.stops + (Stop(point.category, point.id, point.static_score, loc),),
            leg_lengths=self.leg_lengths + (leg,),
        )

    def to(self, target: Location, leg: float) -> "Route":
        """This route closed at the target, leg metres from its end: the complete route."""
        return Route(
            waypoints=self.waypoints + (target,),
            stops=self.stops,
            leg_lengths=self.leg_lengths + (leg,),
            complete=True,
        )

    @classmethod
    def through(cls, dist, source: Location, points: Iterable[IndoorPoint],
                target: Location) -> "Route":
        """Complete route source -> each point in turn -> target; dist(a, b)
        measures each leg."""
        route = cls(waypoints=(source,), stops=(), leg_lengths=())
        for point in points:
            route = route.then(point, dist(route.end(), point.location))
        return route.to(target, dist(route.end(), target))


def route_cost(route: Route, alpha: float) -> float:
    """alpha * travel + (1 - alpha) * static, each sum taken left to right.

    Float cost lemma.  Let u = 2**-53 and gamma_n = n*u/(1 - n*u).  For a
    route of m stops, float legs l_0..l_m in [0, W] and float scores s_i,
    `route_cost` and `oracle._best_in_order`'s DP value each lie within
    gamma_(2m+3)*(alpha*(m+1)*W + (1 - alpha)*sum|s_i|) of the exact
    alpha*sum(l_i) + (1 - alpha)*sum(s_i), plus 2**-1074 per product that
    underflows.  Proof (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed. 2002, ch. 2-4): a float op is exact times 1 + d,
    |d| <= u, and a product that underflows is off by under 2**-1075 more
    (at most doubled by later sums); k such factors make 1 + t, |t| <=
    gamma_k; a left-to-right sum of n terms gives a term at most n - 1.  In
    `route_cost` a leg gets m from travel and one each from alpha*travel and
    the final sum; a score m - 1 from static and one each from fl(1 - alpha),
    its product and the final sum.  The DP's value of the route it picks (a
    min is exact) sums alpha*l_0, w_1, alpha*l_1, ..., w_m, alpha*l_m left to
    right, w = fl(fl(1 - alpha)*s): 2m factors from the sum, two from a term.
    From Python 3.12 on, `sum` is compensated, within (2u + O(n*u*u))*sum|x|
    (Higham 4.3), under gamma_3*sum|x| below millions of terms: gamma_6 for
    m >= 2; one or two terms round once.  Corollary: cnn's score ((s + f) +
    t)*alpha + w (`cnn_scores`) is within gamma_4*alpha*(s + f + t) +
    gamma_3*(1 - alpha)*|score| of exact.
    """
    return alpha * route.travel + (1.0 - alpha) * route.static


def cnn_scores(from_source, dist, to_target, alpha: float, static):
    """cnn's scores of rows, ((from_source + dist) + to_target) * alpha + static in place
    on the first sum's temporary, so whole rows and patched ones get the same bits."""
    scores = from_source + dist
    scores += to_target
    scores *= alpha
    scores += static
    return scores


def point_score(ctx: QueryContext, current: Location, point: IndoorPoint, engine) -> float:
    """Three-leg candidate score: how well the point extends the route."""
    loc = point.location
    travel = (
        engine.distance(ctx.source, loc)
        + engine.distance(current, loc)
        + engine.distance(loc, ctx.target)
    )
    return ctx.alpha * travel + (1.0 - ctx.alpha) * point.static_score


@dataclass
class EvalCounter:
    """Counts candidate-score evaluations, the planner's unit of work."""

    point_evals: int = 0


def gcnn(query: TripQuery, index, counter: EvalCounter | None = None) -> Route:
    """Greedy planner: one cheapest category-nearest-neighbour per round.

    Each round finds the best candidate of every uncovered category, then
    extends the current best partial route by the one with the least key
    (then the smaller category) and discards the rest.  The
    key is the extended route's cost plus the candidate's source and
    target legs.  Every leg is one `cnn` returned with its candidate, so
    each candidate costs one call on the index, and only the winner's
    route is built.  The rounds share one context, and with it cnn's
    tables of the query, which resolve its source and target.
    """
    ctx = query.context()
    tables = index.tables(ctx)
    alpha = query.alpha

    best = Route(waypoints=(tables.source,), stops=(), leg_lengths=())
    scores: tuple[float, ...] = ()  # the static score of each stop of best
    to_target = 0.0                 # best's last stop's target leg
    uncovered = sorted(set(query.categories))
    while uncovered:
        current = best.end()
        # (key, category, point, its (source, from, target) legs)
        batch = []
        for cat in uncovered:
            point, legs = index.cnn(current, cat, ctx, counter=counter)
            # route_cost of the extended route, summed as Route.travel and
            # Route.static do, so route_cost's float cost lemma bounds it too.
            key = (alpha * sum(best.leg_lengths + (legs[1],))
                   + (1.0 - alpha) * sum(scores + (point.static_score,)))
            key += legs[0] + legs[2]
            batch.append((key, cat, point, legs))
        _, cat, point, (_, leg, to_target) = min(batch, key=lambda item: item[:2])
        best = best.then(point, leg)
        scores += (point.static_score,)
        uncovered.remove(cat)
    return best.to(tables.target, to_target)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def location_to_dict(loc: Location) -> dict:
    out = {"x": loc.x, "y": loc.y, "floor": loc.floor}
    if loc.partition_id is not None:
        out["partition_id"] = loc.partition_id
    return out


def location_from_dict(data: dict) -> Location:
    return Location(
        x=as_float(data["x"]),
        y=as_float(data["y"]),
        floor=as_int(data["floor"]),
        partition_id=as_int(data["partition_id"]) if "partition_id" in data else None,
    )


def query_to_dict(query: TripQuery) -> dict:
    return {
        "source": location_to_dict(query.source),
        "target": location_to_dict(query.target),
        "categories": list(query.categories),
        "alpha": query.alpha,
    }


def query_from_dict(data: dict) -> TripQuery:
    return TripQuery(
        source=location_from_dict(data["source"]),
        target=location_from_dict(data["target"]),
        categories=tuple(as_int(c) for c in data["categories"]),
        alpha=as_float(data["alpha"]),
    )


def save_queries(queries: Iterable[TripQuery], path: str | Path) -> None:
    with open(path, "w") as fh:
        for q in queries:
            fh.write(json.dumps(query_to_dict(q), sort_keys=True) + "\n")


def load_queries(path: str | Path) -> list[TripQuery]:
    """One query per non-blank line; a malformed line raises ValueError naming it."""
    queries = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        if line.strip():
            try:
                queries.append(query_from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"queries line {n} is malformed: {exc!r}") from None
    return queries


def route_to_dict(route: Route, alpha: float) -> dict:
    return {
        "waypoints": [location_to_dict(w) for w in route.waypoints],
        "leg_lengths": list(route.leg_lengths),
        "covered": sorted([c, p] for c, p in route.covered),
        "travel": route.travel,
        "static": route.static,
        "cost": route_cost(route, alpha),
        "complete": route.complete,
    }
