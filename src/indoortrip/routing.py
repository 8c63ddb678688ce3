"""Route cost model and the greedy category-nearest-neighbour planner.

A route's cost blends travel distance and the static scores of its
stops: cost = alpha * travel + (1 - alpha) * static.  The planner grows
a route from the source one stop at a time, always committing to the
globally cheapest extension over all still-uncovered categories, and
finishes at the target once everything is covered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .venue import IndoorPoint, Location, Venue


class EmptyCategoryError(Exception):
    """A query category has no live point to visit."""


@dataclass(frozen=True)
class QueryContext:
    """Fixed per-query data every candidate score depends on."""

    source: Location
    target: Location
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


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
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def context(self) -> QueryContext:
        return QueryContext(self.source, self.target, self.alpha)


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

    @property
    def covered_categories(self) -> frozenset[int]:
        return frozenset(s.category for s in self.stops)

    def end(self) -> Location:
        return self.waypoints[-1]

    def then(self, point: IndoorPoint, dist) -> "Route":
        """This route extended by a stop at the point; dist(a, b) measures the leg."""
        stop = Stop(point.category, point.id, point.static_score, point.location)
        return Route(
            waypoints=self.waypoints + (point.location,),
            stops=self.stops + (stop,),
            leg_lengths=self.leg_lengths + (dist(self.end(), point.location),),
        )

    def to(self, target: Location, dist) -> "Route":
        """This route closed at the target: the complete route."""
        return Route(
            waypoints=self.waypoints + (target,),
            stops=self.stops,
            leg_lengths=self.leg_lengths + (dist(self.end(), target),),
            complete=True,
        )

    @classmethod
    def through(cls, dist, source: Location, points: Iterable[IndoorPoint],
                target: Location) -> "Route":
        """Complete route source -> each point in turn -> target."""
        route = cls(waypoints=(source,), stops=(), leg_lengths=())
        for point in points:
            route = route.then(point, dist)
        return route.to(target, dist)


def route_cost(route: Route, alpha: float) -> float:
    return alpha * route.travel + (1.0 - alpha) * route.static


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

    Each round extends the current best partial route by the best
    candidate of every uncovered category, then keeps only the extension
    with the least key and discards the rest.  The queue key is the
    partial route cost plus the candidate's source and target legs.
    """
    engine = index.engine
    venue: Venue = index.venue
    source = venue.resolve(query.source)
    target = venue.resolve(query.target)
    ctx = QueryContext(source, target, query.alpha)

    for cat in query.categories:
        if index.live_count(cat) == 0:
            raise EmptyCategoryError(f"category {cat} has no live points")

    # Queue holds (key, category, point id, route); cleared every round so
    # only the cheapest extension of the current route survives.
    start = Route(waypoints=(source,), stops=(), leg_lengths=())
    batch: list[tuple[float, int, int, Route]] = [(0.0, -1, -1, start)]
    while True:
        _, _, _, best = min(batch, key=lambda item: item[:3])
        batch = []
        uncovered = sorted(set(query.categories) - best.covered_categories)
        if not uncovered:
            return best.to(target, engine.distance)
        current = best.end()
        for cat in uncovered:
            point = index.cnn(current, cat, ctx, counter=counter)
            extended = best.then(point, engine.distance)
            key = route_cost(extended, query.alpha)
            key += engine.distance(source, point.location) + engine.distance(
                point.location, target
            )
            batch.append((key, cat, point.id, extended))


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
        x=float(data["x"]),
        y=float(data["y"]),
        floor=int(data["floor"]),
        partition_id=int(data["partition_id"]) if "partition_id" in data else None,
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
        categories=tuple(int(c) for c in data["categories"]),
        alpha=float(data["alpha"]),
    )


def save_queries(queries: Iterable[TripQuery], path: str | Path) -> None:
    with open(path, "w") as fh:
        for q in queries:
            fh.write(json.dumps(query_to_dict(q), sort_keys=True) + "\n")


def load_queries(path: str | Path) -> list[TripQuery]:
    queries = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            queries.append(query_from_dict(json.loads(line)))
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
