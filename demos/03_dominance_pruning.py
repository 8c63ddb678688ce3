"""Watch the detour certificate thin out one room.

Two categories share a shop room next to a hallway.  A point is dropped
when a cheaper point of its category nearby makes it never worth the
walk: 3 * alpha * d(p, q) < (1 - alpha) * (s(p) - s(q)).  Fewer points
go as alpha grows, and a snapshot pruned at alpha keeps every greedy
route and every exact optimum of the queries whose alpha is at most that.
"""

import random
from dataclasses import replace

from indoortrip import (
    Door, IndoorPoint, Location, Partition, TripQuery, Venue, build_d2d_graph, build_index,
    exact_route, gcnn, preprocess, route_cost,
)

rng = random.Random(12)
partitions = {
    0: Partition(id=0, floor=0, bounds=(0, 0, 40, 6), kind="hallway", door_ids=(0, 1)),
    1: Partition(id=1, floor=0, bounds=(10, 6, 34, 18), kind="room", door_ids=(1,)),
}
doors = {
    0: Door(id=0, x=0.0, y=3.0, floor=0, partition_ids=(0,)),
    1: Door(id=1, x=22.0, y=6.0, floor=0, partition_ids=(0, 1)),
}
points = [IndoorPoint(id=i, partition_id=1, x=rng.uniform(10, 34), y=rng.uniform(6, 18),
                      floor=0, category=i % 2, static_score=rng.uniform(0, 30))
          for i in range(24)]
venue = Venue(partitions=partitions, doors=doors, points={p.id: p for p in points})
index = build_index(venue, build_d2d_graph(venue))

queries = [TripQuery(Location(rng.uniform(0, 40), rng.uniform(0, 6), 0),
                     Location(rng.uniform(0, 40), rng.uniform(0, 6), 0), (0, 1))
           for _ in range(40)]

for alpha in (0.2, 0.5, 0.8):
    pruned, report = preprocess(index, [0, 1], alpha=alpha)
    print(f"alpha {alpha}: kept {report.kept} of {len(points)} points")
    for cat in (0, 1):
        kept = sorted(p.id for p in pruned.live_points(cat))
        print(f"  category {cat}: {kept}")
    for query_alpha in sorted({0.2, 0.5, 0.8}):
        same_route = same_optimum = 0
        for query in queries:
            query = replace(query, alpha=query_alpha)
            same_route += gcnn(query, pruned) == gcnn(query, index)
            same_optimum += (route_cost(exact_route(query, pruned), query_alpha)
                             == route_cost(exact_route(query, index), query_alpha))
        note = "" if query_alpha <= alpha else "   (above the snapshot's alpha: no promise)"
        print(f"  queries at alpha {query_alpha}: greedy route kept {same_route}/{len(queries)}, "
              f"optimum kept {same_optimum}/{len(queries)}{note}")
