import random

import numpy as np
import pytest

from indoortrip import (
    EmptyCategoryError,
    IndoorPoint,
    Location,
    QueryContext,
    build_d2d_graph,
    build_index,
    point_score,
)
from indoortrip.index import CnnStats, Leaf

from conftest import make_corridor_venue, make_two_room_venue, small_workload


def linear_scan_cnn(index, from_loc, category, ctx):
    """Independent reference: brute-force argmin with the id tie-break."""
    best = None
    for p in index.live_points(category):
        score = point_score(ctx, from_loc, p, index.engine)
        if best is None or score < best[0] or (score == best[0] and p.id < best[1]):
            best = (score, p.id, p)
    return best[2]


def random_context(rng, venue, alpha=None):
    rooms = sorted(p.id for p in venue.partitions.values() if p.kind == "room")

    def sample():
        part = venue.partitions[rng.choice(rooms)]
        x0, y0, x1, y1 = part.bounds
        return Location(rng.uniform(x0, x1), rng.uniform(y0, y1), part.floor, part.id)

    a = rng.random() if alpha is None else alpha
    return QueryContext(source=sample(), target=sample(), alpha=a), sample


def test_single_partition_venue_has_one_node_root_and_leaf():
    venue = make_two_room_venue()
    venue.partitions.pop(1)
    venue.doors[0] = venue.doors[0].__class__(id=0, x=10.0, y=5.0, floor=0, partition_ids=(0,))
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    assert index.leaves == (Leaf(partition_ids=(0,), boundary_doors=()),)


def test_eight_partitions_leaf_size_four_gives_two_leaves():
    venue = make_corridor_venue(rooms=8)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph, leaf_size=4)
    assert index.leaves == (Leaf((0, 1, 2, 3), (4,)), Leaf((4, 5, 6, 7), (4,)))


def test_every_partition_in_exactly_one_leaf():
    venue, graph, index, _ = small_workload(seed=2)
    counts = {pid: 0 for pid in venue.partitions}
    for leaf in index.leaves:
        for pid in leaf.partition_ids:
            counts[pid] += 1
    assert all(c == 1 for c in counts.values())
    assert sum(counts.values()) == len(venue.partitions)


def test_leaf_size_below_one_rejected(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    for leaf_size in (0, -1):
        with pytest.raises(ValueError, match=f"leaf_size must be at least 1, got {leaf_size}"):
            build_index(two_room_venue, graph, leaf_size=leaf_size)
    assert len(build_index(two_room_venue, graph, leaf_size=1).leaves) == 2


def assert_leaf_tables_match_live_points(index):
    """Each category's table has one row per leaf holding the category, in
    leaf order: the leaf's live points of it in id order, their least
    static score, and a row_of entry for each of the leaf's partitions."""
    assert index.live_categories() == sorted(
        {index.venue.points[i].category for i in index.alive})
    for cat in index.live_categories():
        pool = index.live_points(cat)
        assert [p.id for p in pool] == sorted(
            i for i in index.alive if index.venue.points[i].category == cat)
        assert index.live_count(cat) == len(pool)
        holding = [leaf for leaf in index.leaves
                   if any(p.partition_id in leaf.partition_ids for p in pool)]
        table = index._leaf_table(cat)
        assert [b.points for b in table.blocks] == [
            tuple(p for p in pool if p.partition_id in leaf.partition_ids) for leaf in holding
        ]
        assert table.min_static.tolist() == [
            min(p.static_score for p in b.points) for b in table.blocks
        ]
        assert table.row_of == {pid: row for row, leaf in enumerate(holding)
                                for pid in leaf.partition_ids}
        assert table.door_entries.shape == (len(index.graph.door_ids), len(holding))


def test_aggregation_invariants_hold_everywhere():
    venue, graph, index, _ = small_workload(seed=3)
    assert_leaf_tables_match_live_points(index)


def test_min_static_matches_linear_scan_at_root():
    venue, graph, index, _ = small_workload(seed=4)
    for cat in venue.category_ids():
        points = venue.points_of_category(cat)
        if not points:
            continue
        expected = min(p.static_score for p in points)
        assert index._leaf_table(cat).min_static.min() == expected


def test_leaf_min_static_is_min_of_its_scores():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=7, static_score=3.0),
        IndoorPoint(id=1, partition_id=0, x=2, y=2, floor=0, category=7, static_score=1.5),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    assert index._leaf_table(7).min_static.tolist() == [1.5]


def test_cnn_single_point_category_returns_it():
    points = [IndoorPoint(id=5, partition_id=1, x=15, y=5, floor=0, category=2, static_score=9.0)]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    ctx = QueryContext(Location(1, 1, 0), Location(2, 2, 0), 0.5)
    assert index.cnn(Location(1, 1, 0), 2, ctx).id == 5


def test_cnn_alpha_zero_returns_global_min_score():
    venue, graph, index, _ = small_workload(seed=5)
    # (1, 5) lies in room 1, so the location is left for cnn to resolve.
    ctx = QueryContext(Location(1, 5, 0), Location(1, 5, 0), alpha=0.0)
    for cat in index.live_categories():
        got = index.cnn(Location(1, 5, 0), cat, ctx)
        pool = index.live_points(cat)
        best = min(pool, key=lambda p: (p.static_score, p.id))
        assert got.id == best.id


def test_cnn_alpha_one_is_geometric_argmin_within_partition():
    points = [
        IndoorPoint(id=i, partition_id=0, x=1.0 + i, y=1.0, floor=0, category=1, static_score=100 - i)
        for i in range(5)
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    src = Location(0.0, 1.0, 0)
    ctx = QueryContext(src, src, alpha=1.0)
    got = index.cnn(src, 1, ctx)
    assert got.id == 0  # nearest three-leg sum, score ignored at alpha=1


def test_cnn_empty_category_raises():
    venue, graph, index, _ = small_workload(seed=5)
    ctx = QueryContext(Location(1, 5, 0), Location(1, 5, 0), 0.5)
    with pytest.raises(EmptyCategoryError):
        index.cnn(Location(1, 5, 0), 777, ctx)


def test_cnn_equals_linear_scan_on_random_trials():
    rng = random.Random(17)
    for seed in (0, 1, 2):
        venue, graph, index, _ = small_workload(seed=seed)
        cats = index.live_categories()
        ctx_factory = lambda: random_context(rng, venue)
        for _ in range(120):
            ctx, sample = ctx_factory()
            from_loc = sample()
            cat = rng.choice(cats)
            got = index.cnn(from_loc, cat, ctx)
            want = linear_scan_cnn(index, from_loc, cat, ctx)
            assert got.id == want.id


def test_cnn_accepts_unresolved_context_locations():
    rng = random.Random(59)
    venue, graph, index, _ = small_workload(seed=6)
    cats = index.live_categories()
    for _ in range(60):
        ctx, sample = random_context(rng, venue)
        bare = QueryContext(
            Location(ctx.source.x, ctx.source.y, ctx.source.floor),
            Location(ctx.target.x, ctx.target.y, ctx.target.floor),
            ctx.alpha,
        )
        from_loc = sample()
        cat = rng.choice(cats)
        got = index.cnn(from_loc, cat, bare)
        want = linear_scan_cnn(index, from_loc, cat, ctx)
        assert got.id == want.id


def test_cnn_skipped_nodes_bound_the_returned_score():
    rng = random.Random(23)
    venue, graph, index, _ = small_workload(seed=6)
    cats = index.live_categories()
    for _ in range(60):
        ctx, sample = random_context(rng, venue)
        from_loc = sample()
        cat = rng.choice(cats)
        stats = CnnStats()
        got = index.cnn(from_loc, cat, ctx, stats=stats)
        final = point_score(ctx, from_loc, got, index.engine)
        assert all(b >= final - 1e-12 for b in stats.skipped_bounds)


def door_spots(venue):
    """A location exactly at each door, once in each partition it joins."""
    return [
        Location(d.x, d.y, d.floor, pid)
        for _, d in sorted(venue.doors.items())
        for pid in d.partition_ids
        if pid in venue.partitions
    ]


def any_spot(rng, venue, doors):
    """Half the time a door, else a point of any partition, stairs included."""
    if rng.random() < 0.5:
        return rng.choice(doors)
    part = venue.partitions[rng.choice(sorted(venue.partitions))]
    x0, y0, x1, y1 = part.bounds
    return Location(rng.uniform(x0, x1), rng.uniform(y0, y1), rng.choice(part.floors), part.id)


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_leaf_bound_is_at_most_its_least_block_score(seed, alpha):
    venue, graph, index, _ = small_workload(seed=seed)
    engine = index.engine
    rng = random.Random(1000 * seed + int(10 * alpha))
    doors = door_spots(venue)
    cats = index.live_categories()
    for _ in range(40):
        ctx = QueryContext(any_spot(rng, venue, doors), any_spot(rng, venue, doors), alpha)
        from_loc = any_spot(rng, venue, doors)
        cat = rng.choice(cats)
        table = index._leaf_table(cat)
        memo = index._query_memo(ctx)
        from_legs = memo.legs(from_loc)
        terms = index._category_terms(memo, cat, alpha)
        assert terms.table is table
        bounds = terms.bounds(from_legs, from_legs is memo.source, alpha)
        assert len(bounds) == len(table.blocks)
        for bound, block in zip(bounds.tolist(), table.blocks):
            src, here, tgt = (engine.block_distances(engine.legs(loc), block)
                              for loc in (ctx.source, from_loc, ctx.target))
            scores = alpha * (src + here + tgt) + (1.0 - alpha) * block.scores
            assert bound <= scores.min()


def stair_spots(rng, venue):
    """A random spot of every stairs partition on each floor it reaches."""
    spots = []
    for _, part in sorted(venue.partitions.items()):
        if part.kind == "stairs":
            x0, y0, x1, y1 = part.bounds
            spots += [Location(rng.uniform(x0, x1), rng.uniform(y0, y1), floor, part.id)
                      for floor in part.floors]
    return spots


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_entry_bounds_are_at_most_every_block_distance_into_their_leaf(seed):
    """The float-safety argument on entries themselves: from a door or a
    stair, a leaf's entry bound is 0 in the location's own leaf and never
    above a kernel distance to one of its points elsewhere."""
    venue, graph, index, _ = small_workload(seed=seed)
    engine = index.engine
    rng = random.Random(seed)
    doors = door_spots(venue)
    stairs = stair_spots(rng, venue)
    assert stairs
    spots = doors + stairs + [any_spot(rng, venue, doors) for _ in range(40)]
    checked = 0
    for cat in index.live_categories():
        table = index._leaf_table(cat)
        for loc in spots:
            legs = engine.legs(loc)
            own = table.row_of.get(loc.partition_id)
            entries = table.entries(legs).tolist()
            for row, block in enumerate(table.blocks):
                if row == own:
                    assert entries[row] == 0.0
                    continue
                assert entries[row] <= engine.block_distances(legs, block).min()
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inner_legs_equal_the_least_distance_from_their_door(seed):
    """door_entries[:, row] is, exactly, the least over the leaf's boundary
    doors b of matrix[:, b] plus the brute-force distance from b into the
    leaf's block."""
    venue, graph, index, _ = small_workload(seed=seed)
    matrix = graph.distance_matrix()
    checked = 0
    for cat in index.live_categories():
        table = index._leaf_table(cat)
        pool = index.live_points(cat)
        holding = [leaf for leaf in index.leaves
                   if any(p.partition_id in leaf.partition_ids for p in pool)]
        assert [b.points for b in table.blocks] == [
            tuple(p for p in pool if p.partition_id in leaf.partition_ids) for leaf in holding
        ]
        for row, leaf in enumerate(holding):
            want = np.full(len(graph.door_ids), np.inf)
            for did in leaf.boundary_doors:
                door = venue.doors[did]
                # Standing at the door on its outer side.
                outside = min(p for p in door.partition_ids
                              if p in venue.partitions and p not in leaf.partition_ids)
                at_door = Location(door.x, door.y, door.floor, outside)
                brute = min(index.engine.distance(at_door, p.location)
                            for p in table.blocks[row].points)
                want = np.minimum(want, matrix[:, graph.index_of(did)] + brute)
                checked += 1
            assert table.door_entries[:, row].tolist() == want.tolist()
    assert checked > 20


def test_remove_points_rerouting_and_min_static_rise():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=3, static_score=2.0),
        IndoorPoint(id=1, partition_id=0, x=2, y=2, floor=0, category=3, static_score=5.0),
        IndoorPoint(id=2, partition_id=1, x=15, y=5, floor=0, category=3, static_score=9.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    assert index._leaf_table(3).min_static.tolist() == [2.0]

    smaller = index.remove_points([0])
    assert smaller._leaf_table(3).min_static.tolist() == [5.0]
    assert not smaller.is_live(0)
    ctx = QueryContext(Location(1, 1, 0), Location(1, 1, 0), 0.5)
    assert smaller.cnn(Location(1, 1, 0), 3, ctx).id != 0
    # original snapshot untouched
    assert index.is_live(0)
    assert index._leaf_table(3).min_static.tolist() == [2.0]


def test_remove_sole_point_drops_partition_from_inverted_file():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=3, static_score=2.0),
        IndoorPoint(id=1, partition_id=1, x=15, y=5, floor=0, category=3, static_score=9.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph, leaf_size=1)
    smaller = index.remove_points([0])
    assert (0, 3) not in smaller._live_by_part_cat
    assert smaller._live_by_part_cat[(1, 3)] == (1,)
    assert index._leaf_table(3).row_of == {0: 0, 1: 1}
    assert smaller._leaf_table(3).row_of == {1: 0}


def test_remove_points_shares_the_leaves():
    venue, graph, index, _ = small_workload(seed=7)
    smaller = index.remove_points(sorted(index.alive)[::3])
    assert smaller.leaves is index.leaves
    assert smaller.engine is index.engine


def test_remove_nothing_is_deep_equal():
    venue, graph, index, _ = small_workload(seed=7)
    clone = index.remove_points([])
    assert clone.alive == index.alive
    assert clone.leaves is index.leaves
    assert clone._live_by_part_cat == index._live_by_part_cat
    assert clone.live_categories() == index.live_categories()
    for cat in index.live_categories():
        assert clone.live_points(cat) == index.live_points(cat)
        a, b = index._leaf_table(cat), clone._leaf_table(cat)
        assert a.row_of == b.row_of
        assert a.min_static.tolist() == b.min_static.tolist()
        assert a.door_entries.tolist() == b.door_entries.tolist()


def test_remove_points_unknown_or_dead_id_errors():
    venue, graph, index, _ = small_workload(seed=7)
    with pytest.raises(KeyError):
        index.remove_points([10_000])
    some_id = next(iter(index.alive))
    smaller = index.remove_points([some_id])
    with pytest.raises(ValueError):
        smaller.remove_points([some_id])


def test_aggregation_still_consistent_after_random_removals():
    rng = random.Random(41)
    venue, graph, index, _ = small_workload(seed=8)
    for _ in range(4):
        alive = sorted(index.alive)
        if len(alive) < 4:
            break
        index = index.remove_points(rng.sample(alive, 3))
        assert_leaf_tables_match_live_points(index)
