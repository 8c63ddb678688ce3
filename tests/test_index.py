import random

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
from indoortrip.index import CnnStats

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
    assert len(index.nodes) == 1
    assert index.root.is_leaf
    assert index.root.covered == frozenset({0})


def test_eight_partitions_fanout_four_gives_two_leaves_and_root():
    venue = make_corridor_venue(rooms=8)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph, fanout=4)
    leaves = [n for n in index.nodes.values() if n.is_leaf]
    assert len(leaves) == 2
    assert len(index.nodes) == 3
    root = index.root
    for cat, parts in root.inverted.items():
        assert parts == set.union(
            *(set(index.nodes[c].inverted.get(cat, set())) for c in root.children)
        )


def test_every_partition_in_exactly_one_leaf():
    venue, graph, index, _ = small_workload(seed=2)
    counts = {pid: 0 for pid in venue.partitions}
    for node in index.nodes.values():
        if node.is_leaf:
            for pid in node.partition_ids:
                counts[pid] += 1
    assert all(c == 1 for c in counts.values())
    assert index.root.covered == frozenset(venue.partitions)


def test_fanout_below_two_rejected(two_room_venue):
    graph = build_d2d_graph(two_room_venue)
    with pytest.raises(ValueError):
        build_index(two_room_venue, graph, fanout=1)


def test_aggregation_invariants_hold_everywhere():
    venue, graph, index, _ = small_workload(seed=3)
    for node in index.nodes.values():
        if node.is_leaf:
            continue
        children = [index.nodes[c] for c in node.children]
        for cat in node.inverted:
            assert node.inverted[cat] == set().union(
                *(c.inverted.get(cat, set()) for c in children)
            )
            assert node.min_static[cat] == min(
                c.min_static[cat] for c in children if cat in c.min_static
            )


def test_min_static_matches_linear_scan_at_root():
    venue, graph, index, _ = small_workload(seed=4)
    for cat in venue.category_ids():
        points = venue.points_of_category(cat)
        if not points:
            continue
        expected = min(p.static_score for p in points)
        assert index.min_static_score(index.root_id, cat) == expected


def test_min_static_absent_category_and_unknown_node():
    venue, graph, index, _ = small_workload(seed=4)
    assert index.min_static_score(index.root_id, 999) is None
    with pytest.raises(KeyError):
        index.min_static_score(10_000, 0)


def test_leaf_min_static_is_min_of_its_scores():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=7, static_score=3.0),
        IndoorPoint(id=1, partition_id=0, x=2, y=2, floor=0, category=7, static_score=1.5),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    assert index.min_static_score(index.root_id, 7) == 1.5


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
    for cat in sorted(index.root.inverted):
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
        cats = sorted(index.root.inverted)
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
    cats = sorted(index.root.inverted)
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
    cats = sorted(index.root.inverted)
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
    cats = sorted(index.root.inverted)
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
    for cat in sorted(index.root.inverted):
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
    venue, graph, index, _ = small_workload(seed=seed)
    checked = 0
    for cat in sorted(index.root.inverted):
        table = index._leaf_table(cat)
        leaves = [n for _, n in sorted(index.nodes.items()) if n.is_leaf and cat in n.inverted]
        assert [b.points for b in table.blocks] == [
            tuple(p for p in index.live_points(cat) if p.partition_id in n.covered)
            for n in leaves
        ]
        for row, node in enumerate(leaves):
            assert table.doors[row, len(node.boundary_doors):].tolist() == \
                [len(graph.door_ids)] * (table.doors.shape[1] - len(node.boundary_doors))
            for k, did in enumerate(node.boundary_doors):
                door = venue.doors[did]
                assert table.doors[row, k] == graph.index_of(did)
                # Standing at the door on its outer side.
                outside = min(p for p in door.partition_ids
                              if p in venue.partitions and p not in node.covered)
                at_door = Location(door.x, door.y, door.floor, outside)
                brute = min(index.engine.distance(at_door, p.location)
                            for p in table.blocks[row].points)
                assert table.inner[row, k] == brute
                checked += 1
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
    assert index.min_static_score(index.root_id, 3) == 2.0

    smaller = index.remove_points([0])
    assert smaller.min_static_score(smaller.root_id, 3) == 5.0
    assert not smaller.is_live(0)
    ctx = QueryContext(Location(1, 1, 0), Location(1, 1, 0), 0.5)
    assert smaller.cnn(Location(1, 1, 0), 3, ctx).id != 0
    # original snapshot untouched
    assert index.is_live(0)
    assert index.min_static_score(index.root_id, 3) == 2.0


def test_remove_sole_point_drops_partition_from_inverted_file():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=3, static_score=2.0),
        IndoorPoint(id=1, partition_id=1, x=15, y=5, floor=0, category=3, static_score=9.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    smaller = index.remove_points([0])
    for node in smaller.nodes.values():
        assert 0 not in node.inverted.get(3, set())


def test_remove_nothing_is_deep_equal():
    venue, graph, index, _ = small_workload(seed=7)
    clone = index.remove_points([])
    assert clone.alive == index.alive
    for nid, node in index.nodes.items():
        other = clone.nodes[nid]
        assert node.inverted == other.inverted
        assert node.min_static == other.min_static
        assert node.covered == other.covered
        assert node.boundary_doors == other.boundary_doors


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
        for node in index.nodes.values():
            if node.is_leaf:
                continue
            children = [index.nodes[c] for c in node.children]
            for cat in node.inverted:
                assert node.inverted[cat] == set().union(
                    *(c.inverted.get(cat, set()) for c in children)
                )
                assert node.min_static[cat] == min(
                    c.min_static[cat] for c in children if cat in c.min_static
                )
