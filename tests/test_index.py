import random
from dataclasses import replace

import numpy as np
import pytest

from indoortrip import (
    EmptyCategoryError,
    EvalCounter,
    IndoorPoint,
    Location,
    QueryContext,
    build_d2d_graph,
    build_index,
    build_workload,
    load_objects_csv,
    load_venue,
    point_score,
    preprocess,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from indoortrip import DistanceEngine, Partition, d2d
from indoortrip.index import QueryTables
from indoortrip.venue import BOUNDARY_EPS, intra_distance

from conftest import (block_distances, block_points, make_corridor_venue, make_two_room_venue,
                      perfbench_workloads, small_workload)


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


def assert_blocks_match_live_points(index):
    """Each live category's block holds its live points in id order, with
    their ids and static scores."""
    assert index.live_categories() == sorted(
        {index.venue.points[i].category for i in index.alive})
    for cat in index.live_categories():
        pool = index.live_points(cat)
        assert [p.id for p in pool] == sorted(
            i for i in index.alive if index.venue.points[i].category == cat)
        assert index.live_count(cat) == len(pool)
        block = index.category_block(cat)
        assert block_points(block) == pool
        assert block.table.id[block.rows].tolist() == [p.id for p in pool]
        assert block.scores.tolist() == [p.static_score for p in pool]


def test_aggregation_invariants_hold_everywhere():
    venue, graph, index, _ = small_workload(seed=3)
    assert_blocks_match_live_points(index)


def test_category_block_holds_the_least_static_score():
    """A category's block, the whole of every cnn scan of it, holds the
    category's least static score."""
    venue, graph, index, _ = small_workload(seed=4)
    for cat in index.live_categories():
        points = index.live_points(cat)
        expected = min(p.static_score for p in points)
        assert index.category_block(cat).scores.min() == expected


def test_cnn_single_point_category_returns_it():
    points = [IndoorPoint(id=5, partition_id=1, x=15, y=5, floor=0, category=2, static_score=9.0)]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    ctx = QueryContext(Location(1, 1, 0), Location(2, 2, 0), 0.5)
    assert index.cnn(Location(1, 1, 0), 2, ctx)[0].id == 5


def test_cnn_alpha_zero_returns_global_min_score():
    venue, graph, index, _ = small_workload(seed=5)
    # (1, 5) lies in room 1, so the location is left for cnn to resolve.
    ctx = QueryContext(Location(1, 5, 0), Location(1, 5, 0), alpha=0.0)
    for cat in index.live_categories():
        got, _ = index.cnn(Location(1, 5, 0), cat, ctx)
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
    got, _ = index.cnn(src, 1, ctx)
    assert got.id == 0  # nearest three-leg sum, score ignored at alpha=1


def test_cnn_empty_category_raises():
    venue, graph, index, _ = small_workload(seed=5)
    ctx = QueryContext(Location(1, 5, 0), Location(1, 5, 0), 0.5)
    with pytest.raises(EmptyCategoryError):
        index.cnn(Location(1, 5, 0), 777, ctx)


def test_cnn_from_a_dead_category_raises_with_or_without_context_categories():
    venue, graph, index, _ = small_workload(seed=5)
    cat = index.live_categories()[0]
    dead = index.remove_points(p.id for p in index.live_points(cat))
    here = Location(1, 5, 0)
    for categories in ((), (cat,), tuple(index.live_categories())):
        ctx = QueryContext(here, here, 0.5, categories)
        with pytest.raises(EmptyCategoryError, match=f"category {cat} has no live points"):
            dead.cnn(here, cat, ctx)
    empty = index.remove_points(index.alive)
    with pytest.raises(EmptyCategoryError):
        empty.cnn(here, cat, QueryContext(here, here, 0.5))


def test_cnn_of_a_category_outside_the_context_raises_naming_it():
    venue, graph, index, _ = small_workload(seed=5)
    first, second, *_ = index.live_categories()
    here = Location(1, 5, 0)
    ctx = QueryContext(here, here, 0.5, (first,))
    assert index.cnn(here, first, ctx)[0].category == first
    with pytest.raises(ValueError, match=f"category {second} is not one of the query's categories"):
        index.cnn(here, second, ctx)


def test_a_refused_cnn_lays_out_nothing():
    """A live category outside the query's is refused before anything more
    is laid out or a point of it is handed out: the snapshot's blocks (all
    of them since its first block), points and row map stay as the query's
    first cnn call left them."""
    venue, graph, index, _ = small_workload(seed=0)
    here = Location(1, 5, 0)
    ctx = QueryContext(here, here, 0.5, (1, 2))
    index.cnn(here, 1, ctx)
    assert sorted(index._blocks) == index.live_categories()
    blocks, points, rows = dict(index._blocks), list(index._points), dict(index._located)
    with pytest.raises(ValueError, match="category 0 is not one of the query's categories"):
        index.cnn(here, 0, ctx)
    assert index._blocks == blocks and index._points == points and index._located == rows


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cnn_from_a_stop_in_a_crowded_store_room_equals_linear_scan(seed, alpha):
    """From each point of the store room with the most live points, cnn of
    every other category equals the linear scan.  The from location's row is
    measured once per context and its own room's rows are patched only for
    the category read, so every category is read from one context, in
    turn, and from a fresh one."""
    venue, graph, index, _ = small_workload(seed=seed)
    rooms = {}
    for p in venue.points.values():
        rooms.setdefault(p.partition_id, []).append(p)
    room, stops = max(rooms.items(), key=lambda item: (len(item[1]), -item[0]))
    assert len({p.category for p in stops}) > 1
    rng = random.Random(seed)
    ctx, _ = random_context(rng, venue, alpha)
    in_room = 0
    for stop in sorted(stops, key=lambda p: p.id):
        shared = QueryContext(ctx.source, ctx.target, alpha)
        for cat in index.live_categories():
            if cat == stop.category:
                continue
            want = linear_scan_cnn(index, stop.location, cat, ctx)
            assert index.cnn(stop.location, cat, shared)[0].id == want.id
            assert index.cnn(stop.location, cat, QueryContext(ctx.source, ctx.target, alpha))[0].id == want.id
            in_room += want.partition_id == room
    assert in_room > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_row_scored_after_a_patch_has_the_bits_of_one_scored_before_it(seed):
    """From each live point, its own category's rows in its partition (itself
    at least) are patched either before the row is first scored or after,
    when they are scored again: the distance and score rows are the same
    bits either way."""
    venue, graph, index, queries = small_workload(seed=seed)
    query = queries[0]
    checked = 0
    for p in venue.points.values():
        other = next(c for c in index.live_categories() if c != p.category)
        before, after = (QueryTables(index, query.source, query.target, query.alpha)
                         for _ in range(2))
        before.measured(p.location, p.category)
        dist, scores = before.scored(p.location, other)
        after.scored(p.location, other)
        got = after.scored(p.location, p.category)
        assert dist.tobytes() == got[0].tobytes()
        assert scores.tobytes() == got[1].tobytes()
        checked += 1
    assert checked > 20


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
            want = linear_scan_cnn(index, from_loc, cat, ctx)
            # One exact scan: every live point of the category, once, counted
            # through counter= or stats=; a call with neither counts nothing.
            assert index.cnn(from_loc, cat, ctx)[0].id == want.id
            for keyword in ("counter", "stats"):
                counter = EvalCounter()
                got, _ = index.cnn(from_loc, cat, ctx, **{keyword: counter})
                assert got.id == want.id
                assert counter.point_evals == index.live_count(cat), keyword


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
        got, _ = index.cnn(from_loc, cat, bare)
        want = linear_scan_cnn(index, from_loc, cat, ctx)
        assert got.id == want.id


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


def stair_spots(rng, venue):
    """A random spot of every stairs partition on each floor it reaches."""
    spots = []
    for _, part in sorted(venue.partitions.items()):
        if part.kind == "stairs":
            x0, y0, x1, y1 = part.bounds
            spots += [Location(rng.uniform(x0, x1), rng.uniform(y0, y1), floor, part.id)
                      for floor in part.floors]
    return spots


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cnn_equals_linear_scan_from_doors_and_stairs(seed, alpha):
    """Source, target and from location stand at a door (a leg of 0), on
    a stair's floor or anywhere: cnn still returns the linear scan's point."""
    venue, graph, index, _ = small_workload(seed=seed)
    rng = random.Random(1000 * seed + int(10 * alpha))
    doors = door_spots(venue)
    stairs = stair_spots(rng, venue)
    assert stairs
    cats = index.live_categories()
    for _ in range(40):
        ctx = QueryContext(any_spot(rng, venue, doors), any_spot(rng, venue, doors), alpha)
        for from_loc in (any_spot(rng, venue, doors), rng.choice(stairs)):
            cat = rng.choice(cats)
            assert index.cnn(from_loc, cat, ctx)[0].id == linear_scan_cnn(index, from_loc, cat, ctx).id


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cnn_score_is_the_least_kernel_score_of_its_block(seed, alpha):
    """cnn scans its category's whole live block, and the score of the
    point it returns bounds the block: it is the least kernel score over
    the block, bit for bit, at its first row, so no point scores below
    it."""
    venue, graph, index, _ = small_workload(seed=seed)
    engine = index.engine
    rng = random.Random(1000 * seed + int(10 * alpha))
    doors = door_spots(venue)
    cats = index.live_categories()
    for _ in range(40):
        ctx = QueryContext(any_spot(rng, venue, doors), any_spot(rng, venue, doors), alpha)
        from_loc = any_spot(rng, venue, doors)
        cat = rng.choice(cats)
        got, legs = index.cnn(from_loc, cat, ctx)
        block = index.category_block(cat)
        src, here, tgt = (block_distances(engine, engine.legs(loc), block)
                          for loc in (ctx.source, from_loc, ctx.target))
        scores = alpha * (src + here + tgt) + (1.0 - alpha) * block.scores
        bound = alpha * sum(legs) + (1.0 - alpha) * got.static_score
        assert got is index.point(block.rows[int(scores.argmin())])
        assert bound == scores.min()
        assert (bound <= scores).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_door_vector_entry_bounds_are_at_most_every_block_distance(seed):
    """From a door, a stair or anywhere, a point's entry bound, the least
    door-vector entry over its partition's doors, is never above the
    kernel distance to it; rows in the location's own partition are
    patched with intra_distance, bit for bit."""
    venue, graph, index, _ = small_workload(seed=seed)
    engine = index.engine
    rng = random.Random(seed)
    doors = door_spots(venue)
    stairs = stair_spots(rng, venue)
    assert stairs
    spots = doors + stairs + [any_spot(rng, venue, doors) for _ in range(40)]
    checked = 0
    for cat in index.live_categories():
        block = index.category_block(cat)
        for loc in spots:
            legs = engine.legs(loc)
            got = block_distances(engine, legs, block)
            entries = np.where(np.isinf(block.legs), np.inf,
                               engine.door_vector(loc)[block.doors]).min(axis=1)
            for row, p in enumerate(block_points(block)):
                if p.partition_id == loc.partition_id:
                    part = venue.partitions[p.partition_id]
                    assert got[row] == intra_distance(part, legs.location, p)
                    continue
                assert entries[row] <= got[row]
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inner_legs_equal_the_least_distance_from_their_door(seed):
    """block.legs[p, j], the inner leg from point p to door j of its
    partition, is exactly the kernel distance to p from a spot at that door
    inside p's partition, and never below it from the door's other side."""
    venue, graph, index, _ = small_workload(seed=seed)
    engine = index.engine
    checked = 0
    for cat in index.live_categories():
        block = index.category_block(cat)
        for row, p in enumerate(block_points(block)):
            door_ids = venue.partition_doors(p.partition_id)
            assert block.doors[row, :len(door_ids)].tolist() == [
                graph.door_ids.index(d.id) for d in door_ids]
            assert np.isinf(block.legs[row, len(door_ids):]).all()
            for slot, door in enumerate(door_ids):
                leg = block.legs[row, slot]
                for pid in door.partition_ids:
                    if pid not in venue.partitions:
                        continue
                    at_door = engine.legs(Location(door.x, door.y, door.floor, pid))
                    got = block_distances(engine, at_door, block)[row]
                    if pid == p.partition_id:
                        assert got == leg
                    else:
                        assert got <= leg
                    checked += 1
    assert checked > 20


def with_many_door_points(venue, rng):
    """The venue plus one more category's points in its hallways and
    stairs, whose many doors make that category's block wider than the
    rooms' categories', and a stairs point on every floor; and those points."""
    wide = max(venue.categories) + 1
    extra = []
    for pid, part in sorted(venue.partitions.items()):
        if part.kind in ("hallway", "stairs"):
            x0, y0, x1, y1 = part.bounds
            extra.append(IndoorPoint(
                id=100_000 + pid, partition_id=pid, x=rng.uniform(x0, x1), y=rng.uniform(y0, y1),
                floor=rng.choice(part.floors), category=wide, static_score=rng.uniform(1.0, 5.0)))
    for p in list(extra):  # stairs points on every floor, so some pairs cross floors
        part = venue.partitions[p.partition_id]
        for floor in set(part.floors) - {p.floor} if part.kind == "stairs" else ():
            extra.append(IndoorPoint(
                id=200_000 + 10 * p.partition_id + floor, partition_id=p.partition_id,
                x=(part.bounds[0] + part.bounds[2]) / 2, y=(part.bounds[1] + part.bounds[3]) / 2,
                floor=floor, category=wide, static_score=p.static_score))
    return venue.with_points(list(venue.points.values()) + extra), extra


def test_door_rows_and_block_partitions_match_their_references(desk_workload):
    """The graph's door_rows are each partition's doors as read-only matrix
    rows, in door_ids order; each category block's by_partition holds, per
    partition, its block rows there in ascending order and their table rows."""
    def point(pid, part, x, cat):
        return IndoorPoint(id=pid, partition_id=part, x=x, y=5.0, floor=0, category=cat,
                           static_score=1.0 + pid)

    two_rooms = make_two_room_venue([point(0, 1, 12, 0), point(1, 0, 3, 0), point(2, 1, 18, 0),
                                     point(3, 0, 7, 1)])
    corridor = make_corridor_venue().with_points(
        [point(i, i % 4, 10 * (i % 4) + 1 + i, i % 2) for i in range(8)])
    many_doors, _ = with_many_door_points(small_workload(seed=0)[0], random.Random(0))
    venues = [two_rooms, corridor, desk_workload[0], many_doors]
    assert any(len(part.door_ids) > 2 for part in many_doors.partitions.values())
    for venue in venues:
        graph = build_d2d_graph(venue)
        assert set(graph.door_rows) == set(venue.partitions)
        for pid, part in venue.partitions.items():
            rows = graph.door_rows[pid]
            assert rows.tolist() == [graph.door_ids.index(d) for d in part.door_ids]
            assert not rows.flags.writeable
        index = build_index(venue, graph)
        assert index.live_categories()
        for cat in index.live_categories():
            block = index.category_block(cat)
            assert block.rows == index.live_rows(cat).tolist()
            want: dict[int, tuple[list, list]] = {}
            for row, p in enumerate(block_points(block)):
                want.setdefault(p.partition_id, ([], []))[0].append(row)
                want[p.partition_id][1].append(index.table.row_of(p.id))
            assert set(block.by_partition) == set(want)
            for pid, (rows, table_rows) in block.by_partition.items():
                assert rows.tolist() == want[pid][0]
                assert table_rows == want[pid][1]


@pytest.mark.parametrize("doors_per_room", [1, 2, 3])
def test_block_rows_are_each_points_legs_padded(doors_per_room):
    """Every category block's doors and legs are, byte for byte, each
    point's `engine.legs` padded to the block's width with door 0 and an
    infinite leg: on the full snapshot and on a preprocessed one, over
    multi-door rooms and points in hallways and on two-floor stairs."""
    venue = small_workload(seed=doors_per_room, doors_per_room=doors_per_room)[0]
    venue, extra = with_many_door_points(venue, random.Random(doors_per_room))
    stairs = {(p.partition_id, p.floor) for p in extra
              if venue.partitions[p.partition_id].kind == "stairs"}
    assert len(stairs) > len({pid for pid, _ in stairs}) > 0
    full = build_index(venue, build_d2d_graph(venue))
    pruned, report = preprocess(full, full.live_categories())
    assert report.removed > 0
    for index in (full, pruned):
        for cat in index.live_categories():
            block = index.category_block(cat)
            rows = [index.engine.legs(p.location) for p in block_points(block)]
            width = max(got.doors.size for got in rows)
            doors = np.zeros((len(rows), width), dtype=int)
            legs = np.full((len(rows), width), np.inf)
            for row, got in enumerate(rows):
                doors[row, :got.doors.size] = got.doors
                legs[row, :got.legs.size] = got.legs
            assert block.doors.shape == doors.shape and block.doors.dtype == doors.dtype
            assert block.doors.tobytes() == doors.tobytes()
            assert block.legs.tobytes() == legs.tobytes()


@pytest.mark.parametrize("budget", [1, 7, 2 ** 10, None])
@pytest.mark.parametrize("doors_per_room", [1, 2, 3])
def test_pair_table_rows_are_the_reference_block_kernel(monkeypatch, doors_per_room, budget):
    """For every ordered pair of categories, a == b included, each row of
    `pair_table(a, b)` is, byte for byte, the reference block kernel from
    that point of a to b's block, and `pair_table(b, a)` is its transpose:
    over multi-door rooms and points in hallways and on two-floor stairs,
    with chunks of one row (budgets 1 and 7), of several rows and a
    shorter last one (2 ** 10), and the default budget."""
    if budget is not None:
        monkeypatch.setattr(d2d, "_PAIR_FLOATS", budget)
    venue = small_workload(seed=doors_per_room, doors_per_room=doors_per_room)[0]
    venue, extra = with_many_door_points(venue, random.Random(doors_per_room))
    assert len({p.floor for p in extra if venue.partitions[p.partition_id].kind == "stairs"}) > 1
    index = build_index(venue, build_d2d_graph(venue))
    engine = index.engine
    blocks = [index.category_block(c) for c in index.live_categories()]
    for a in blocks:
        for b in blocks:
            got = engine.pair_table(a, b)
            assert got.shape == (len(a.rows), len(b.rows))
            for row, p in zip(got, block_points(a)):
                want = block_distances(engine, engine.legs(p.location), b)
                assert row.tobytes() == want.tobytes(), (p.id, b.rows[0])
            assert engine.pair_table(b, a).tobytes() == got.T.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_pair_table_patches_are_intra_distance_bit_for_bit(seed):
    """Where two points share a partition, `pair_table` holds exactly
    `intra_distance` between their objects, read from the table's columns:
    for every ordered pair of categories, with points in hallways, on each
    floor of a stairs (the diagonal across floors) and co-located points
    of different categories (0.0)."""
    venue, graph, _, _ = small_workload(seed=seed)
    venue, extra = with_many_door_points(venue, random.Random(seed))
    twins = [replace(p, id=300_000 + p.id, category=p.category + 1) for p in extra]
    venue = venue.with_points(list(venue.points.values()) + twins)
    index = build_index(venue, graph)
    kinds = set()
    for a in index.live_categories():
        for b in index.live_categories():
            got = index.engine.pair_table(index.category_block(a), index.category_block(b))
            for i, p in enumerate(block_points(index.category_block(a))):
                for j, q in enumerate(block_points(index.category_block(b))):
                    if p.partition_id == q.partition_id:
                        want = intra_distance(venue.partitions[p.partition_id], p, q)
                        assert got[i, j].tobytes() == np.float64(want).tobytes(), (p, q)
                        kinds.add("floors" if p.floor != q.floor
                                  else "co-located" if p.location == q.location and p != q
                                  else "same floor")
    assert kinds == {"floors", "co-located", "same floor"}


@pytest.mark.parametrize("point", [
    dict(x=15.0),                # inside room 1, not its own room 0
    dict(floor=1),               # a floor room 0 does not reach
    dict(y=float("nan")),
    dict(partition_id=7),        # no such partition
], ids=["outside", "floor", "nan", "unknown"])
def test_layout_refuses_a_point_its_partition_does_not_hold(point):
    """Layout checks each point as `Venue.resolve` checks a location that
    names its partition, even on a venue `validate_venue` never saw."""
    fields = dict(id=1, partition_id=0, x=5.0, y=5.0, floor=0, category=0, static_score=1.0)
    good = IndoorPoint(**dict(fields, id=0))
    venue = make_two_room_venue([good, IndoorPoint(**dict(fields, **point))])
    index = build_index(venue, build_d2d_graph(venue))
    with pytest.raises(ValueError):
        index.category_block(0)
    assert block_points(build_index(venue.with_points([good]), index.graph).category_block(0)) \
        == [good]


@pytest.mark.parametrize("seed", [0, 1])
def test_cnn_equals_linear_scan_over_blocks_of_different_widths(seed):
    """One more category's points stand in hallways and stairs, whose many
    doors make its block wider than the rooms' categories': the query's
    joined block pads the narrower ones, and cnn still equals the linear
    scan for every category.  The oracle's `pair_table(a, b)`, for every
    ordered pair, is row for row the reference block kernel from each of
    a's points to b's block, bit for bit."""
    venue, graph, _, _ = small_workload(seed=seed)
    rng = random.Random(seed)
    venue, extra = with_many_door_points(venue, rng)
    index = build_index(venue, graph)
    cats = index.live_categories()
    assert len({index.category_block(c).doors.shape[1] for c in cats}) > 1
    doors = door_spots(venue)
    for _ in range(20):
        ctx = QueryContext(any_spot(rng, venue, doors), any_spot(rng, venue, doors),
                           rng.random(), tuple(cats))
        from_loc = any_spot(rng, venue, doors)
        for cat in cats:
            assert index.cnn(from_loc, cat, ctx)[0].id == linear_scan_cnn(index, from_loc, cat, ctx).id
    engine = index.engine
    assert len({p.floor for p in extra if venue.partitions[p.partition_id].kind == "stairs"}) > 1
    for a in cats:
        for b in cats:
            block = index.category_block(b)
            got = engine.pair_table(index.category_block(a), block)
            for row, p in zip(got, block_points(index.category_block(a))):
                want = block_distances(engine, engine.legs(p.location), block)
                assert row.tobytes() == want.tobytes(), (a, b, p.id)


@pytest.mark.parametrize("bare", [False, True], ids=["resolved", "bare"])
@pytest.mark.parametrize("seed", [0, 1])
def test_cnn_returns_the_block_kernel_legs_of_its_winners_row(seed, bare):
    """cnn's (source, from, target) legs are, bit for bit, the reference
    block kernel's entries from the source, the from location and the
    target at the winner's row of its category's block: on blocks of mixed
    widths, with hallway and stairs points, from a door or any spot and
    from a point of every category (its own partition's rows patched), the
    from location given bare or with its partition."""
    venue, graph, _, _ = small_workload(seed=seed)
    rng = random.Random(100 + seed)
    venue, _ = with_many_door_points(venue, rng)
    index = build_index(venue, graph)
    engine = index.engine
    cats = index.live_categories()
    assert len({index.category_block(c).doors.shape[1] for c in cats}) > 1
    doors = door_spots(venue)
    for _ in range(12):
        ctx = QueryContext(any_spot(rng, venue, doors), any_spot(rng, venue, doors),
                           rng.random(), tuple(cats))
        froms = [any_spot(rng, venue, doors)] + [rng.choice(index.live_points(c)).location
                                                 for c in cats]
        for from_loc in froms:
            if bare:
                from_loc = Location(from_loc.x, from_loc.y, from_loc.floor)
            for cat in cats:
                point, legs = index.cnn(from_loc, cat, ctx)
                block = index.category_block(cat)
                row = block.rows.index(index.table.row_of(point.id))
                want = [block_distances(engine, engine.legs(loc), block)[row]
                        for loc in (ctx.source, from_loc, ctx.target)]
                assert all(type(leg) is float for leg in legs)
                assert np.array(legs).tobytes() == np.array(want).tobytes(), (cat, point.id)


def test_remove_points_rerouting_and_min_static_rise():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=3, static_score=2.0),
        IndoorPoint(id=1, partition_id=0, x=2, y=2, floor=0, category=3, static_score=5.0),
        IndoorPoint(id=2, partition_id=1, x=15, y=5, floor=0, category=3, static_score=9.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    assert index.category_block(3).scores.min() == 2.0

    smaller = index.remove_points([0])
    assert smaller.category_block(3).scores.min() == 5.0
    assert not smaller.is_live(0)
    ctx = QueryContext(Location(1, 1, 0), Location(1, 1, 0), 0.5)
    assert smaller.cnn(Location(1, 1, 0), 3, ctx)[0].id != 0
    # original snapshot untouched
    assert index.is_live(0)
    assert index.category_block(3).scores.min() == 2.0


def test_remove_sole_point_drops_partition_from_inverted_file():
    points = [
        IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=3, static_score=2.0),
        IndoorPoint(id=1, partition_id=1, x=15, y=5, floor=0, category=3, static_score=9.0),
    ]
    venue = make_two_room_venue(points=points)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    smaller = index.remove_points([0])
    assert [p.id for p in smaller.live_points(3)] == [1]
    assert 0 not in smaller.category_block(3).by_partition
    rows, there = smaller.category_block(3).by_partition[1]
    assert rows.tolist() == [0] and there == [1]
    assert [p.id for p in block_points(index.category_block(3))] == [0, 1]
    assert [p.id for p in block_points(smaller.category_block(3))] == [1]


def test_remove_nothing_is_deep_equal():
    venue, graph, index, _ = small_workload(seed=7)
    clone = index.remove_points([])
    assert clone.alive == index.alive
    assert clone.engine is index.engine
    assert clone.live_categories() == index.live_categories()
    for cat in index.live_categories():
        assert clone.live_points(cat) == index.live_points(cat)
        a, b = index.category_block(cat), clone.category_block(cat)
        assert a.rows == b.rows
        assert a.doors.tolist() == b.doors.tolist()
        assert a.legs.tolist() == b.legs.tolist()
        assert {part: (rows.tolist(), there) for part, (rows, there) in a.by_partition.items()} \
            == {part: (rows.tolist(), there) for part, (rows, there) in b.by_partition.items()}


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
        assert_blocks_match_live_points(index)


def snapshots(venue, graph):
    """The venue's full snapshot and the one pruned over every category."""
    index = build_index(venue, graph)
    return index, preprocess(index, index.live_categories())[0]


def reference_rows(engine, points):
    """Each point's `engine.legs`, `intra_distance` call by call, padded to
    the widest with door 0 and an infinite leg: the rows a block must hold."""
    rows = [engine.legs(p.location) for p in points]
    width = max((got.doors.size for got in rows), default=0)
    doors = np.zeros((len(rows), width), dtype=int)
    legs = np.full((len(rows), width), np.inf)
    for row, got in enumerate(rows):
        doors[row, :got.doors.size] = got.doors
        legs[row, :got.legs.size] = got.legs
    return doors, legs


@pytest.mark.parametrize("name", ["desk", "big", "spread"])
def test_loaded_points_lay_out_the_blocks_of_object_points(tmp_path, name):
    """On each pinned benchmark workload, a venue whose points were loaded
    from the objects CSV lays out, on the full and the pruned snapshot,
    every category block as the venue of the generated point objects does:
    doors, legs and scores byte for byte, the same points and partitions;
    and those doors and legs are each point's own `engine.legs`."""
    workload = perfbench_workloads()[name]
    venue, points, _ = build_workload(workload.workload_spec(workload.seed))
    save_objects_csv(points, tmp_path / "objects.csv")
    loaded = venue.with_points(load_objects_csv(tmp_path / "objects.csv"))
    graph = build_d2d_graph(venue)
    for want, got in zip(snapshots(venue, graph), snapshots(loaded, graph)):
        assert got.alive == want.alive
        assert got.live_categories() == want.live_categories()
        for cat in want.live_categories():
            a, b = want.category_block(cat), got.category_block(cat)
            for field in ("doors", "legs", "scores"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field
            assert block_points(b) == block_points(a)
            assert {pid: (rows.tolist(), got.table.id[there].tolist())
                    for pid, (rows, there) in b.by_partition.items()} \
                == {pid: (rows.tolist(), want.table.id[there].tolist())
                    for pid, (rows, there) in a.by_partition.items()}
            doors, legs = reference_rows(want.engine, block_points(a))
            assert (a.doors.tobytes(), a.legs.tobytes()) == (doors.tobytes(), legs.tobytes())


def test_layout_holds_points_on_and_within_the_tolerance_of_their_bounds():
    """Points on a room's edges and corners, up to `BOUNDARY_EPS` outside
    them, and on each floor of a stairs partition, are laid out with their
    own `engine.legs`; one a little further out, or on a floor its stairs
    do not reach, is refused as `Venue.partition_of` refuses it."""
    venue = make_two_room_venue()
    venue.partitions[1] = Partition(id=1, floor=0, bounds=(10, 0, 20, 10), kind="stairs",
                                    door_ids=(0,), floor2=2)
    eps = BOUNDARY_EPS
    spots = [(0, 0.0, 0.0, 0), (0, 10.0, 10.0, 0), (0, -eps, 5.0, 0), (0, 10.0 + eps, -eps, 0),
             (0, 3.0, 10.0 + 0.5 * eps, 0), (1, 10.0, 5.0, 0), (1, 20.0 + eps, 10.0, 2),
             (1, 15.0, 0.0, 2)]
    points = [IndoorPoint(id=i, partition_id=part, x=x, y=y, floor=floor, category=0,
                          static_score=1.0) for i, (part, x, y, floor) in enumerate(spots)]
    graph = build_d2d_graph(venue)
    block = build_index(venue.with_points(points), graph).category_block(0)
    doors, legs = reference_rows(DistanceEngine(venue, graph), points)
    assert (block.doors.tobytes(), block.legs.tobytes()) == (doors.tobytes(), legs.tobytes())
    for bad in (dict(x=-3 * eps), dict(y=10.0 + 3 * eps), dict(partition_id=1, x=15.0, floor=1)):
        point = replace(points[0], **bad)
        with pytest.raises(ValueError, match=str(point.partition_id)):
            venue.partition_of(point)
        with pytest.raises(ValueError, match=str(point.partition_id)):
            build_index(venue.with_points([point]), graph).category_block(0)


def test_set_up_from_files_builds_no_point_object(tmp_path, monkeypatch):
    """Loading `big` from its files, validating it, indexing it, pruning it
    and laying out every block of the full and the pruned snapshot read the
    point table's columns: not one IndoorPoint is made until a planner is
    handed one, and a point is made once, on its first hand-out."""
    workload = perfbench_workloads()["big"]
    venue, points, queries = build_workload(workload.workload_spec(workload.seed))
    save_venue(venue.with_points([]), tmp_path / "venue.json")
    save_objects_csv(points, tmp_path / "objects.csv")
    made = []
    init = IndoorPoint.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IndoorPoint, "__init__", counted)
    loaded = load_venue(tmp_path / "venue.json").with_points(
        load_objects_csv(tmp_path / "objects.csv"))
    assert validate_venue(loaded).ok
    index = build_index(loaded, build_d2d_graph(loaded))
    pruned, report = preprocess(index, sorted({c for q in queries for c in q.categories}))
    assert len(index.table) == len(points) and report.removed > 0
    for snapshot in (index, pruned):
        for cat in snapshot.live_categories():
            snapshot.category_block(cat)
    assert made == []
    ctx = queries[0].context()
    point, _ = index.cnn(ctx.source, ctx.categories[0], ctx)
    assert len(made) == 1
    assert pruned.cnn(ctx.source, ctx.categories[0], queries[0].context())[0] is point
    assert len(made) == 1
