import random

import pytest

import indoortrip.dominance as dom
from indoortrip import (
    Door,
    IndoorPoint,
    Partition,
    Venue,
    build_d2d_graph,
    build_index,
    dominated_set,
    dominates_point,
    preprocess,
    prune_partition,
    select_points,
)
from indoortrip.dominance import DominanceContext, DominanceError, prune_points

from conftest import small_workload


def flat_partition(width=20.0, height=12.0):
    part = Partition(id=0, floor=0, bounds=(0, 0, width, height), kind="room", door_ids=(0, 1))
    doors = {
        0: Door(id=0, x=0.0, y=height / 2, floor=0, partition_ids=(0,)),
        1: Door(id=1, x=width, y=height / 2, floor=0, partition_ids=(0,)),
    }
    return part, doors


def pt(pid, x, y, cat, score):
    return IndoorPoint(id=pid, partition_id=0, x=x, y=y, floor=0, category=cat, static_score=score)


def random_instance(rng, max_per_cat=15, width=20.0, height=12.0):
    part, doors = flat_partition(width, height)
    by_cat = {}
    pid = 0
    for cat in (0, 1):
        pts = []
        for _ in range(rng.randint(1, max_per_cat)):
            pts.append(
                pt(pid, rng.uniform(0, width), rng.uniform(0, height), cat, rng.uniform(0, 25))
            )
            pid += 1
        by_cat[cat] = pts
    return part, doors, by_cat


# -- point dominance -------------------------------------------------------------

def test_point_never_dominates_itself():
    part, doors = flat_partition()
    p = pt(0, 3, 6, 0, 5.0)
    assert not dominates_point(p, p, doors[0], part)


def test_point_dominance_requires_both_strict_inequalities():
    part, doors = flat_partition()
    nearer_cheaper = pt(0, 2, 6, 0, 1.0)
    farther_pricier = pt(1, 3, 6, 0, 2.0)
    assert dominates_point(nearer_cheaper, farther_pricier, doors[0], part)
    # score inequality fails
    nearer_pricier = pt(2, 2, 6, 0, 2.0)
    farther_cheaper = pt(3, 3, 6, 0, 1.0)
    assert not dominates_point(nearer_pricier, farther_cheaper, doors[0], part)


def test_point_dominance_rejects_category_and_partition_mixups():
    part, doors = flat_partition()
    a = pt(0, 2, 6, 0, 1.0)
    b = pt(1, 3, 6, 1, 2.0)
    with pytest.raises(DominanceError):
        dominates_point(a, b, doors[0], part)
    c = IndoorPoint(id=2, partition_id=9, x=3, y=6, floor=0, category=0, static_score=2.0)
    with pytest.raises(DominanceError):
        dominates_point(a, c, doors[0], part)


def test_dominated_set_trivial_cases():
    part, doors = flat_partition()
    a = pt(0, 2, 6, 0, 10.0)
    assert dominated_set(a, doors[0], [a], part) == set()
    # a carries the pool's maximum score: nothing can satisfy the score test
    pool = [a, pt(1, 5, 6, 0, 1.0), pt(2, 9, 6, 0, 5.0)]
    assert dominated_set(a, doors[0], pool, part) == set()


def test_dominated_set_matches_definition_scan():
    rng = random.Random(7)
    part, doors = flat_partition()
    for _ in range(50):
        pool = [pt(i, rng.uniform(0, 20), rng.uniform(0, 12), 0, rng.uniform(0, 10))
                for i in range(12)]
        anchor = pool[0]
        got = dominated_set(anchor, doors[1], pool, part)
        want = {p for p in pool if p is not anchor
                and dominates_point(anchor, p, doors[1], part)}
        assert got == want


# -- selection and pruning -----------------------------------------------------------

def test_select_points_single_points_both_selected():
    part, doors = flat_partition()
    ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
    a = pt(0, 4, 6, 0, 2.0)
    b = pt(1, 9, 6, 1, 3.0)
    result = select_points(ctx, [a], [b])
    assert result.selected_ids(0) == {0}
    assert result.selected_ids(1) == {1}
    assert result.pruned_ids(0) == set()
    assert result.pruned_ids(1) == set()


def test_select_points_empty_input_is_noop():
    part, doors = flat_partition()
    ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
    result = select_points(ctx, [], [pt(0, 9, 6, 1, 3.0)])
    assert result.selected_ids(0) == set()
    assert result.selected_ids(1) == set()


def test_select_points_prunes_dominated_farther_partner():
    # One visited first-category point; between the two second-category
    # points ordered by exit-door dominance, the farther dominated one is
    # pruned exactly because the selected pair is closer together.
    part, doors = flat_partition()
    ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
    p_a = pt(0, 4.0, 6.0, 0, 1.0)
    p_b = pt(1, 8.0, 6.0, 1, 2.0)       # nearest to p_a, beats p_c at the exit door
    p_c = pt(2, 14.0, 6.0, 1, 5.0)      # dominated by p_b w.r.t. the exit door...
    # exit door is at x=20: dist(d_t, p_b)=12 > dist(d_t, p_c)=6 -- flip doors so
    # p_b dominates: use the entry door as exit by running the reversed pair.
    ctx = DominanceContext(part, doors[1], doors[0], 0, 1)
    # now d_s is at x=20, d_t at x=0: dist(d_t,p_b)=8 < dist(d_t,p_c)=14, s 2<5
    assert dominates_point(p_b, p_c, ctx.exit_door, part)
    assert ctx.dist(p_a, p_b) < ctx.dist(p_a, p_c)
    result = select_points(ctx, [p_a], [p_b, p_c])
    assert result.selected_ids(0) == {0}
    assert result.selected_ids(1) == {1}
    assert result.pruned_ids(1) == {2}


def test_select_points_disjoint_and_partitioned():
    rng = random.Random(29)
    for _ in range(60):
        part, doors, by_cat = random_instance(rng, max_per_cat=10)
        ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
        result = select_points(ctx, by_cat[0], by_cat[1])
        for cat in (0, 1):
            sel = result.selected_ids(cat)
            pru = result.pruned_ids(cat)
            assert sel & pru == set()
            universe = {p.id for p in by_cat[cat]}
            assert sel | pru <= universe


def test_prune_points_empty_dominated_set_is_empty():
    part, doors = flat_partition()
    ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
    assert prune_points(ctx, pt(0, 4, 6, 0, 1.0), pt(1, 8, 6, 1, 2.0), [], []) == set()


def test_prune_points_nearest_partner_farther_prunes():
    part, doors = flat_partition()
    ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
    p_i = pt(0, 4.0, 6.0, 0, 1.0)
    p_j = pt(1, 6.0, 6.0, 1, 1.0)
    dominated = pt(2, 19.0, 6.0, 1, 9.0)
    # only partner is p_i itself, dist(p_i, dominated) = 15 > dist(p_i, p_j) = 2
    assert prune_points(ctx, p_i, p_j, [], [dominated]) == {2}


def test_prune_points_matches_per_point_re_evaluation():
    rng = random.Random(37)
    part, doors = flat_partition()
    ctx = DominanceContext(part, doors[0], doors[1], 0, 1)
    for _ in range(80):
        remaining = [pt(10 + i, rng.uniform(0, 20), rng.uniform(0, 12), 0, rng.uniform(0, 9))
                     for i in range(rng.randint(0, 5))]
        p_i = pt(0, rng.uniform(0, 20), rng.uniform(0, 12), 0, rng.uniform(0, 9))
        p_j = pt(1, rng.uniform(0, 20), rng.uniform(0, 12), 1, rng.uniform(0, 9))
        dom_j = [pt(30 + i, rng.uniform(0, 20), rng.uniform(0, 12), 1,
                    p_j.static_score + rng.uniform(0.1, 9))
                 for i in range(rng.randint(0, 6))]
        dom_j = [p for p in dom_j if dominates_point(p_j, p, ctx.exit_door, part)]
        got = prune_points(ctx, p_i, p_j, remaining, dom_j)
        partners = [p_i] + remaining
        base = ctx.entry_rank(p_i) + ctx.dist(p_i, p_j) + ctx.exit_rank(p_j)
        for p_k in dom_j:
            nearest = min(ctx.dist(p_k, p) for p in partners)
            thm3 = ctx.dist(p_i, p_j) < nearest
            thm4 = all(
                base < ctx.entry_rank(p) + ctx.dist(p_k, p) + ctx.exit_rank(p_k)
                for p in partners
            )
            assert (p_k.id in got) == (thm3 or thm4)


# -- partition-level pruning ------------------------------------------------------------

def test_prune_partition_union_of_run_selections(monkeypatch):
    """The per-run selections are unioned per category; points selected by
    no run are eliminated."""
    part, doors = flat_partition()
    c1_pts = [pt(i, 1.0 + i, 2.0, 1, 1.0 + i) for i in (1, 2, 3, 4, 5)]
    c2_pts = [pt(i, 1.0 + i, 9.0, 2, 1.0 + i) for i in (6, 7, 8, 9)]
    venue = Venue(
        partitions={0: part}, doors=doors,
        points={p.id: p for p in c1_pts + c2_pts},
    )
    run_outputs = [
        ({1: {1, 2}, 2: {8}}, {}),
        ({1: {2, 3}, 2: {7, 8}}, {}),
        ({1: {1}, 2: {8}}, {}),
        ({1: {2}, 2: {7}}, {}),
    ]
    calls = []

    def fake_select_points(ctx, points_a, points_b):
        selected, _ = run_outputs[len(calls)]
        calls.append((ctx.entry_door.id, ctx.exit_door.id))
        return dom.SelectionResult(selected={k: set(v) for k, v in selected.items()},
                                   pruned={1: set(), 2: set()})

    monkeypatch.setattr(dom, "select_points", fake_select_points)
    survivors = prune_partition(venue, part, {1: c1_pts, 2: c2_pts})
    # 2 doors -> 4 ordered pairs x 1 category pair = 4 runs
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert survivors[1] == {1, 2, 3}
    assert survivors[2] == {7, 8}


def test_prune_partition_single_category_untouched():
    part, doors = flat_partition()
    pts = [pt(i, 2.0 + i, 6.0, 3, float(i)) for i in range(5)]
    venue = Venue(partitions={0: part}, doors=doors, points={p.id: p for p in pts})
    survivors = prune_partition(venue, part, {3: pts})
    assert survivors[3] == {p.id for p in pts}


def test_prune_partition_never_annihilates_a_category():
    rng = random.Random(43)
    for _ in range(120):
        part, doors, by_cat = random_instance(rng)
        venue = Venue(
            partitions={0: part}, doors=doors,
            points={p.id: p for cat in by_cat for p in by_cat[cat]},
        )
        survivors = prune_partition(venue, part, by_cat)
        for cat, pts in by_cat.items():
            if pts:
                assert survivors[cat], f"category {cat} was annihilated"


def test_prune_partition_caps_door_pair_enumeration():
    width = 40.0
    door_ids = tuple(range(12))
    part = Partition(id=0, floor=0, bounds=(0, 0, width, 12), kind="hallway",
                     door_ids=door_ids)
    doors = {
        i: Door(id=i, x=width * i / 11.0, y=0.0, floor=0, partition_ids=(0,))
        for i in range(12)
    }
    venue = Venue(partitions={0: part}, doors=doors)
    pairs = dom._door_pairs(venue, part)
    assert len(pairs) == dom.MAX_DOORS_PER_PARTITION ** 2


# -- preprocessing against the index -------------------------------------------------------

def test_preprocess_disjoint_categories_leave_index_unchanged():
    venue, graph, index, _ = small_workload(seed=14)
    pruned, report = preprocess(index, [777, 888])
    assert pruned.alive == index.alive
    assert report.removed == 0


def test_preprocess_single_partition_composition():
    part, doors = flat_partition()
    rng = random.Random(3)
    pts = []
    pid = 0
    for cat in (0, 1):
        for _ in range(8):
            pts.append(pt(pid, rng.uniform(0, 20), rng.uniform(0, 12), cat, rng.uniform(0, 9)))
            pid += 1
    venue = Venue(partitions={0: part}, doors=doors, points={p.id: p for p in pts})
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    by_cat = {0: [p for p in pts if p.category == 0], 1: [p for p in pts if p.category == 1]}
    survivors = prune_partition(venue, part, by_cat)
    pruned_index, report = preprocess(index, [0, 1])
    assert pruned_index.alive == frozenset(survivors[0] | survivors[1])
    assert report.removed == len(pts) - len(pruned_index.alive)


def test_preprocess_reduces_live_points_monotonically():
    venue, graph, index, queries = small_workload(seed=15)
    cats = sorted(index.root.inverted)
    pruned, report = preprocess(index, cats)
    for cat in cats:
        assert pruned.live_count(cat) <= index.live_count(cat)
        assert pruned.live_count(cat) >= 1
    assert len(pruned.alive) + report.removed == len(index.alive)


def test_preprocess_needs_at_least_one_category():
    venue, graph, index, _ = small_workload(seed=15)
    with pytest.raises(ValueError):
        preprocess(index, [])
