import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indoortrip.dominance as dom
from indoortrip import (
    Door,
    IndoorPoint,
    Partition,
    QueryContext,
    Venue,
    WorkloadSpec,
    build_d2d_graph,
    build_index,
    build_workload,
    exact_route,
    gcnn,
    preprocess,
)
from indoortrip.bench import frequent_categories
from indoortrip.routing import route_cost
from indoortrip.venue import Location

from conftest import certified_all_pairs, make_two_room_venue, perfbench_workloads, small_workload


def flat_partition(width=20.0, height=12.0):
    part = Partition(id=0, floor=0, bounds=(0, 0, width, height), kind="room", door_ids=(0, 1))
    doors = {
        0: Door(id=0, x=0.0, y=height / 2, floor=0, partition_ids=(0,)),
        1: Door(id=1, x=width, y=height / 2, floor=0, partition_ids=(0,)),
    }
    return part, doors


def pt(pid, x, y, cat, score, partition_id=0):
    return IndoorPoint(id=pid, partition_id=partition_id, x=x, y=y, floor=0, category=cat,
                       static_score=score)


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


def pruned_ids(points, alpha=0.5, partitions=None, doors=None):
    """The ids preprocess removes from a venue of one flat room (or the
    given partitions and doors) holding the points, every category pruned."""
    if partitions is None:
        part, doors = flat_partition()
        partitions = {0: part}
    venue = Venue(partitions=partitions, doors=doors, points={p.id: p for p in points})
    index = build_index(venue, build_d2d_graph(venue))
    pruned, _ = preprocess(index, {p.category for p in points}, alpha=alpha)
    return set(index.alive - pruned.alive)


def certified_by_definition(points, alpha, reach):
    """The certificate pair by pair, in the float expression the pass
    evaluates: p goes when a rival q on its floor has
    3*alpha*d + margin < (1 - alpha)*(s(p) - s(q))."""
    m = dom.MARGIN_FACTOR
    gone = []
    for p in points:
        for q in points:
            dx, dy = p.x - q.x, p.y - q.y
            d = math.sqrt(dx * dx + dy * dy)
            detour = (3.0 * alpha) * d + (m * (3.0 * alpha) * reach + dom.UNDERFLOW_FLOOR)
            saving = ((1.0 - alpha) * (p.static_score - m * abs(p.static_score))
                      - (1.0 - alpha) * (q.static_score + m * abs(q.static_score)))
            if p.floor == q.floor and detour < saving:
                gone.append(p.id)
                break
    return gone


@st.composite
def pruning_venues(draw):
    """Two partitions, a room and a two-floor stairs, with up to three
    categories of points in each, some of them co-located, with repeated
    scores and possibly an empty category."""
    width = draw(st.floats(1.0, 40.0))
    height = draw(st.floats(1.0, 40.0))
    parts = {
        0: Partition(id=0, floor=0, bounds=(0.0, 0.0, width, height), kind="room",
                     door_ids=(0, 1)),
        1: Partition(id=1, floor=0, bounds=(width, 0.0, 2 * width, height), kind="stairs",
                     door_ids=(1,), floor2=1),
    }
    doors = {
        0: Door(id=0, x=0.0, y=height / 2, floor=0, partition_ids=(0,)),
        1: Door(id=1, x=width, y=height / 2, floor=0, partition_ids=(0, 1)),
    }
    sites = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=3))
    position = st.one_of(st.sampled_from(sites),
                         st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    score = st.one_of(st.sampled_from([0.0, 1.0, 4.0]), st.floats(0.0, 30.0))
    points = {}
    for part in parts.values():
        x0, y0 = part.bounds[:2]
        for cat in range(3):
            for _ in range(draw(st.integers(0, 8))):
                fx, fy = draw(position)
                pid = len(points)
                points[pid] = IndoorPoint(
                    id=pid, partition_id=part.id, x=x0 + fx * width, y=y0 + fy * height,
                    floor=draw(st.sampled_from(part.floors)), category=cat,
                    static_score=draw(score))
    return Venue(partitions=parts, doors=doors, points=points)


# -- the certificate ---------------------------------------------------------------

def assert_removes_exactly_the_certified_points(venue, alpha):
    index = build_index(venue, build_d2d_graph(venue))
    pruned, report = preprocess(index, [0, 1, 2], alpha=alpha)
    reach = dom.venue_reach(index)
    want = set()
    for pid in venue.partitions:
        for cat in range(3):
            group = [p for p in venue.points.values() if (p.partition_id, p.category) == (pid, cat)]
            want.update(certified_by_definition(group, alpha, reach))
            if group:  # the lowest-scored point is never certified
                assert min(p.static_score for p in group if p.id in pruned.alive) == \
                    min(p.static_score for p in group)
    assert index.alive - pruned.alive == want
    assert report.removed == len(want)
    assert report.kept == len(pruned.alive)
    assert report.alpha == alpha


@settings(max_examples=120, deadline=None, derandomize=True)
@given(venue=pruning_venues(), alpha=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
def test_preprocess_removes_exactly_the_certified_points(venue, alpha):
    assert_removes_exactly_the_certified_points(venue, alpha)


@pytest.mark.parametrize("constant, value", [
    ("_PAIR_BUDGET", 1), ("_PAIR_BUDGET", 7), ("_PAIR_BUDGET", 2 ** 10),
    ("_FIRST_WINDOW", 1), ("_FIRST_WINDOW", 8),
])
@settings(max_examples=120, deadline=None, derandomize=True)
@given(venue=pruning_venues(), alpha=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
def test_the_removed_set_does_not_depend_on_windows_or_slices(constant, value, venue, alpha):
    """Slices of one pair (so each point's rivals in a window make a
    slice of their own, over the budget), of seven and of 1024 pairs, and
    first windows of one rank (then 7, then 56) and of eight (each group
    of these venues in one window): each removes the definition's set, as
    the default constants do."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dom, constant, value)
        assert_removes_exactly_the_certified_points(venue, alpha)


def test_rivals_on_another_floor_certify_nothing():
    venue = make_two_room_venue()
    stairs = replace(venue.partitions[1], kind="stairs", floor2=1)
    venue = Venue(partitions={0: venue.partitions[0], 1: stairs}, doors=venue.doors, points={
        0: IndoorPoint(id=0, partition_id=1, x=15.0, y=5.0, floor=0, category=0, static_score=9.0),
        1: IndoorPoint(id=1, partition_id=1, x=15.0, y=5.0, floor=1, category=0, static_score=0.0),
    })
    index = build_index(venue, build_d2d_graph(venue))
    assert preprocess(index, [0])[0].alive == index.alive
    same_floor = venue.with_points([replace(venue.points[0], floor=1), venue.points[1]])
    index = build_index(same_floor, build_d2d_graph(same_floor))
    assert preprocess(index, [0])[0].alive == {1}


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_a_nearly_tight_certificate_prunes_only_a_strictly_worse_score(alpha):
    """p (id 0) lies between the door and q (id 1), so every leg to q is
    exactly d(p, q) longer than the same leg to p, and at the threshold
    s(p) - s(q) = (3*alpha*d + margin) / (1 - alpha) q's score beats p's by
    the margin alone.  Around it, in steps of one ulp of s(p), p may be
    pruned only where cnn, which gives ties to the smaller id, picks q at
    every alpha up to the snapshot's."""
    base = make_two_room_venue()
    q_score = 3.3

    def venue_with(p_score):
        return base.with_points([
            IndoorPoint(id=0, partition_id=1, x=12.1, y=5.0, floor=0, category=0,
                        static_score=p_score),
            IndoorPoint(id=1, partition_id=1, x=12.1 + 0.7, y=5.0, floor=0, category=0,
                        static_score=q_score),
        ])

    index = build_index(venue_with(q_score), build_d2d_graph(base))
    reach = dom.venue_reach(index)
    d = (12.1 + 0.7) - 12.1  # exact, as the pass measures it
    # (1 - alpha)*(s(p) - s(q)) = 3*alpha*d + m*(3*alpha*W + (1 - alpha)*(s(p) + s(q))), for s(p)
    m = dom.MARGIN_FACTOR
    threshold = (3.0 * alpha * (d + m * reach) / (1.0 - alpha) + q_score * (1 + m)) / (1 - m)
    ulp = math.ulp(threshold)
    probes = [Location(x, 5.0, 0) for x in (0.5, 5.0, 9.99, 10.5, 11.0, 12.0)]
    pruned_flags = []
    for k in range(-8, 9):
        venue = venue_with(threshold + k * ulp)
        index = build_index(venue, build_d2d_graph(venue))
        pruned, _ = preprocess(index, [0], alpha=alpha)
        pruned_flags.append(0 not in pruned.alive)
        if 0 in pruned.alive:
            continue
        for a in (alpha, alpha / 2, 0.0):
            for source in probes:
                for target in probes:
                    ctx = QueryContext(source, target, a)
                    assert index.cnn(source, 0, ctx)[0].id == 1, (k, a, source, target)
    # The decision flips once, inside the window: the margin is there, and
    # it is no wider than its formula.
    assert pruned_flags == sorted(pruned_flags)
    assert not pruned_flags[0] and pruned_flags[-1]


# -- point dominance -------------------------------------------------------------

def test_point_never_dominates_itself():
    # Co-located twins with one score: neither is cheaper, so neither goes.
    assert pruned_ids([pt(0, 3, 6, 0, 5.0), pt(1, 3, 6, 0, 5.0)], alpha=0.0) == set()


def test_point_dominance_requires_both_strict_inequalities():
    # At alpha 0.5, q certifies p when 3*d < s(p) - s(q), less the margin.
    near_cheaper = pt(0, 2, 6, 0, 1.0)
    assert pruned_ids([near_cheaper, pt(1, 3, 6, 0, 5.0)]) == {1}    # 3 < 4
    assert pruned_ids([near_cheaper, pt(1, 3, 6, 0, 4.0)]) == set()  # 3 == 3
    assert pruned_ids([near_cheaper, pt(1, 3, 6, 0, 1.0)]) == set()  # no saving
    assert pruned_ids([near_cheaper, pt(1, 9, 6, 0, 20.0)]) == set()  # 21 > 19


def test_point_dominance_rejects_category_and_partition_mixups():
    """A cheaper point of another category, or in another partition, certifies nothing."""
    cheap = pt(0, 2, 6, 0, 1.0)
    assert pruned_ids([cheap, pt(1, 2, 6, 1, 9.0)]) == set()
    venue = make_two_room_venue()
    other_room = pt(1, 10.5, 5, 0, 9.0, partition_id=1)
    assert pruned_ids([pt(0, 9.5, 5, 0, 1.0), other_room],
                      partitions=venue.partitions, doors=venue.doors) == set()


def test_dominated_set_trivial_cases():
    assert pruned_ids([pt(0, 2, 6, 0, 10.0)]) == set()
    # The group's lowest score stays, whatever beats it on distance.
    pool = [pt(0, 2, 6, 0, 10.0), pt(1, 2.1, 6, 0, 0.5), pt(2, 19, 11, 0, 30.0)]
    assert 1 not in pruned_ids(pool)
    assert pruned_ids(pool) == {0}


def test_dominated_set_matches_definition_scan():
    rng = random.Random(7)
    for _ in range(50):
        pool = [pt(i, rng.uniform(0, 20), rng.uniform(0, 12), 0, rng.uniform(0, 10))
                for i in range(12)]
        part, doors = flat_partition()
        venue = Venue(partitions={0: part}, doors=doors, points={p.id: p for p in pool})
        reach = dom.venue_reach(build_index(venue, build_d2d_graph(venue)))
        for alpha in (0.2, 0.5, 0.8):
            assert pruned_ids(pool, alpha) == set(certified_by_definition(pool, alpha, reach))


def test_prune_partition_never_annihilates_a_category():
    rng = random.Random(43)
    for _ in range(120):
        _, _, by_cat = random_instance(rng)
        gone = pruned_ids([p for pts in by_cat.values() for p in pts], alpha=rng.random())
        for cat, pts in by_cat.items():
            assert {p.id for p in pts} - gone, f"category {cat} was annihilated"


def room_index(points):
    part, doors = flat_partition()
    venue = Venue(partitions={0: part}, doors=doors, points={p.id: p for p in points})
    return build_index(venue, build_d2d_graph(venue))


def test_select_points_single_points_both_selected():
    # One point of each of two categories: neither has a rival, so both stay.
    assert pruned_ids([pt(0, 4, 6, 0, 2.0), pt(1, 9, 6, 1, 30.0)], alpha=0.0) == set()


def test_select_points_empty_input_is_noop():
    # A category with no points in the room, beside one with a lone point.
    index = room_index([pt(0, 9, 6, 1, 3.0)])
    pruned, report = preprocess(index, [0, 1], alpha=0.0)
    assert pruned.alive == index.alive
    assert report.to_dict() == {"alpha": 0.0, "removed": 0, "kept": 1, "per_partition": {}}
    reach = dom.venue_reach(index)
    for points in ([], [index.venue.points[0]]):
        columns, order = dom.point_columns(points)
        assert columns.shape == (6, len(points)) and order.tolist() == list(range(len(points)))
        assert dom.certified(columns, 0.0, reach).tolist() == [False] * len(points)


def test_select_points_prunes_dominated_farther_partner():
    # p_c lies 6 m from the cheaper p_b and costs 3 more: a detour of
    # 3*alpha*6 against a saving of (1 - alpha)*3, which pays below alpha 1/7.
    p_a = pt(0, 4.0, 6.0, 0, 1.0)
    p_b = pt(1, 8.0, 6.0, 1, 2.0)
    p_c = pt(2, 14.0, 6.0, 1, 5.0)
    assert pruned_ids([p_a, p_b, p_c], alpha=0.1) == {2}
    assert pruned_ids([p_a, p_b, p_c], alpha=0.5) == set()


def test_select_points_disjoint_and_partitioned():
    # Survivors and removed points split each category, and the report counts
    # the removed ones per category.
    rng = random.Random(29)
    for _ in range(60):
        _, _, by_cat = random_instance(rng, max_per_cat=10)
        points = [p for pts in by_cat.values() for p in pts]
        index = room_index(points)
        pruned, report = preprocess(index, [0, 1], alpha=rng.random())
        gone = index.alive - pruned.alive
        assert pruned.alive | gone == {p.id for p in points}
        assert report.kept + report.removed == len(points)
        counts = {cat: len(gone & {p.id for p in pts}) for cat, pts in by_cat.items()}
        want = {cat: n for cat, n in counts.items() if n}
        assert report.eliminated == ({0: want} if want else {})


def test_select_points_matches_point_at_a_time_reference():
    # Two categories at random alphas against the pair-by-pair reference.
    rng = random.Random(31)
    for _ in range(40):
        _, _, by_cat = random_instance(rng)
        points = [p for pts in by_cat.values() for p in pts]
        reach = dom.venue_reach(room_index(points))
        alpha = rng.random()
        want = {i for pts in by_cat.values() for i in certified_by_definition(pts, alpha, reach)}
        assert pruned_ids(points, alpha) == want


def test_prune_points_empty_dominated_set_is_empty():
    # No saving, no certificate: equal scores at alpha 0, and any scores at
    # alpha 1, where they do not count.
    same = [pt(i, 2.0 + i, 6, 0, 4.0) for i in range(5)]
    assert pruned_ids(same, alpha=0.0) == set()
    spread = [pt(i, 2.0 + i, 6, 0, 10.0 * i) for i in range(5)]
    assert pruned_ids(spread, alpha=1.0) == set()
    assert pruned_ids(spread, alpha=0.0) == {1, 2, 3, 4}


def test_prune_points_matches_per_point_re_evaluation():
    """Scored again by cnn on the full index, from probe locations at the
    snapshot's alpha and half of it, no pruned point wins its category."""
    rng = random.Random(37)
    removed = 0
    for _ in range(30):
        _, _, by_cat = random_instance(rng, max_per_cat=8)
        index = room_index([p for pts in by_cat.values() for p in pts])
        alpha = rng.uniform(0.05, 0.95)
        pruned, _ = preprocess(index, [0, 1], alpha=alpha)
        gone = index.alive - pruned.alive
        removed += len(gone)
        probes = [Location(rng.uniform(0, 20), rng.uniform(0, 12), 0) for _ in range(3)]
        for a in (alpha, alpha / 2):
            for source in probes:
                for target in probes:
                    ctx = QueryContext(source, target, a)
                    for from_loc in probes:
                        for cat in (0, 1):
                            assert index.cnn(from_loc, cat, ctx)[0].id not in gone
    assert removed


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
    index = build_index(venue, build_d2d_graph(venue))
    reach = dom.venue_reach(index)
    gone = {i for cat in (0, 1)
            for i in certified_by_definition([p for p in pts if p.category == cat], 0.2, reach)}
    pruned_index, report = preprocess(index, [0, 1], alpha=0.2)
    assert gone
    assert pruned_index.alive == index.alive - gone
    assert report.removed == len(pts) - len(pruned_index.alive)
    assert report.eliminated == {0: dict(Counter(pts[i].category for i in gone))}


def test_preprocess_reduces_live_points_monotonically():
    venue, graph, index, queries = small_workload(seed=15)
    cats = index.live_categories()
    pruned, report = preprocess(index, cats)
    for cat in cats:
        assert pruned.live_count(cat) <= index.live_count(cat)
        assert pruned.live_count(cat) >= 1
    assert len(pruned.alive) + report.removed == len(index.alive)


def test_preprocess_only_removes_points_of_the_given_categories():
    venue, graph, index, _ = small_workload(seed=16)
    cats = index.live_categories()
    pruned, _ = preprocess(index, cats[:2])
    assert pruned.alive < index.alive
    for cat in cats[2:]:
        assert pruned.live_points(cat) == index.live_points(cat)
    # Survivors certify none of each other: pruning again removes nothing.
    again, report = preprocess(pruned, cats[:2])
    assert again.alive == pruned.alive and report.removed == 0


def test_preprocess_prunes_one_category_at_a_time():
    venue, graph, index, _ = small_workload(seed=17)
    cats = index.live_categories()
    together, _ = preprocess(index, cats)
    alone = [preprocess(index, [cat])[0].alive for cat in cats]
    assert together.alive == frozenset.intersection(*alone)


def test_preprocess_is_deterministic():
    venue, graph, index, _ = small_workload(seed=18)
    cats = index.live_categories()
    first, report = preprocess(index, cats, alpha=0.65)
    second, again = preprocess(index, list(reversed(cats)) + cats, alpha=0.65)
    assert first.alive == second.alive
    assert report.to_dict() == again.to_dict()
    assert report.to_dict()["alpha"] == 0.65


def test_preprocess_needs_at_least_one_category():
    venue, graph, index, _ = small_workload(seed=15)
    with pytest.raises(ValueError):
        preprocess(index, [])


@pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
def test_preprocess_rejects_an_alpha_outside_0_to_1(alpha):
    venue, graph, index, _ = small_workload(seed=15)
    with pytest.raises(ValueError, match="alpha must lie in"):
        preprocess(index, index.live_categories(), alpha=alpha)


@pytest.fixture(scope="module")
def acceptance_fixture():
    """The acceptance suite's pinned desk workload, pruned at delta 100."""
    spec = WorkloadSpec(
        seed=2026, floors=4, rooms_per_floor=12, categories=8,
        count_range=(30, 40), store_rooms=8, hosts_per_category=3,
        query_count=50, query_categories=(2, 3, 4), alpha=0.5,
    )
    venue, _, queries = build_workload(spec)
    index = build_index(venue, build_d2d_graph(venue))
    return venue, index, frequent_categories(queries, 100)


# Computed with the detour certificate at alpha 0.5; the report's keys are
# alpha, removed, kept and per_partition.
PINNED_REPORT_SHA256 = "744103826403fa054591547d839c15ded94ad4687d5216d6415abaedd1fd3fbf"
PINNED_ALIVE = [
    3, 5, 15, 20, 27, 29, 32, 35, 51, 58, 63, 66, 67, 70, 73, 83, 99, 100, 130, 142,
    144, 152, 157, 161, 171, 174, 189, 193, 194, 204, 210, 214, 219, 230, 242, 243,
    250, 252, 258, 272, 273,
]


def report_digest(report):
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def test_preprocess_on_acceptance_fixture_is_pinned(acceptance_fixture):
    _, index, cats = acceptance_fixture
    pruned, report = preprocess(index, cats)
    assert report_digest(report) == PINNED_REPORT_SHA256
    assert sorted(pruned.alive) == PINNED_ALIVE


# Two benchmark workloads on their pinned seeds, every query category
# pruned at three alphas, computed with the n x n pass per group:
# (workload, alpha) -> (removed, sha256 of the report's to_dict(), sha256
# of the JSON list of the snapshot's alive ids, ascending).
PINNED_SNAPSHOTS = {
    ("big", 0.2): (3385, "ecfce251b2bf21ef09414256e360e59d750ed89bb6893bd048be37afe03c72a4",
                   "32feec1f52b7dff221f9b96dca0a60fe674091f130ba091435d2da05b2966e8c"),
    ("big", 0.5): (3347, "1f99f4572f2d1bfc334801816d2755ddc3fcc6c9221481e558e0002d88fc1d25",
                   "9672279136d67eefc1e4c39b2a16a663587b9c4073069423599ea82e950ac027"),
    ("big", 0.8): (3239, "597edceb6b94098be2a03b0627052a18b69c1e1b5551ed23bd3f6219f04a6a26",
                   "fe2b467f4f7cfd463b73430d8c044133663d76c87721d1ec0c3e4a0880224b76"),
    ("spread", 0.2): (34, "4259dc89ebedfae8e1796cee2c665b4cc0225b5ba4dda47acb5ad834135b8545",
                      "f965ac12c157431643b2bdbd1a685c27946d183960c919f52ac57cb1a7149ea3"),
    ("spread", 0.5): (30, "dc3109ba275b3b5260b57268f2a6f3b1f3ac9b58da1d6e8d2c8ba1bc358d5a22",
                      "2ecd8648919948350f2928b7dc9a9e1eda319d247870aaba60a6ffec5b1ef65e"),
    ("spread", 0.8): (21, "fe8d53c3a0d7e7e6fd7137fb8d386c694ee5a83804f1ed17e82667ed53ec9bb5",
                      "b94707df44dc97fadd5de0ff48721fdb10b02b7568d3e1bbbbdedd740d7fba9d"),
}


@pytest.mark.parametrize("name, seed", [("big", 3), ("spread", 7)])
def test_preprocess_on_the_benchmark_workloads_is_pinned(name, seed):
    venue, _, queries = build_workload(perfbench_workloads()[name].workload_spec(seed))
    index = build_index(venue, build_d2d_graph(venue))
    cats = frequent_categories(queries, 100)
    for alpha in (0.2, 0.5, 0.8):
        pruned, report = preprocess(index, cats, alpha=alpha)
        alive = hashlib.sha256(json.dumps(sorted(pruned.alive)).encode()).hexdigest()
        assert (report.removed, report_digest(report), alive) == PINNED_SNAPSHOTS[name, alpha]


@pytest.mark.parametrize("scores", ["random", "equal"])
def test_a_3000_point_group_prunes_as_the_all_pairs_pass_in_bounded_memory(scores):
    """One room holding 3,000 points of one category.  The all-pairs
    reference peaks near 284 MB here; the presorted pass stays under 8 MB
    and removes the same points: most of them with random scores, none
    with equal ones."""
    rng = random.Random(5)
    part, doors = flat_partition(100.0, 60.0)
    points = [pt(i, rng.uniform(0, 100), rng.uniform(0, 60), 0,
                 rng.uniform(0, 30) if scores == "random" else 5.0) for i in range(3000)]
    venue = Venue(partitions={0: part}, doors=doors, points={p.id: p for p in points})
    index = build_index(venue, build_d2d_graph(venue))
    tracemalloc.start()
    try:
        pruned, report = preprocess(index, [0], alpha=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    want = set(certified_all_pairs(points, 0.5, dom.venue_reach(index)))
    assert index.alive - pruned.alive == want
    assert (len(want) > 2000) if scores == "random" else not want


# -- soundness -----------------------------------------------------------------------

def test_pruning_keeps_the_optimum_at_alpha_one_half():
    # The pair-selection pass lost it on queries 3 and 7: 77.8320 against
    # 77.7605, and 62.4578 against 62.3863.
    spec = WorkloadSpec(seed=29, floors=2, rooms_per_floor=8, categories=5, count_range=(6, 10),
                        query_count=8, query_categories=(3,), alpha=0.5)
    venue, _, queries = build_workload(spec)
    index = build_index(venue, build_d2d_graph(venue))
    pruned, _ = preprocess(index, frequent_categories(queries, 100))
    for query in queries:
        optimum = route_cost(exact_route(query, index), query.alpha)
        assert route_cost(exact_route(query, pruned), query.alpha) <= optimum + 1e-9


GRID_ALPHAS = (0.2, 0.5, 0.65, 0.8, 0.95)


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
def test_a_snapshot_keeps_every_optimum_and_gcnn_route_up_to_its_alpha(alpha):
    """Seeds 0-39, every query category pruned at alpha: exact_route keeps
    the optimum at alpha, and gcnn returns the unpruned routes at alpha and
    at every grid alpha below it."""
    for seed in range(40):
        spec = WorkloadSpec(seed=seed, floors=2, rooms_per_floor=8, categories=5,
                            count_range=(6, 10), query_count=8, query_categories=(3,))
        venue, _, queries = build_workload(spec)
        index = build_index(venue, build_d2d_graph(venue))
        pruned, _ = preprocess(index, frequent_categories(queries, 100), alpha=alpha)
        for query in queries:
            query = replace(query, alpha=alpha)
            optimum = route_cost(exact_route(query, index), alpha)
            assert route_cost(exact_route(query, pruned), alpha) <= optimum, (seed, query)
            for lower in (a for a in GRID_ALPHAS if a <= alpha):
                query = replace(query, alpha=lower)
                assert gcnn(query, pruned) == gcnn(query, index), (seed, lower, query)
