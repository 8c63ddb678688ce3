import hashlib
import json
from collections import Counter

import pytest

from indoortrip import (
    WorkloadSpec,
    bucket_categories,
    build_d2d_graph,
    build_workload,
    generate_queries,
    generate_venue,
    place_objects,
    replicate_dataset,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from indoortrip.routing import save_queries
from indoortrip.venue import IndoorPoint, venue_to_dict


def test_single_room_venue_is_minimal_and_valid():
    spec = WorkloadSpec(floors=1, rooms_per_floor=1, categories=1,
                        count_range=(1, 1), query_count=1, query_categories=(1,))
    venue = generate_venue(spec)
    assert len(venue.partitions) == 1
    assert len(venue.doors) >= 1
    assert validate_venue(venue).ok


def test_single_room_venue_names_its_categories():
    venue = generate_venue(WorkloadSpec(floors=1, rooms_per_floor=1, categories=3))
    assert venue.categories == {0: "cat-0", 1: "cat-1", 2: "cat-2"}


# sha256 of the venue JSON per (floors, rooms per floor, doors per room),
# with the default 8 categories.  The single-room venue read 50e9a37c...
# while it dropped its category names.
VENUE_PINS = {
    (1, 1, 1): "aa10b1d2e99af912119e1cbd00aa362161ce9f2b420ce27ec257cbe28b64215c",
    (1, 2, 1): "0f8d297e2eca0df37db9dae662481e4d6fd727c95aa60d9290840543a381ca00",
    (1, 7, 2): "d8cfc2f955c71fbd01c588983cd18438e7f69268aa6e492b13f945ae1f02fb88",
    (2, 8, 1): "7c7e0efc9b314279c5dc95c3f5e3bac50898a861cab64209406e13f988c40028",
    (3, 16, 1): "2edb314d286893e29bb0f4270ee7b13fbaca6060cd8fd0c7206a5e8711b154e1",
    (4, 12, 3): "1e50e8432f96a1e7b2cb6b346381495494804f17527c0c22ef584599c2331ee4",
    (6, 30, 1): "ccb7df16596bc32fd62c11ca55aa377317b38ad070b149c7c21d56c6c1b8f376",
}


@pytest.mark.parametrize("shape", VENUE_PINS, ids=lambda s: "x".join(map(str, s)))
def test_generated_venues_are_pinned(shape):
    floors, rooms, doors = shape
    venue = generate_venue(WorkloadSpec(floors=floors, rooms_per_floor=rooms,
                                        doors_per_room=doors))
    text = json.dumps(venue_to_dict(venue), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VENUE_PINS[shape]


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 7, 2), (3, 5, 3), (4, 12, 1)],
                         ids=lambda s: "x".join(map(str, s)))
def test_generated_partitions_come_in_id_order_and_list_the_doors_naming_them(shape):
    floors, rooms, doors = shape
    venue = generate_venue(WorkloadSpec(floors=floors, rooms_per_floor=rooms,
                                        doors_per_room=doors))
    assert list(venue.partitions) == sorted(venue.partitions)
    for pid, part in venue.partitions.items():
        assert part.id == pid
        naming = sorted(d.id for d in venue.doors.values() if pid in d.partition_ids)
        assert list(part.door_ids) == naming


def test_default_venue_validates_and_connects():
    spec = WorkloadSpec(seed=1)
    venue = generate_venue(spec)
    assert validate_venue(venue).ok
    build_d2d_graph(venue)  # raises if disconnected
    kinds = Counter(p.kind for p in venue.partitions.values())
    assert kinds["room"] == spec.floors * spec.rooms_per_floor
    assert kinds["hallway"] == spec.floors
    assert kinds["stairs"] == spec.floors - 1


def test_same_seed_gives_byte_identical_files(tmp_path):
    for run in ("a", "b"):
        spec = WorkloadSpec(seed=99, categories=4, count_range=(3, 6), query_count=5,
                            query_categories=(2,))
        venue, points, queries = build_workload(spec)
        save_venue(venue, tmp_path / f"venue_{run}.json")
        save_objects_csv(points, tmp_path / f"objects_{run}.csv")
        save_queries(queries, tmp_path / f"queries_{run}.jsonl")
    for stem in ("venue", "objects", "queries"):
        files = sorted(tmp_path.glob(f"{stem}_*"))
        assert files[0].read_bytes() == files[1].read_bytes()


def test_object_counts_respect_range_and_bounds():
    spec = WorkloadSpec(seed=5, categories=6, count_range=(4, 9), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    counts = Counter(p.category for p in points)
    assert set(counts) == set(range(6))
    for cat, n in counts.items():
        assert 4 <= n <= 9
    for p in points:
        part = venue.partitions[p.partition_id]
        assert part.kind == "room"
        assert part.contains(p.x, p.y, p.floor)
        assert p.static_score >= 0


def test_exact_range_bucket_yields_exact_count():
    spec = WorkloadSpec(seed=5, categories=3, count_range=(2, 2), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    counts = Counter(p.category for p in points)
    assert all(n == 2 for n in counts.values())


def test_clustering_restricts_partitions_per_category():
    spec = WorkloadSpec(seed=8, categories=4, count_range=(12, 15), store_rooms=6,
                        hosts_per_category=2, query_count=1, query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    for cat in range(4):
        parts = {p.partition_id for p in points if p.category == cat}
        assert len(parts) <= 2


def test_uniform_mode_spreads_over_many_rooms():
    spec = WorkloadSpec(seed=8, categories=2, count_range=(60, 60),
                        hosts_per_category=None, query_count=1, query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    parts = {p.partition_id for p in points}
    assert len(parts) > 10


def test_bucket_boundaries_are_closed_and_reference_counts_map():
    def objs(cat, n):
        return [IndoorPoint(id=i + cat * 10_000, partition_id=0, x=0, y=0, floor=0,
                            category=cat, static_score=0.0) for i in range(n)]

    points = objs(0, 100) + objs(1, 500) + objs(2, 1000)
    buckets = bucket_categories(points, scale=1.0)
    assert buckets["XS"] == [0]
    assert buckets["S"] == [1]
    assert buckets["M"] == [2]
    # boundary: exactly at the upper edge of XS
    assert bucket_categories(objs(3, 120), scale=1.0)["XS"] == [3]
    assert bucket_categories([], scale=1.0) == {k: [] for k in ("XS", "S", "M", "L", "XL")}


def test_unbucketed_categories_are_left_out():
    pts = [IndoorPoint(id=i, partition_id=0, x=0, y=0, floor=0, category=0, static_score=0.0)
           for i in range(300)]
    buckets = bucket_categories(pts, scale=1.0)
    assert all(0 not in cats for cats in buckets.values())


def test_generate_queries_m_equal_to_pool_uses_every_category():
    spec = WorkloadSpec(seed=3, categories=3, count_range=(2, 4), query_count=6,
                        query_categories=(3,))
    venue, points, queries = build_workload(spec)
    for q in queries:
        assert sorted(q.categories) == [0, 1, 2]


def test_generate_queries_rejects_oversized_m():
    spec = WorkloadSpec(seed=3, categories=3, count_range=(2, 4), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    with pytest.raises(ValueError):
        generate_queries([0, 1], count=2, m=3, alpha=0.5, venue=venue, seed=0)


@pytest.mark.parametrize("count, m, message", [
    pytest.param(-2, 2, "query count must be at least 0, got -2", id="count-2"),
    pytest.param(2, -1, "categories per query must each be at least 1, got -1", id="m-1"),
    pytest.param(2, 0, "categories per query must each be at least 1, got 0", id="m0"),
    pytest.param(2, (2, 0), r"categories per query must each be at least 1, got \(2, 0\)",
                 id="m2,0"),
])
def test_generate_queries_rejects_negative_count_and_m_below_one(count, m, message):
    spec = WorkloadSpec(seed=3, categories=3, count_range=(2, 4), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    with pytest.raises(ValueError, match=message):
        generate_queries([0, 1], count=count, m=m, alpha=0.5, venue=venue, seed=0)


@pytest.mark.parametrize("fields, message", [
    pytest.param({"count_range": (10, 5)}, r"0 <= lo <= hi, got \(10, 5\)", id="lo>hi"),
    pytest.param({"count_range": (-1, 5)}, r"0 <= lo <= hi, got \(-1, 5\)", id="lo<0"),
    pytest.param({"hosts_per_category": 0}, "hosts per category must be at least 1, got 0",
                 id="hosts0"),
    pytest.param({"store_rooms": 0}, "needs at least 1 store room, got 0", id="stores0"),
])
def test_spec_rejects_a_bad_placement_field_by_value(fields, message):
    with pytest.raises(ValueError, match=message):
        WorkloadSpec(seed=3, categories=3, **fields)


def test_uniform_placement_needs_no_store_rooms():
    spec = WorkloadSpec(seed=3, categories=2, count_range=(0, 4), store_rooms=0,
                        hosts_per_category=None)
    assert len(place_objects(generate_venue(spec), spec)) <= 8


def test_generated_queries_are_feasible_and_in_bounds():
    spec = WorkloadSpec(seed=21, categories=5, count_range=(3, 7), query_count=20)
    venue, points, queries = build_workload(spec)
    live = {p.category for p in points}
    for q in queries:
        assert set(q.categories) <= live
        for loc in (q.source, q.target):
            part = venue.partitions[loc.partition_id]
            assert part.contains(loc.x, loc.y, loc.floor)
    sizes = [len(q.categories) for q in queries]
    assert sizes[:6] == [2, 3, 4, 2, 3, 4]  # cycled pattern


def test_replicate_multiplies_counts_and_preserves_scores():
    spec = WorkloadSpec(seed=9, categories=3, count_range=(4, 6), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    for k in (1, 4):
        rep = replicate_dataset(venue, points, k=k, seed=77)
        assert len(rep) == k * len(points)
        base = Counter((p.category, round(p.static_score, 9)) for p in points)
        got = Counter((p.category, round(p.static_score, 9)) for p in rep)
        assert got == {key: k * n for key, n in base.items()}
        assert len({p.id for p in rep}) == len(rep)


def test_replicate_relocates_and_is_deterministic():
    spec = WorkloadSpec(seed=9, categories=2, count_range=(5, 5), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    rep = replicate_dataset(venue, points, k=1, seed=13)
    moved = sum(
        1 for a, b in zip(sorted(points, key=lambda p: p.id), rep)
        if (a.x, a.y, a.partition_id) != (b.x, b.y, b.partition_id)
    )
    assert moved > 0
    assert replicate_dataset(venue, points, k=1, seed=13) == rep


def test_replicate_rejects_nonpositive_k():
    spec = WorkloadSpec(seed=9, categories=2, count_range=(2, 2), query_count=1,
                        query_categories=(2,))
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    with pytest.raises(ValueError):
        replicate_dataset(venue, points, k=0, seed=1)


CLUSTERED = WorkloadSpec(seed=11, categories=5, count_range=(10, 20))
UNIFORM = WorkloadSpec(seed=12, categories=5, count_range=(10, 20), hosts_per_category=None)


@pytest.mark.parametrize("make, digest", [
    pytest.param(lambda: place_objects(generate_venue(CLUSTERED), CLUSTERED),
                 "ef5f311ca9e3f4e4e8c98ba7896b1fd69311ef73db7f9d89880677daa686e20f",
                 id="clustered"),
    pytest.param(lambda: place_objects(generate_venue(UNIFORM), UNIFORM),
                 "1f416ab08f3011a7b36b69153d5188d3799602e13d071992f27368f214e3e75d",
                 id="uniform"),
    pytest.param(lambda: replicate_dataset(generate_venue(CLUSTERED),
                                           place_objects(generate_venue(CLUSTERED), CLUSTERED),
                                           k=3, seed=13),
                 "5b65ef87c48c9732fc2d159a7e96a1408b849618f01b79eda90a029000d10acb",
                 id="replicate-k3"),
])
def test_generated_objects_are_pinned(tmp_path, make, digest):
    """The objects file of a clustered placement, a uniform one (as the
    spread workload draws) and a 3x replication, byte for byte."""
    save_objects_csv(make(), tmp_path / "objects.csv")
    assert hashlib.sha256((tmp_path / "objects.csv").read_bytes()).hexdigest() == digest
