import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from indoortrip import (
    Door,
    IndoorPoint,
    Location,
    Partition,
    Venue,
    WorkloadSpec,
    build_d2d_graph,
    build_index,
    build_workload,
    load_checked_venue,
    load_objects_csv,
    load_venue,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from indoortrip.venue import (OBJECT_CSV_HEADER, PointMapping, PointTable, intra_distance,
                              venue_from_dict, venue_to_dict)
from indoortrip.workload import venue_diameter

from conftest import make_corridor_venue, make_two_room_venue


def test_wellformed_two_room_venue_validates_clean():
    report = validate_venue(make_two_room_venue())
    assert report.ok
    assert report.findings == []


def test_point_with_unknown_partition_is_a_dangling_reference():
    bad = IndoorPoint(id=0, partition_id=99, x=1, y=1, floor=0, category=0, static_score=1.0)
    venue = make_two_room_venue(points=[bad])
    report = validate_venue(venue)
    assert "dangling reference" in report.codes()


def test_door_with_three_partitions_is_a_door_arity_finding():
    venue = make_two_room_venue()
    venue.doors[0] = Door(id=0, x=10.0, y=5.0, floor=0, partition_ids=(0, 1, 1))
    report = validate_venue(venue)
    assert "door arity" in report.codes()


def test_a_partition_or_door_listed_twice_is_a_duplicate_listing():
    venue = make_two_room_venue()
    venue.partitions[0] = Partition(id=0, floor=0, bounds=(0, 0, 10, 10),
                                    kind="room", door_ids=(0, 0, 1))
    venue.doors[1] = Door(id=1, x=0.0, y=5.0, floor=0, partition_ids=(0,))
    assert validate_venue(venue).codes() == ["duplicate listing"]

    venue = make_two_room_venue()
    venue.partitions[0] = Partition(id=0, floor=0, bounds=(0, 0, 10, 10),
                                    kind="room", door_ids=(0, 1))
    venue.doors[1] = Door(id=1, x=0.0, y=5.0, floor=0, partition_ids=(0, 0))
    assert validate_venue(venue).codes() == ["duplicate listing"]


def test_point_outside_bounds_is_reported():
    stray = IndoorPoint(id=0, partition_id=0, x=50, y=50, floor=0, category=0, static_score=0.0)
    report = validate_venue(make_two_room_venue(points=[stray]))
    assert "point outside bounds" in report.codes()


def test_non_finite_score_is_reported():
    for score in (float("nan"), float("inf"), float("-inf")):
        bad = IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=0, static_score=score)
        report = validate_venue(make_two_room_venue(points=[bad]))
        assert "non-finite score" in report.codes()


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_partition_bounds_are_reported(bad):
    point = IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=0, static_score=1.0)
    venue = make_two_room_venue(points=[point])
    venue.partitions[0] = Partition(id=0, floor=0, bounds=(bad, 0, 10, 10),
                                    kind="room", door_ids=(0,))
    # Neither the door nor the point is blamed for the partition's bounds.
    assert validate_venue(venue).codes() == ["non-finite coordinates"]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_door_coordinates_are_reported(bad):
    venue = make_two_room_venue()
    venue.doors[0] = Door(id=0, x=10.0, y=bad, floor=0, partition_ids=(0, 1))
    assert validate_venue(venue).codes() == ["non-finite coordinates"]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_point_coordinates_are_reported(bad):
    point = IndoorPoint(id=0, partition_id=0, x=bad, y=1, floor=0, category=0, static_score=1.0)
    assert validate_venue(make_two_room_venue(points=[point])).codes() == ["non-finite coordinates"]


def test_door_off_boundary_and_unlisted_door_are_reported():
    venue = make_two_room_venue()
    venue.doors[0] = Door(id=0, x=5.0, y=5.0, floor=0, partition_ids=(0, 1))
    report = validate_venue(venue)
    assert "door placement" in report.codes()  # interior of room 0, outside room 1

    venue = make_two_room_venue()
    venue.partitions[0] = Partition(id=0, floor=0, bounds=(0, 0, 10, 10),
                                    kind="room", door_ids=(9,))
    venue.doors[9] = Door(id=9, x=0.0, y=5.0, floor=0, partition_ids=(0,))
    report = validate_venue(venue)
    assert "door listing" in report.codes()  # door 0 references partition 0 unlisted


def test_disconnected_partition_is_reported():
    venue = make_two_room_venue()
    venue.partitions[2] = Partition(id=2, floor=0, bounds=(30, 0, 40, 10), kind="room", door_ids=(1,))
    venue.doors[1] = Door(id=1, x=30.0, y=5.0, floor=0, partition_ids=(2,))
    report = validate_venue(venue)
    assert "disconnected" in report.codes()


def test_degenerate_bounds_and_missing_doors_are_reported():
    venue = make_two_room_venue()
    venue.partitions[0] = Partition(id=0, floor=0, bounds=(0, 0, 0, 10), kind="room", door_ids=())
    report = validate_venue(venue)
    codes = report.codes()
    assert "degenerate bounds" in codes
    assert "no doors" in codes


def test_resolve_picks_containing_partition_and_errors_outside():
    venue = make_two_room_venue()
    loc = venue.resolve(Location(x=5, y=5, floor=0))
    assert loc.partition_id == 0
    loc = venue.resolve(Location(x=15, y=5, floor=0))
    assert loc.partition_id == 1
    with pytest.raises(ValueError):
        venue.resolve(Location(x=500, y=5, floor=0))
    # boundary overlap resolves to the smallest partition id
    assert venue.resolve(Location(x=10, y=5, floor=0)).partition_id == 0


@pytest.mark.parametrize("x, y, floor, message", [
    (float("nan"), 5.0, 0, "non-finite"),
    (5.0, float("inf"), 0, "non-finite"),
    (1e6, 1e6, 0, "outside"),
    (15.0, 5.0, 0, "outside"),   # inside room 1, not the stated room 0
    (5.0, 5.0, 3, "outside"),    # wrong floor
])
def test_resolve_checks_a_stated_partition(x, y, floor, message):
    venue = make_two_room_venue()
    with pytest.raises(ValueError, match=rf"{message}.*partition 0|partition 0.*{message}"):
        venue.resolve(Location(x=x, y=y, floor=floor, partition_id=0))
    assert venue.resolve(Location(5.0, 5.0, 0, 0)) == Location(5.0, 5.0, 0, 0)


def test_intra_distance_same_floor_is_euclidean_and_stairs_use_diagonal():
    room = Partition(id=0, floor=0, bounds=(0, 0, 6, 8), kind="room", door_ids=(0,))
    assert intra_distance(room, Location(0, 0, 0), Location(6, 8, 0)) == 10.0
    stairs = Partition(id=1, floor=0, bounds=(0, 0, 3, 4), kind="stairs", door_ids=(0,), floor2=1)
    assert intra_distance(stairs, Location(0, 0, 0), Location(0, 0, 1)) == 5.0


def test_venue_json_round_trip(tmp_path):
    points = [IndoorPoint(id=0, partition_id=0, x=2, y=3, floor=0, category=1, static_score=4.5)]
    venue = make_two_room_venue(points=points)
    venue.categories[1] = "coffee"
    path = tmp_path / "venue.json"
    save_venue(venue, path)
    loaded = load_venue(path)
    assert loaded.partitions == venue.partitions
    assert loaded.doors == venue.doors
    assert loaded.points == venue.points
    assert loaded.categories == venue.categories
    # deterministic serialization
    save_venue(loaded, tmp_path / "venue2.json")
    assert (tmp_path / "venue.json").read_bytes() == (tmp_path / "venue2.json").read_bytes()


def test_objects_csv_round_trip(tmp_path):
    points = [
        IndoorPoint(id=3, partition_id=0, x=1.25, y=2.5, floor=0, category=2, static_score=7.125),
        IndoorPoint(id=1, partition_id=1, x=11.0, y=9.0, floor=0, category=0, static_score=0.0),
    ]
    path = tmp_path / "objects.csv"
    save_objects_csv(points, path)
    loaded = load_objects_csv(path)
    assert loaded == sorted(points, key=lambda p: p.id)
    header = path.read_text().splitlines()[0]
    assert header == "id,partition_id,x,y,floor,category,static_score"


def test_objects_csv_missing_column_raises(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y\n1,2,3\n")
    with pytest.raises(ValueError):
        load_objects_csv(path)


def test_objects_csv_duplicate_id_raises(tmp_path):
    points = [
        IndoorPoint(id=4, partition_id=0, x=1.0, y=1.0, floor=0, category=0, static_score=1.0),
        IndoorPoint(id=4, partition_id=1, x=12.0, y=3.0, floor=0, category=1, static_score=2.0),
    ]
    path = tmp_path / "objects.csv"
    save_objects_csv(points, path)
    with pytest.raises(ValueError, match="repeats id 4"):
        load_objects_csv(path)


def test_a_repeated_point_id_is_refused_at_ingest():
    """Points given by hand, as a list or as a dict, that repeat an id are
    refused, naming it, rather than the last of them kept."""
    twins = [_point(4), _point(7), _point(4, x=2.0)]
    for points in (twins, dict(enumerate(twins))):
        with pytest.raises(ValueError, match="point id 4 is repeated"):
            Venue(partitions={}, doors={}, points=points)
        with pytest.raises(ValueError, match="point id 4 is repeated"):
            make_two_room_venue().with_points(points)


def _venue_given(source, points, path):
    """The two rooms given the points one way; a generated workload's own."""
    if source == "dict":
        return make_two_room_venue(points)
    if source == "list":
        return make_two_room_venue().with_points(points)
    if source == "workload":
        return build_workload(WorkloadSpec(seed=5, floors=1, rooms_per_floor=6, categories=3,
                                           count_range=(4, 6), query_count=1,
                                           query_categories=(2,)))[0]
    venue_path, objects_path = path / "venue.json", path / "objects.csv"
    save_venue(make_two_room_venue(points if source == "json" else ()), venue_path)
    save_objects_csv(points, objects_path)
    return load_checked_venue(venue_path, objects_path if source == "csv" else None)


@pytest.mark.parametrize("source", ["dict", "list", "json", "workload", "csv"])
def test_every_venue_keeps_its_points_as_one_table(tmp_path, monkeypatch, source):
    """However a venue gets its points, it keeps them as the read-only
    mapping of one table, made with the venue: validating and indexing it
    make no other table, and the index reads the venue's."""
    points = [_point(3, partition_id=1, x=12.0), _point(1), _point(2, x=4.0, score=0.5)]
    venue = _venue_given(source, points, tmp_path)
    assert type(venue.points) is PointMapping
    if source != "workload":
        assert dict(venue.points) == {p.id: p for p in points}
    made = []
    init = PointTable.__init__
    monkeypatch.setattr(PointTable, "__init__", lambda table, columns: made.append(table)
                        or init(table, columns))
    assert validate_venue(venue).ok
    assert build_index(venue, build_d2d_graph(venue)).table is venue.points.table
    assert made == []


@st.composite
def partition_graphs(draw):
    """A venue of unit rooms, listed out of id order, whose doors name one
    to three partitions each: repeats, unknown ids (90 and up) and isolated
    partitions included.  Only the doors' partition ids matter to the walk."""
    pids = draw(st.lists(st.integers(0, 40), unique=True, max_size=14))
    pids = draw(st.permutations(pids))
    named = st.sampled_from(pids + [90, 91])
    doors = draw(st.lists(st.lists(named, min_size=1, max_size=3), max_size=12))
    return Venue(
        partitions={p: Partition(id=p, floor=0, bounds=(0, 0, 1, 1)) for p in pids},
        doors={d: Door(id=d, x=0.0, y=0.0, floor=0, partition_ids=tuple(ids))
               for d, ids in enumerate(doors)},
    )


def reference_components(venue):
    """scipy's components, by smallest id, each in breadth-first order over
    the symmetric id-sorted adjacency, whose rows list neighbours ascending."""
    ids = sorted(venue.partitions)
    row = {pid: i for i, pid in enumerate(ids)}
    edges = {(row[a], row[b]) for door in venue.doors.values()
             for a in door.partition_ids for b in door.partition_ids
             if a != b and a in row and b in row}
    u, v = np.array(sorted(edges), dtype=int).reshape(-1, 2).T
    graph = csr_matrix((np.ones(len(u)), (u, v)), shape=(len(ids), len(ids)))
    graph.sort_indices()
    _, labels = connected_components(graph, directed=False)
    starts = sorted(np.unique(labels, return_index=True)[1])  # each component's smallest id
    return [[ids[i] for i in breadth_first_order(graph, start, directed=True,
                                                 return_predecessors=False)]
            for start in starts]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(partition_graphs())
def test_components_are_scipys_breadth_first_walks(venue):
    components = venue.components()
    listed = [pid for part in components for pid in part]
    assert sorted(listed) == sorted(venue.partitions)  # each partition exactly once
    assert components == reference_components(venue)
    disconnected = [f.message for f in validate_venue(venue).findings if f.code == "disconnected"]
    outside = sorted(listed[len(components[0]):]) if components else []
    assert disconnected == [f"partition {pid} is unreachable from partition {listed[0]}"
                            for pid in outside]


def test_components_of_an_empty_venue_report_nothing():
    venue = Venue(partitions={}, doors={0: Door(id=0, x=0.0, y=0.0, floor=0, partition_ids=(3,))})
    assert venue.components() == []
    assert validate_venue(venue).codes() == ["dangling reference"]


def test_components_walk_breadth_first_in_id_order():
    # 1 - 7 - 3 and 1 - 4 - 2; 8 - 5; 6 alone.  A depth-first walk would
    # give 1, 4, 7, 3, 2.  Partitions are listed out of id order.
    pairs = [(7, 1), (1, 4), (4, 2), (7, 3), (3, 99), (8, 5), (5, 5)]
    venue = Venue(
        partitions={p: Partition(id=p, floor=0, bounds=(0, 0, 1, 1))
                    for p in (7, 6, 3, 1, 8, 2, 5, 4)},
        doors={d: Door(id=d, x=0.0, y=0.0, floor=0, partition_ids=ids)
               for d, ids in enumerate(pairs)},
    )
    assert venue.components() == [[1, 4, 7, 2, 3], [5, 8], [6]]


def _replace_partition(venue, **fields):
    venue.partitions[0] = Partition(**{"id": 0, "floor": 0, "bounds": (0, 0, 10, 10),
                                       "kind": "room", "door_ids": (0,), **fields})
    return venue


def _add_door_to_nowhere(venue):
    venue.doors[1] = Door(id=1, x=0.0, y=5.0, floor=0, partition_ids=(0, 9))
    return _replace_partition(venue, door_ids=(0, 1))


def _add_negative_score(venue):
    return venue.with_points([IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=0,
                                          static_score=-0.5)])


BROKEN_INVARIANTS = [
    pytest.param(lambda v: _replace_partition(v, kind="kiosk"), "unknown kind",
                 "partition 0 kind 'kiosk'", id="unknown-kind"),
    pytest.param(lambda v: _replace_partition(v, floor2=1), "floor span",
                 "non-stairs partition 0 spans two floors", id="floor-span"),
    pytest.param(lambda v: _replace_partition(v, door_ids=(0, 7)), "dangling reference",
                 "partition 0 lists unknown door 7", id="partition-lists-unknown-door"),
    pytest.param(_add_door_to_nowhere, "dangling reference",
                 "door 1 references unknown partition 9", id="door-names-unknown-partition"),
    pytest.param(_add_negative_score, "negative score",
                 "point 0 has static score -0.5", id="negative-score"),
]


@pytest.mark.parametrize("break_venue, code, message", BROKEN_INVARIANTS)
def test_each_broken_invariant_is_its_one_finding(break_venue, code, message):
    venue = break_venue(make_two_room_venue())
    assert [(f.code, f.message) for f in validate_venue(venue).findings] == [(code, message)]


def with_loaded_points(venue, path):
    """The venue with its points written to an objects CSV in their order
    and loaded back: a venue whose points are the loader's table."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBJECT_CSV_HEADER)
        for p in venue.points.values():
            writer.writerow([p.id, p.partition_id, repr(float(p.x)), repr(float(p.y)), p.floor,
                             p.category, repr(float(p.static_score))])
    table = load_objects_csv(path)
    loaded = venue.with_points(table)
    assert isinstance(loaded.points, PointMapping) and loaded.points.table is table
    return loaded


@pytest.mark.parametrize("break_venue, code, message", BROKEN_INVARIANTS)
def test_each_broken_invariant_is_its_one_finding_on_loaded_points(tmp_path, break_venue, code,
                                                                   message):
    venue = break_venue(make_two_room_venue())
    loaded = with_loaded_points(venue, tmp_path / "objects.csv")
    assert [(f.code, f.message) for f in validate_venue(loaded).findings] == [(code, message)]


def _stairs_venue(points):
    """The two rooms, room 1 a stairs partition reaching floors 0 and 2."""
    venue = make_two_room_venue(points)
    venue.partitions[1] = Partition(id=1, floor=0, bounds=(10, 0, 20, 10), kind="stairs",
                                    door_ids=(0,), floor2=2)
    return venue


def _point(pid, partition_id=0, x=1.0, y=1.0, floor=0, score=1.0):
    return IndoorPoint(id=pid, partition_id=partition_id, x=x, y=y, floor=floor, category=0,
                       static_score=score)


@pytest.mark.parametrize("make_venue", [make_two_room_venue, _stairs_venue],
                         ids=["rooms", "stairs"])
def test_loaded_points_give_the_findings_of_object_points_in_their_order(tmp_path, make_venue):
    """A venue given the CSV loader's table has the point findings of one
    given the same points as objects: the same codes and messages, row by
    row in the points' order."""
    eps = 1e-6
    points = [
        _point(9), _point(3, partition_id=99, score=-1.0), _point(7, x=math.nan, score=math.nan),
        _point(1, y=math.inf), _point(12, x=50.0), _point(5, floor=1), _point(4, floor=2),
        _point(6, partition_id=1, x=15.0, floor=2), _point(8, partition_id=1, x=15.0, floor=1),
        _point(2, x=10.0 + eps), _point(11, x=10.0 + 2 * eps), _point(10, x=-eps, y=-eps),
        _point(13, score=-math.inf), _point(14, score=-0.0), _point(0, x=-math.inf, score=-2.0),
    ]
    venue = make_venue(points)
    want = [(f.code, f.message) for f in validate_venue(venue).findings]
    assert len(want) > 10
    loaded = with_loaded_points(venue, tmp_path / "objects.csv")
    assert [(f.code, f.message) for f in validate_venue(loaded).findings] == want


def test_a_point_field_outside_int64_is_refused_at_ingest(tmp_path):
    """A venue given a point with an integer field outside int64, by hand
    or in venue JSON, is refused at construction, naming the first such
    point; the CSV loader refuses one, naming its line."""
    wide = [_point(2 ** 63), IndoorPoint(id=1, partition_id=0, x=1.0, y=1.0, floor=0,
                                         category=-2 ** 63 - 1, static_score=-1.0)]
    for points, message in [(wide, f"point {2 ** 63} has id {2 ** 63} outside the int64 range"),
                            (wide[::-1], f"point 1 has category {-2 ** 63 - 1} outside the int64")]:
        with pytest.raises(ValueError, match=message):
            make_two_room_venue([_point(0, score=-1.0)] + points)
        data = venue_to_dict(make_two_room_venue())
        data["points"] = [vars(p) for p in points]
        with pytest.raises(ValueError, match=message):
            venue_from_dict(data)
    save_objects_csv(wide, tmp_path / "objects.csv")  # in id order: point 1 on line 2
    with pytest.raises(ValueError, match=f"line 2 is malformed: point 1 has category {-2 ** 63 - 1} "
                                         "outside the int64 range"):
        load_objects_csv(tmp_path / "objects.csv")


def test_load_checked_venue_names_the_first_five_findings(tmp_path):
    venue_path, objects_path = tmp_path / "venue.json", tmp_path / "objects.csv"
    save_venue(make_two_room_venue(), venue_path)
    save_objects_csv([IndoorPoint(id=i, partition_id=0, x=1, y=1, floor=0, category=0,
                                  static_score=-1.0 - i) for i in range(7)], objects_path)
    assert load_checked_venue(venue_path).points == {}
    messages = [f"point {i} has static score {-1.0 - i}" for i in range(5)]
    with pytest.raises(ValueError) as raised:
        load_checked_venue(venue_path, objects_path)
    assert str(raised.value) == f"venue failed validation: {messages}"


@pytest.mark.parametrize("data, message", [
    pytest.param([], "venue JSON must be an object, got list", id="list"),
    pytest.param("venue", "venue JSON must be an object, got str", id="str"),
    pytest.param({"partitions": [{"id": 0, "floor": 0, "bounds": [0, 0, 1]}]},
                 "venue JSON partitions entry 0 is malformed: "
                 "ValueError('bounds need 4 numbers, got 3')", id="short-bounds"),
])
def test_venue_from_dict_names_what_is_malformed(data, message):
    with pytest.raises(ValueError) as raised:
        venue_from_dict(data)
    assert str(raised.value) == message


def test_venue_diameter_of_a_one_door_venue_is_its_bounding_diagonal():
    # The door matrix is one zero, so the diameter falls back to the bounds.
    venue = Venue(partitions={0: Partition(id=0, floor=0, bounds=(2, 1, 8, 9), door_ids=(0,))},
                  doors={0: Door(id=0, x=2.0, y=5.0, floor=0, partition_ids=(0,))})
    assert venue_diameter(venue) == 10.0
    assert venue_diameter(make_corridor_venue()) == 40.0  # door 0 to door 4
