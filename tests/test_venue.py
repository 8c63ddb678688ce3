import pytest

from indoortrip import (
    Door,
    IndoorPoint,
    Location,
    Partition,
    load_objects_csv,
    load_venue,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from indoortrip.venue import intra_distance

from conftest import make_two_room_venue


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


def test_point_outside_bounds_is_reported():
    stray = IndoorPoint(id=0, partition_id=0, x=50, y=50, floor=0, category=0, static_score=0.0)
    report = validate_venue(make_two_room_venue(points=[stray]))
    assert "point outside bounds" in report.codes()


def test_non_finite_score_is_reported():
    for score in (float("nan"), float("inf"), float("-inf")):
        bad = IndoorPoint(id=0, partition_id=0, x=1, y=1, floor=0, category=0, static_score=score)
        report = validate_venue(make_two_room_venue(points=[bad]))
        assert "non-finite score" in report.codes()


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
