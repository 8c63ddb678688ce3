"""Round trips and fuzzing of the venue JSON, objects CSV and queries JSONL
loaders: what is saved loads back equal, and bad input raises ValueError."""

import csv
import io
import json
import warnings
from collections.abc import Mapping

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indoortrip import (
    IndoorPoint,
    Location,
    Partition,
    PointTable,
    TripQuery,
    Venue,
    load_checked_venue,
    load_objects_csv,
    load_venue,
    save_objects_csv,
    save_venue,
)
from indoortrip.routing import load_queries, save_queries
from indoortrip.venue import OBJECT_CSV_HEADER, PARTITION_KINDS, Door, venue_to_dict

from conftest import make_two_room_venue

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

ids = st.integers(-10**9, 10**9)
small = st.integers(-5, 5)
coords = st.floats(allow_nan=False)


def _numeric(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# Values no int or float field accepts.
bad_cells = st.text("abcdefghijklmnopqrstuvwxyz", max_size=6).filter(lambda t: not _numeric(t))
bad_values = st.one_of(st.none(), bad_cells, st.lists(small, max_size=2), st.just({}))
# Values an int field refuses, though int() would truncate them to one.
truncated = st.one_of(st.booleans(), st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()))


def bad_value(data, integral):
    """A value the field refuses, or one it refuses though int() would
    truncate it (an int field) or float() read it as 0.0 or 1.0 (a float
    field: a boolean)."""
    return data.draw(st.one_of(truncated if integral else st.booleans(), bad_values))


@st.composite
def partitions(draw, pid):
    floor = draw(small)
    return Partition(
        id=pid, floor=floor,
        bounds=tuple(draw(st.lists(coords, min_size=4, max_size=4))),
        kind=draw(st.sampled_from(PARTITION_KINDS)),
        door_ids=tuple(draw(st.lists(ids, max_size=3))),
        floor2=draw(st.sampled_from((None, floor + 1))),
    )


@st.composite
def doors(draw, did):
    return Door(id=did, x=draw(coords), y=draw(coords), floor=draw(small),
                partition_ids=tuple(draw(st.lists(ids, min_size=1, max_size=2))))


@st.composite
def points(draw, pid):
    return IndoorPoint(id=pid, partition_id=draw(ids), x=draw(coords), y=draw(coords),
                       floor=draw(small), category=draw(ids), static_score=draw(coords))


def keyed(build, max_size=4):
    return st.lists(ids, unique=True, max_size=max_size).flatmap(
        lambda keys: st.tuples(*(build(k) for k in keys)))


venues = st.builds(
    lambda parts, doors_, points_, cats: Venue(
        partitions={p.id: p for p in parts}, doors={d.id: d for d in doors_},
        points={p.id: p for p in points_}, categories=cats),
    keyed(partitions), keyed(doors), keyed(points),
    st.dictionaries(ids, st.text(max_size=5), max_size=3),
)


@FUZZ
@given(venue=venues)
def test_venue_round_trip(tmp_path_factory, venue):
    path = tmp_path_factory.mktemp("venue") / "venue.json"
    save_venue(venue, path)
    assert load_venue(path) == venue


# Per section: the singular noun in messages, required keys, numeric keys,
# and the integer keys among them.
SECTIONS = {
    "partitions": ("partition", ("id", "floor", "bounds"),
                   ("id", "floor", "bounds", "door_ids", "floor2"),
                   ("id", "floor", "door_ids", "floor2")),
    "doors": ("door", ("id", "x", "y", "floor", "partition_ids"),
              ("id", "x", "y", "floor", "partition_ids"), ("id", "floor", "partition_ids")),
    "points": ("point", ("id", "partition_id", "x", "y", "floor", "category", "static_score"),
               ("id", "partition_id", "x", "y", "floor", "category", "static_score"),
               ("id", "partition_id", "floor", "category")),
    "categories": ("category", ("id",), ("id",), ("id",)),
}
LISTS = ("bounds", "door_ids", "partition_ids")


def nonempty_section(venue_dict, data):
    section = data.draw(st.sampled_from(sorted(s for s in SECTIONS if venue_dict[s])))
    entries = venue_dict[section]
    return section, entries, data.draw(st.integers(0, len(entries) - 1))


@FUZZ
@given(venue=venues, data=st.data())
def test_venue_with_a_repeated_id_raises(tmp_path_factory, venue, data):
    venue_dict = venue_to_dict(venue)
    if not any(venue_dict[s] for s in SECTIONS):
        return
    section, entries, n = nonempty_section(venue_dict, data)
    repeated = entries[n]["id"]
    copy = dict(data.draw(st.sampled_from(entries)), id=repeated)
    entries.insert(data.draw(st.integers(0, len(entries))), copy)
    path = tmp_path_factory.mktemp("venue") / "venue.json"
    path.write_text(json.dumps(venue_dict))
    noun = SECTIONS[section][0]
    with pytest.raises(ValueError, match=rf"repeats {noun} id {repeated}$"):
        load_venue(path)


@FUZZ
@given(venue=venues, data=st.data())
def test_venue_with_a_bad_or_missing_cell_raises(tmp_path_factory, venue, data):
    venue_dict = venue_to_dict(venue)
    if not any(venue_dict[s] for s in SECTIONS):
        return
    section, entries, n = nonempty_section(venue_dict, data)
    _, required, numeric, integral = SECTIONS[section]
    entry = entries[n]
    if data.draw(st.booleans()):
        del entry[data.draw(st.sampled_from(required))]
    else:
        key = data.draw(st.sampled_from(numeric))
        bad = bad_value(data, key in integral)
        entry[key] = [bad] + entry[key][1:] if key in LISTS else bad
    path = tmp_path_factory.mktemp("venue") / "venue.json"
    path.write_text(json.dumps(venue_dict))
    with pytest.raises(ValueError, match=rf"{section} entry {n} is malformed"):
        load_venue(path)


def test_venue_with_a_repeated_point_id_names_it(tmp_path):
    point = IndoorPoint(id=7, partition_id=0, x=1.0, y=1.0, floor=0, category=0, static_score=1.0)
    venue_dict = venue_to_dict(Venue(partitions={}, doors={}, points={7: point}))
    venue_dict["points"].append(dict(venue_dict["points"][0], static_score=99.0))
    path = tmp_path / "venue.json"
    path.write_text(json.dumps(venue_dict))
    with pytest.raises(ValueError, match="repeats point id 7"):
        load_venue(path)


object_lists = keyed(points, max_size=6).map(list)


@FUZZ
@given(objects=object_lists)
def test_objects_csv_round_trip(tmp_path_factory, objects):
    path = tmp_path_factory.mktemp("objects") / "objects.csv"
    save_objects_csv(objects, path)
    assert load_objects_csv(path) == sorted(objects, key=lambda p: p.id)


def saved_rows(objects, tmp_path_factory):
    path = tmp_path_factory.mktemp("objects") / "objects.csv"
    save_objects_csv(objects, path)
    return path, list(csv.reader(io.StringIO(path.read_text())))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@FUZZ
@given(objects=object_lists.filter(bool), data=st.data())
def test_objects_csv_with_a_repeated_id_raises(tmp_path_factory, objects, data):
    path, rows = saved_rows(objects, tmp_path_factory)
    source = data.draw(st.integers(1, len(rows) - 1))
    row = list(data.draw(st.sampled_from(rows[1:])))
    row[0] = rows[source][0]
    at = data.draw(st.integers(source + 1, len(rows)))
    rows.insert(at, row)
    write_rows(path, rows)
    with pytest.raises(ValueError, match=rf"line {at + 1} repeats id {rows[source][0]}$"):
        load_objects_csv(path)


@FUZZ
@given(objects=object_lists.filter(bool), data=st.data())
def test_objects_csv_with_a_short_or_non_numeric_row_raises(tmp_path_factory, objects, data):
    path, rows = saved_rows(objects, tmp_path_factory)
    n = data.draw(st.integers(1, len(rows) - 1))
    if data.draw(st.booleans()):
        rows[n] = rows[n][:data.draw(st.integers(1, len(rows[n]) - 1))]
    else:
        rows[n][data.draw(st.integers(0, len(rows[n]) - 1))] = data.draw(bad_cells)
    write_rows(path, rows)
    with pytest.raises(ValueError, match=rf"line {n + 1} is malformed"):
        load_objects_csv(path)


def test_objects_csv_short_row_names_its_line(tmp_path):
    path = tmp_path / "objects.csv"
    path.write_text("id,partition_id,x,y,floor,category,static_score\n"
                    "1,0,1.0,1.0,0,0,1.0\n"
                    "2,0,1.0\n")
    with pytest.raises(ValueError, match="line 3 is malformed: fewer cells"):
        load_objects_csv(path)


def dict_reader_objects(path):
    """The objects CSV loader as written on csv.DictReader, one dict per
    row, and int() and float(): the reference that the loader's numpy
    pass and its reading by column position both match."""
    points, seen = [], set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(OBJECT_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"object CSV is missing columns: {sorted(missing)}")
        for row in reader:
            line = reader.line_num
            try:
                if None in row:
                    raise ValueError("more cells than the header has")
                if None in row.values():
                    raise ValueError("fewer cells than the header has")
                point = IndoorPoint(
                    id=int(row["id"]), partition_id=int(row["partition_id"]),
                    x=float(row["x"]), y=float(row["y"]), floor=int(row["floor"]),
                    category=int(row["category"]), static_score=float(row["static_score"]),
                )
                for name in ("id", "partition_id", "floor", "category"):
                    if not -2 ** 63 <= getattr(point, name) < 2 ** 63:
                        raise ValueError(f"point {point.id} has {name} {getattr(point, name)} "
                                         "outside the int64 range")
            except ValueError as exc:
                raise ValueError(f"object CSV line {line} is malformed: {exc}") from None
            if point.id in seen:
                raise ValueError(f"object CSV line {line} repeats id {point.id}")
            seen.add(point.id)
            points.append(point)
    return points


HEADER = ",".join(OBJECT_CSV_HEADER)
ROWS = "1,0,1.0,2.0,0,3,4.5\n2,1,11.0,2.5,0,3,0.25\n"
REFERENCE_FILES = {
    "shuffled-and-extra": "note,static_score,category,floor,y,x,partition_id,id\n"
                          "shop,4.5,3,0,2.0,1.0,0,1\nkiosk,0.25,3,0,2.5,11.0,1,2\n",
    "blank-lines": f"{HEADER}\n\n1,0,1.0,2.0,0,3,4.5\n\n\n2,1,11.0,2.5,0,3,0.25\n\n",
    "repeated-column": f"{HEADER},x\n1,0,9.0,2.0,0,3,4.5,1.0\n2,1,9.0,2.5,0,3,0.25,11.0\n",
    "header-only": f"{HEADER}\n",
    "empty": "",
    "missing-column": "id,partition_id,x,y,floor,category\n1,0,1.0,2.0,0,3\n",
    "blank-line-before-header": f"\n{HEADER}\n{ROWS}",
    "short-row-after-blank-lines": f"{HEADER}\n{ROWS}\n\n3,0,1.0\n",
    "long-row": f"{HEADER}\n{ROWS}3,0,1.0,2.0,0,3,4.5,9\n",
    "repeated-id-after-a-blank-line": f"{HEADER}\n{ROWS}\n2,0,1.0,2.0,0,3,4.5\n",
    "bad-cells-in-a-shuffled-row": "static_score,id,x,partition_id,y,floor,category\n"
                                   "nan,one,two,0,2.0,0,3\n",
    "quoted-line-break-then-a-short-row": f'{HEADER}\n1,0,"1.0\n",2.0,0,3,4.5\n2,1\n',
    # Where numpy's parse and csv with int() and float() could differ.
    "whitespace-only-line": f"{HEADER}\n1,0,1.0,2.0,0,3,4.5\n \n2,1,11.0,2.5,0,3,0.25\n",
    "hash-in-a-cell": f"{HEADER}\n1,0,1.0,2.0,0,3,4.5#5\n",
    "hash-in-an-id": f"{HEADER}\n1#2,0,1.0,2.0,0,3,4.5\n",
    "quoted-cells": f'{HEADER}\n"1",0,"1.0",2.0,0,3,4.5\n2,1,11.0,2.5,0,3,"0.25"\n',
    "crlf": f"{HEADER}\r\n1,0,1.0,2.0,0,3,4.5\r\n2,1,11.0,2.5,0,3,0.25\r\n",
    "crlf-blank-lines": f"{HEADER}\r\n\r\n1,0,1.0,2.0,0,3,4.5\r\n\r\n",
    "underscore-digits": f"{HEADER}\n1_0,0,1_0.5,2.0,0,3,4.5\n",
    "signed-and-spaced-integers": f"{HEADER}\n+4, 3 ,1.0,2.0, -1,+3,4.5\n",
    "float-in-an-integer-column": f"{HEADER}\n1,0,1.0,2.0,1.0,3,4.5\n",
    "nan-and-infinities": f"{HEADER}\n1,0,nan,-inf,0,3,Infinity\n2,1,11.0,2.5,0,3,NaN\n",
    "id-above-int64": f"{HEADER}\n1,0,1.0,2.0,0,3,4.5\n{2 ** 63},0,1.0,2.0,0,3,4.5\n",
    "category-below-int64": f"{HEADER}\n1,0,1.0,2.0,0,{-2 ** 63 - 1},4.5\n",
    "int64-extremes": f"{HEADER}\n{2 ** 63 - 1},{-2 ** 63},1.0,2.0,0,3,4.5\n",
    "byte-order-mark": f"\ufeff{HEADER}\n{ROWS}",
    "header-only-crlf": f"{HEADER}\r\n",
    "header-without-newline": HEADER,
    "blank-lines-only": f"{HEADER}\n\n\n",
    "lone-carriage-returns": f"{HEADER}\r1,0,1.0,2.0,0,3,4.5\r2,1,11.0,2.5,0,3,0.25\r",
    "quoted-line-break-in-a-number": f'{HEADER}\n1,0,1.0,2.0,0,3,"4.5\n"\n',
    "nul-in-a-cell": f"{HEADER}\n1,0,1.0\0,2.0,0,3,4.5\n",
}


def canonical(result):
    """A load's points as tuples, floats by float.hex (NaN != NaN), or its error."""
    if isinstance(result, str):
        return result
    return [tuple(v.hex() if isinstance(v, float) else (type(v).__name__, v)
                  for v in (p.id, p.partition_id, p.x, p.y, p.floor, p.category, p.static_score))
            for p in result]


def outcome(load, path):
    try:
        return canonical(load(path))
    except (ValueError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("text", REFERENCE_FILES.values(), ids=REFERENCE_FILES.keys())
def test_objects_csv_reads_what_the_dict_reader_reference_reads(tmp_path, text):
    path = tmp_path / "objects.csv"
    path.write_text(text)
    assert outcome(load_objects_csv, path) == outcome(dict_reader_objects, path)


CELLS = ("0", "1", "7", "-3", "+4", " 3 ", "1_0", "1.0", "2.5", "-0.0", "1e3", "nan", "-inf",
         "Infinity", "inf", "", " ", "x", "#", "1#2", '"5"', '"1,2"', str(2 ** 63 - 1),
         str(2 ** 63), str(-2 ** 63 - 1), "0x10", "\ufeff1", "\0")


@st.composite
def object_files(draw):
    """An objects CSV text from the tokens where numpy and csv with int()
    and float() could part: the header in any order, maybe with an extra
    column or a byte-order mark; cells from CELLS or a row's own index;
    blank, whitespace-only and short lines; LF or CRLF line ends."""
    header = draw(st.permutations(OBJECT_CSV_HEADER))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "note")
    lines = [("\ufeff" if draw(st.integers(0, 9)) == 0 else "") + ",".join(header)]
    for n in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("row", "row", "row", "blank", "space", "short")))
        if kind == "row":
            lines.append(",".join(
                str(n) if draw(st.booleans()) and name in ("id", "partition_id", "floor", "category")
                else draw(st.sampled_from(CELLS)) if draw(st.integers(0, 3)) == 0
                else "2.5" if name in ("x", "y", "static_score") else "0"
                for name in header))
        else:
            lines.append({"blank": "", "space": " ", "short": "1,2"}[kind])
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + draw(st.sampled_from(("", end)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=object_files())
def test_objects_csv_reads_generated_files_as_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("objects") / "objects.csv"
    path.write_bytes(text.encode())
    assert outcome(load_objects_csv, path) == outcome(dict_reader_objects, path)


def test_an_objects_csv_that_does_not_decode_fails_as_the_reference(tmp_path):
    path = tmp_path / "objects.csv"
    for data in (f"{HEADER}\n".encode() + b"1,0,1.0,2.0,0,3,4.\xff\n", b"\xff" + HEADER.encode()):
        path.write_bytes(data)
        assert outcome(load_objects_csv, path) == outcome(dict_reader_objects, path)


def test_a_header_only_objects_csv_loads_empty_without_a_warning(tmp_path):
    path = tmp_path / "objects.csv"
    for text in (f"{HEADER}\n", f"{HEADER}\r\n\r\n", HEADER):
        path.write_text(text)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert load_objects_csv(path) == []
        assert shown == []


def test_loaded_points_are_a_table_and_a_read_only_mapping(tmp_path):
    """The loader returns a PointTable equal to the list of its points,
    with plain Python fields; a venue given it keeps it as a read-only
    mapping by id that builds its points on demand."""
    path = tmp_path / "objects.csv"
    path.write_text(REFERENCE_FILES["shuffled-and-extra"])
    table = load_objects_csv(path)
    assert isinstance(table, PointTable) and len(table) == 2
    want = [IndoorPoint(1, 0, 1.0, 2.0, 0, 3, 4.5), IndoorPoint(2, 1, 11.0, 2.5, 0, 3, 0.25)]
    assert table == want and list(table) == want and table[-1] == want[-1]
    assert [type(v) for v in vars(table[0]).values()] == [int, int, float, float, int, int, float]
    assert table.id.dtype == np.int64 and table.x.dtype == np.float64
    with pytest.raises(ValueError):
        table.x[0] = 5.0
    venue = make_two_room_venue().with_points(table)
    assert venue.points.table is table
    assert isinstance(venue.points, Mapping) and venue.points == {p.id: p for p in want}
    assert list(venue.points) == [1, 2] and 2 in venue.points and 3 not in venue.points
    assert venue.points.get(3) is None and venue.points[2] == want[1]
    with pytest.raises(TypeError):
        venue.points[3] = want[0]


def test_objects_csv_replaces_the_venue_points(tmp_path):
    """load_checked_venue does not merge the CSV's rows with the venue's
    points: an 8-point venue and a 2-row CSV load as the CSV's 2 points."""
    def point(pid, category):
        return IndoorPoint(id=pid, partition_id=pid % 2, x=1.0 + 10 * (pid % 2), y=float(pid),
                           floor=0, category=category, static_score=float(pid))

    venue_path, objects_path = tmp_path / "venue.json", tmp_path / "objects.csv"
    save_venue(make_two_room_venue([point(i, 0) for i in range(8)]), venue_path)
    objects = [point(2, 1), point(9, 1)]
    save_objects_csv(objects, objects_path)
    assert len(load_venue(venue_path).points) == 8
    assert load_checked_venue(venue_path, objects_path).points == {p.id: p for p in objects}


locations = st.builds(Location, coords, coords, small, st.one_of(st.none(), ids))
queries = st.builds(
    TripQuery, locations, locations,
    st.lists(ids, min_size=1, max_size=4, unique=True).map(tuple),
    st.floats(0.0, 1.0),
)


@FUZZ
@given(batch=st.lists(queries, max_size=4))
def test_queries_round_trip(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("queries") / "queries.jsonl"
    save_queries(batch, path)
    assert load_queries(path) == batch


@FUZZ
@given(batch=st.lists(queries, min_size=1, max_size=4), data=st.data())
def test_queries_with_a_bad_cell_raise(tmp_path_factory, batch, data):
    path = tmp_path_factory.mktemp("queries") / "queries.jsonl"
    save_queries(batch, path)
    lines = path.read_text().splitlines()
    n = data.draw(st.integers(0, len(lines) - 1))
    query = json.loads(lines[n])
    where = data.draw(st.sampled_from(("source", "target", "categories", "alpha")))
    if where == "categories":
        cats = query["categories"]
        query["categories"] = data.draw(st.sampled_from(
            ([], cats + cats[:1], [bad_value(data, True)] + cats[1:])))
    elif where == "alpha":
        query["alpha"] = data.draw(st.one_of(bad_values, st.booleans(),
                                             st.sampled_from((-0.5, 1.5))))
    else:
        key = data.draw(st.sampled_from(("x", "y", "floor", "partition_id")))
        if data.draw(st.booleans()) and key != "partition_id":
            del query[where][key]
        else:
            query[where][key] = bad_value(data, key in ("floor", "partition_id"))
    lines[n] = json.dumps(query)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"queries line {n + 1} is malformed"):
        load_queries(path)
