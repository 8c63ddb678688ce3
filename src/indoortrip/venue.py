"""Static indoor world model: partitions, doors, tagged objects.

A venue is a set of axis-aligned partitions (rooms, hallways, stairs)
connected by doors.  Every movable thing in the library (query endpoints,
category objects) is a location inside exactly one partition; stairs are
the only partitions allowed to span two floors.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter, eq, itemgetter
from pathlib import Path

import numpy as np

PARTITION_KINDS = ("room", "hallway", "stairs")

# IndoorPoint's fields: the columns of an objects CSV and of a PointTable.
OBJECT_CSV_HEADER = ["id", "partition_id", "x", "y", "floor", "category", "static_score"]
INTEGER_FIELDS = ("id", "partition_id", "floor", "category")
_COLUMN_TYPES = {name: np.int64 if name in INTEGER_FIELDS else np.float64
                 for name in OBJECT_CSV_HEADER}
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1

# Tolerance of `Partition.contains` and `on_boundary` (meters); the margin
# of `dominance.venue_reach` assumes this one.
BOUNDARY_EPS = 1e-6


@dataclass(frozen=True)
class Location:
    """A position in the venue; partition_id is filled once resolved."""

    x: float
    y: float
    floor: int
    partition_id: int | None = None

    def key(self) -> tuple:
        return (self.x, self.y, self.floor, self.partition_id)


@dataclass(frozen=True)
class Partition:
    id: int
    floor: int
    bounds: tuple[float, float, float, float]  # x_min, y_min, x_max, y_max
    kind: str = "room"
    door_ids: tuple[int, ...] = ()
    floor2: int | None = None  # stairs only; second floor the partition reaches

    @property
    def floors(self) -> tuple[int, ...]:
        if self.floor2 is None or self.floor2 == self.floor:
            return (self.floor,)
        return (self.floor, self.floor2)

    def __post_init__(self):
        x0, y0, x1, y1 = self.bounds  # the diagonal, made once: every patch call reads it
        object.__setattr__(self, "diagonal", math.hypot(x1 - x0, y1 - y0))

    def contains(self, x: float, y: float, floor: int) -> bool:
        x0, y0, x1, y1 = self.bounds
        return (
            floor in self.floors
            and x0 - BOUNDARY_EPS <= x <= x1 + BOUNDARY_EPS
            and y0 - BOUNDARY_EPS <= y <= y1 + BOUNDARY_EPS
        )

    def on_boundary(self, x: float, y: float, floor: int) -> bool:
        if not self.contains(x, y, floor):
            return False
        x0, y0, x1, y1 = self.bounds
        return (
            abs(x - x0) <= BOUNDARY_EPS
            or abs(x - x1) <= BOUNDARY_EPS
            or abs(y - y0) <= BOUNDARY_EPS
            or abs(y - y1) <= BOUNDARY_EPS
        )


@dataclass(frozen=True)
class Door:
    id: int
    x: float
    y: float
    floor: int
    partition_ids: tuple[int, ...]

    @property
    def location(self) -> Location:
        return Location(self.x, self.y, self.floor)


@dataclass(frozen=True)
class IndoorPoint:
    """A category-tagged object with an additive static score."""

    id: int
    partition_id: int
    x: float
    y: float
    floor: int
    category: int
    static_score: float

    @property
    def location(self) -> Location:
        return Location(self.x, self.y, self.floor, self.partition_id)


def fits_int64(value: int) -> bool:
    """Whether an int64 column can hold the integer."""
    return _INT64_MIN <= value <= _INT64_MAX


def _int64_finding(point: IndoorPoint) -> str | None:
    """The point's first integer field outside int64, as a message, if any."""
    name = next((name for name in INTEGER_FIELDS if not fits_int64(getattr(point, name))), None)
    return name and f"point {point.id} has {name} {getattr(point, name)} outside the int64 range"


class PointTable(Sequence):
    """Points as read-only numpy columns, one row per point, named as
    `IndoorPoint`'s fields: id, partition_id, floor and category int64,
    x, y and static_score float64.

    It is the sequence of its rows' points, equal to their list: indexing
    or iterating builds each point from the columns, with Python int and
    float fields.  No two rows share an id: ValueError names a repeated one."""

    def __init__(self, columns: dict[str, np.ndarray]):
        for name in OBJECT_CSV_HEADER:
            column = np.ascontiguousarray(columns[name], dtype=_COLUMN_TYPES[name])
            column.flags.writeable = False
            setattr(self, name, column)
        ids = np.sort(self.id)
        if (same := ids[1:] == ids[:-1]).any():
            raise ValueError(f"point id {ids[1:][same].item(0)} is repeated")
        self._row_of: dict[int, int] | None = None  # id -> row, made on first lookup

    @classmethod
    def of(cls, points: Iterable[IndoorPoint]) -> "PointTable":
        """The points' table, in their order.  Raises ValueError naming a
        point with an integer field outside int64 or a repeated id."""
        points = tuple(points)
        try:
            columns = {name: np.fromiter(map(attrgetter(name), points), _COLUMN_TYPES[name],
                                         len(points)) for name in OBJECT_CSV_HEADER}
        except OverflowError:
            raise ValueError(next(filter(None, map(_int64_finding, points)))) from None
        return cls(columns)

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, row: int) -> IndoorPoint:
        return IndoorPoint(*(getattr(self, name).item(row) for name in OBJECT_CSV_HEADER))

    def __iter__(self):
        return iter(self.points(np.arange(len(self))))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None

    def points(self, rows: np.ndarray) -> list[IndoorPoint]:
        """The points of the given rows, in their order."""
        return list(map(IndoorPoint, *(getattr(self, name)[rows].tolist()
                                       for name in OBJECT_CSV_HEADER)))

    @cached_property
    def coordinates(self) -> tuple[list[float], list[float], list[int]]:
        """The x, y and floor columns as lists, for reading a few rows at a time."""
        return self.x.tolist(), self.y.tolist(), self.floor.tolist()

    def row_of(self, point_id: int) -> int:
        """The row of the point with this id; KeyError if none has it."""
        if self._row_of is None:
            self._row_of = dict(zip(self.id.tolist(), range(len(self))))
        return self._row_of[point_id]


class PointMapping(Mapping):
    """A table's points by id, in row order: every venue's read-only
    `Venue.points`.  It builds a point only when asked."""

    def __init__(self, table: PointTable):
        self.table = table

    def __getitem__(self, point_id) -> IndoorPoint:
        return self.table[self.table.row_of(point_id)]

    def __iter__(self):
        return iter(self.table.id.tolist())

    def __len__(self) -> int:
        return len(self.table)


_NO_POINTS = PointTable.of(())  # the table of every venue not given one or any point

_HOLDS_NOTHING = (math.nan,) * 4 + (0, 0)


def _holds(part: Partition | None) -> tuple:
    """The partition's bounds widened by `BOUNDARY_EPS` and the floors an
    int64 point floor can be on (the one floor twice if only one is), or
    NaN bounds if none can."""
    floors = [f for f in part.floors if fits_int64(f)] if part else ()
    if not floors:
        return _HOLDS_NOTHING
    x0, y0, x1, y1 = part.bounds
    return (x0 - BOUNDARY_EPS, y0 - BOUNDARY_EPS, x1 + BOUNDARY_EPS, y1 + BOUNDARY_EPS,
            floors[0], floors[-1])


def point_partitions(venue: "Venue", table: PointTable
                     ) -> tuple[list[Partition | None], np.ndarray, np.ndarray]:
    """The distinct partitions the table's rows name, by id (None for an
    id the venue lacks); each row's index into them; and whether each
    row's partition holds it at finite coordinates, as `Venue.partition_of`
    checks it: `Partition.contains`'s float comparisons, vectorised, one
    column per bound."""
    ids = np.sort(table.partition_id)
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    ids = ids[first]
    at = ids.searchsorted(table.partition_id)
    parts = [venue.partitions.get(pid) for pid in ids.tolist()]
    columns = list(zip(*map(_holds, parts))) or [()] * 6
    x0, y0, x1, y1 = (np.array(c, dtype=float)[at] for c in columns[:4])
    low, high = (np.array(c, dtype=np.int64)[at] for c in columns[4:])
    x, y, floor = table.x, table.y, table.floor
    held = (np.isfinite(x) & np.isfinite(y) & ((floor == low) | (floor == high))
            & (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
    return parts, at, held


def breadth_first(adjacent: Mapping[int, set[int]]) -> list[list[int]]:
    """One walk per connected component, by smallest node, each breadth-first
    from it with neighbours in ascending order; a node may neighbour itself."""
    seen, walks = set(), []
    for start in sorted(adjacent):
        if start not in seen:
            seen.add(start)
            walks.append(queue := [start])
            for node in queue:
                queue += sorted(adjacent[node] - seen)
                seen |= adjacent[node]
    return walks


@dataclass
class Venue:
    """Partitions and doors by id, and the points, given as a dict by id,
    a sequence or a `PointTable` and kept as one table's read-only
    `PointMapping` (ValueError naming a point `PointTable.of` refuses)."""

    partitions: dict[int, Partition]
    doors: dict[int, Door]
    points: PointMapping = field(default_factory=dict)
    categories: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        points = self.points.values() if isinstance(self.points, dict) else self.points
        if not isinstance(points, PointMapping):
            self.points = PointMapping(points if isinstance(points, PointTable)
                                       else PointTable.of(points) if points else _NO_POINTS)

    def partition_doors(self, partition_id: int) -> list[Door]:
        return [self.doors[d] for d in self.partitions[partition_id].door_ids]

    def partition_of(self, loc: Location | IndoorPoint) -> Partition:
        """The partition loc names, which must hold it at finite coordinates;
        otherwise a ValueError names the partition."""
        part = self.partitions.get(loc.partition_id)
        if part is None:
            raise ValueError(f"location references unknown partition {loc.partition_id}")
        if not (math.isfinite(loc.x) and math.isfinite(loc.y)):
            raise ValueError(f"location in partition {part.id} has non-finite coordinates ({loc.x}, {loc.y})")
        if not part.contains(loc.x, loc.y, loc.floor):
            raise ValueError(f"location ({loc.x}, {loc.y}, floor {loc.floor}) lies outside its partition {part.id}")
        return part

    def resolve(self, loc: Location) -> Location:
        """Attach a partition id to a location; smallest id wins on overlap.
        A location that names its partition is checked by `partition_of`."""
        if loc.partition_id is not None:
            self.partition_of(loc)
            return loc
        for pid, part in self._on_floor.get(loc.floor, ()):
            if part.contains(loc.x, loc.y, loc.floor):
                return replace(loc, partition_id=pid)
        raise ValueError(f"location ({loc.x}, {loc.y}, floor {loc.floor}) is outside all partitions")

    @cached_property
    def _on_floor(self) -> dict[int, list[tuple[int, Partition]]]:
        """Each floor's partitions, by id: what `resolve` scans, sorted once
        (the partitions are not to change once a location is resolved)."""
        on_floor: dict[int, list[tuple[int, Partition]]] = {}
        for pid in sorted(self.partitions):
            for floor in self.partitions[pid].floors:
                on_floor.setdefault(floor, []).append((pid, self.partitions[pid]))
        return on_floor

    def components(self) -> list[list[int]]:
        """Connected components of the partitions through shared doors, as
        `breadth_first` walks them; a door joins the known partitions it names."""
        adj: dict[int, set[int]] = {pid: set() for pid in self.partitions}
        for door in self.doors.values():
            ids = [p for p in door.partition_ids if p in adj]
            for a in ids:
                adj[a].update(ids)
        return breadth_first(adj)

    def with_points(self, points: PointTable | Iterable[IndoorPoint]) -> "Venue":
        """This venue with the given points, kept as `Venue` keeps them."""
        return replace(self, points=points, categories=dict(self.categories))


def intra_distance(partition: Partition, a: Location | IndoorPoint | Door,
                   b: Location | IndoorPoint | Door) -> float:
    """Distance between two locations inside one partition.

    Same floor: straight line (partitions are obstacle-free rectangles).
    Different floors (stairs only): the partition's fixed traversal
    length, taken to be the diagonal of its footprint.
    """
    if a.floor == b.floor:
        return math.hypot(a.x - b.x, a.y - b.y)
    return partition.diagonal


@dataclass(frozen=True)
class Finding:
    code: str
    message: str


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code: str, message: str) -> None:
        self.findings.append(Finding(code, message))

    def codes(self) -> list[str]:
        return [f.code for f in self.findings]


def validate_venue(venue: Venue) -> ValidationReport:
    """Collect every invariant violation; an empty report means valid.  Door
    distances are undefined in every partition outside the first of
    `Venue.components()`: each is "disconnected"."""
    report = ValidationReport()

    isfinite = math.isfinite
    # Nothing can be placed in a partition without finite bounds.
    unbounded = {p.id for p in venue.partitions.values() if not all(map(isfinite, p.bounds))}
    for part in venue.partitions.values():
        x0, y0, x1, y1 = part.bounds
        if part.id in unbounded:
            report.add("non-finite coordinates", f"partition {part.id} has bounds {part.bounds}")
        elif x1 <= x0 or y1 <= y0:
            report.add("degenerate bounds", f"partition {part.id} has non-positive area")
        if part.kind not in PARTITION_KINDS:
            report.add("unknown kind", f"partition {part.id} kind {part.kind!r}")
        if part.kind != "stairs" and part.floor2 not in (None, part.floor):
            report.add("floor span", f"non-stairs partition {part.id} spans two floors")
        if not part.door_ids:
            report.add("no doors", f"partition {part.id} has no doors")
        if len(set(part.door_ids)) < len(part.door_ids):
            report.add("duplicate listing", f"partition {part.id} lists a door twice: {part.door_ids}")
        for did in part.door_ids:
            if did not in venue.doors:
                report.add("dangling reference", f"partition {part.id} lists unknown door {did}")

    for door in venue.doors.values():
        if len(door.partition_ids) not in (1, 2):
            report.add("door arity", f"door {door.id} connects {len(door.partition_ids)} partitions")
        if len(set(door.partition_ids)) < len(door.partition_ids):
            report.add("duplicate listing", f"door {door.id} names a partition twice: {door.partition_ids}")
        finite = isfinite(door.x) and isfinite(door.y)
        if not finite:
            report.add("non-finite coordinates", f"door {door.id} sits at ({door.x}, {door.y})")
        for pid in door.partition_ids:
            part = venue.partitions.get(pid)
            if part is None:
                report.add("dangling reference", f"door {door.id} references unknown partition {pid}")
            elif finite and pid not in unbounded and not part.on_boundary(door.x, door.y, door.floor):
                report.add(
                    "door placement",
                    f"door {door.id} is not on the boundary of partition {pid}",
                )
            elif door.id not in part.door_ids:
                report.add("door listing", f"partition {pid} does not list door {door.id}")

    table = venue.points.table
    # Each point with a finding is one its partition does not hold or one with a bad score.
    held = point_partitions(venue, table)[2]
    score = table.static_score
    for row in np.flatnonzero(~held | ~np.isfinite(score) | (score < 0)).tolist():
        point = table[row]
        part = venue.partitions.get(point.partition_id)
        if part is None:
            report.add("dangling reference", f"point {point.id} references unknown partition {point.partition_id}")
        elif not isfinite(point.x) or not isfinite(point.y):
            report.add("non-finite coordinates", f"point {point.id} sits at ({point.x}, {point.y})")
        elif part.id not in unbounded and not part.contains(point.x, point.y, point.floor):
            report.add("point outside bounds", f"point {point.id} lies outside partition {part.id}")
        if not math.isfinite(point.static_score):
            report.add("non-finite score", f"point {point.id} has static score {point.static_score}")
        elif point.static_score < 0:
            report.add("negative score", f"point {point.id} has static score {point.static_score}")

    components = venue.components()
    for pid in sorted(pid for part in components[1:] for pid in part):
        report.add("disconnected", f"partition {pid} is unreachable from partition {components[0][0]}")

    return report


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def venue_to_dict(venue: Venue) -> dict:
    parts = []
    for part in sorted(venue.partitions.values(), key=lambda p: p.id):
        entry = {
            "id": part.id,
            "floor": part.floor,
            "bounds": [float(v) for v in part.bounds],
            "kind": part.kind,
            "door_ids": list(part.door_ids),
        }
        if part.floor2 is not None and part.floor2 != part.floor:
            entry["floor2"] = part.floor2
        parts.append(entry)
    doors = [
        {"id": d.id, "x": float(d.x), "y": float(d.y), "floor": d.floor,
         "partition_ids": list(d.partition_ids)}
        for d in sorted(venue.doors.values(), key=lambda d: d.id)
    ]
    points = [
        {
            "id": p.id,
            "partition_id": p.partition_id,
            "x": float(p.x),
            "y": float(p.y),
            "floor": p.floor,
            "category": p.category,
            "static_score": float(p.static_score),
        }
        for p in sorted(venue.points.values(), key=lambda p: p.id)
    ]
    categories = [
        {"id": cid, "name": venue.categories[cid]} for cid in sorted(venue.categories)
    ]
    return {"partitions": parts, "doors": doors, "points": points, "categories": categories}


def as_int(value) -> int:
    """An integer field of a venue or query file, refusing what int()
    would truncate: a bool or a non-integral float."""
    if type(value) is int:  # the common case, and faster than int()
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """A float field of a venue or query file, refusing a bool, which
    float() would read as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _partition_entry(entry: dict) -> Partition:
    bounds = tuple(as_float(v) for v in entry["bounds"])
    if len(bounds) != 4:
        raise ValueError(f"bounds need 4 numbers, got {len(bounds)}")
    return Partition(
        id=as_int(entry["id"]),
        floor=as_int(entry["floor"]),
        bounds=bounds,
        kind=entry.get("kind", "room"),
        door_ids=tuple(as_int(d) for d in entry.get("door_ids", [])),
        floor2=as_int(entry["floor2"]) if "floor2" in entry else None,
    )


def _door_entry(entry: dict) -> Door:
    return Door(
        id=as_int(entry["id"]),
        x=as_float(entry["x"]),
        y=as_float(entry["y"]),
        floor=as_int(entry["floor"]),
        partition_ids=tuple(as_int(p) for p in entry["partition_ids"]),
    )


def _point_entry(entry: dict) -> IndoorPoint:
    return IndoorPoint(
        id=as_int(entry["id"]),
        partition_id=as_int(entry["partition_id"]),
        x=as_float(entry["x"]),
        y=as_float(entry["y"]),
        floor=as_int(entry["floor"]),
        category=as_int(entry["category"]),
        static_score=as_float(entry["static_score"]),
    )


def _category_entry(entry) -> tuple[int, str]:
    if isinstance(entry, dict):
        return as_int(entry["id"]), str(entry.get("name", entry["id"]))
    return as_int(entry), str(entry)


def _entries(data: dict, section: str, noun: str, parse) -> dict:
    """{id: value} of one section; parse gives an object with an `id` or an
    (id, value) pair.  A malformed entry or a repeated id raises ValueError
    naming it."""
    out = {}
    for n, entry in enumerate(data.get(section, [])):
        try:
            got = parse(entry)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"venue JSON {section} entry {n} is malformed: {exc!r}") from None
        key, value = got if isinstance(got, tuple) else (got.id, got)
        if key in out:
            raise ValueError(f"venue JSON repeats {noun} id {key}")
        out[key] = value
    return out


def venue_from_dict(data: dict) -> Venue:
    """The venue a `venue_to_dict` mapping describes.

    Raises ValueError naming the entry when one is malformed or repeats
    the id of an earlier entry of its section.
    """
    if not isinstance(data, dict):
        raise ValueError(f"venue JSON must be an object, got {type(data).__name__}")
    return Venue(
        partitions=_entries(data, "partitions", "partition", _partition_entry),
        doors=_entries(data, "doors", "door", _door_entry),
        points=_entries(data, "points", "point", _point_entry),
        categories=_entries(data, "categories", "category", _category_entry),
    )


def save_venue(venue: Venue, path: str | Path) -> None:
    Path(path).write_text(json.dumps(venue_to_dict(venue), indent=1, sort_keys=True) + "\n")


def load_venue(path: str | Path) -> Venue:
    return venue_from_dict(json.loads(Path(path).read_text()))


def save_objects_csv(points: Iterable[IndoorPoint], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBJECT_CSV_HEADER)
        for p in sorted(points, key=lambda p: p.id):
            writer.writerow([p.id, p.partition_id, repr(p.x), repr(p.y), p.floor, p.category, repr(p.static_score)])


def load_objects_csv(path: str | Path) -> PointTable:
    """An objects CSV's points in file order, as a table; columns are found
    by header name (extra ones ignored, the last of a repeated name wins)
    and blank lines skipped.  Cells are strings, which int() parses
    strictly; an integer outside int64 is refused.  Raises ValueError on a
    missing column, or naming the line of a row with too many or too few
    cells, a non-numeric or out-of-range cell or a repeated id.

    One `np.loadtxt` pass parses the file; where it could read the file
    otherwise than `csv` and int()/float(), or fails, the file is read
    again row by row (`_read_objects_csv`), which words every error."""
    with open(path, newline="") as fh:
        table = _parse_objects_csv(fh)
    return table if table is not None else _read_objects_csv(path)


def _parse_objects_csv(fh) -> PointTable | None:
    """The points of an objects CSV open as text, from one `np.loadtxt`
    pass, or None where the row reader must decide: a first line that is
    not the seven columns once each, no data, text numpy refuses or a
    repeated id.  Every column is numeric, so numpy refuses any quote or
    NUL; otherwise `csv` splits rows and cells as numpy does, both strip
    a number's surrounding whitespace, numpy refuses a short, long or
    whitespace-only row, and it reads no number that int() and float()
    refuse."""
    try:
        header = fh.readline().rstrip("\r\n").split(",")
        if sorted(header) != sorted(OBJECT_CSV_HEADER):
            return None
        dtype = np.dtype([(name, _COLUMN_TYPES[name]) for name in header])
        # Any warning refuses the text too: np.loadtxt warns on input without
        # data, and older numpy reads "1.0" in an integer column with a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        return PointTable({name: parsed[name] for name in OBJECT_CSV_HEADER})
    except (ValueError, OverflowError, Warning):  # a UnicodeDecodeError or a repeated id too
        return None


def _read_objects_csv(path: str | Path) -> PointTable:
    """`load_objects_csv` row by row, with `csv` and int()/float()."""
    points = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(OBJECT_CSV_HEADER) - set(header)
        if missing:
            raise ValueError(f"object CSV is missing columns: {sorted(missing)}")
        position = {name: i for i, name in enumerate(header)}
        cells = itemgetter(*(position[name] for name in OBJECT_CSV_HEADER))
        width = len(header)
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"{'more' if len(row) > width else 'fewer'} cells than the header has")
                pid, part, x, y, floor, category, score = cells(row)
                point = IndoorPoint(int(pid), int(part), float(x), float(y), int(floor),
                                    int(category), float(score))
                if message := _int64_finding(point):
                    raise ValueError(message)
            except ValueError as exc:
                raise ValueError(f"object CSV line {reader.line_num} is malformed: {exc}") from None
            if point.id in seen:
                raise ValueError(f"object CSV line {reader.line_num} repeats id {point.id}")
            seen.add(point.id)
            points.append(point)
    return PointTable.of(points)


def load_checked_venue(venue_path: str | Path, objects_path: str | Path | None = None) -> Venue:
    """Load a venue, its points replaced by the objects CSV's rows if given, and validate it.

    Raises ValueError naming the first five findings of a failed validation.
    """
    venue = load_venue(venue_path)
    if objects_path:
        venue = venue.with_points(load_objects_csv(objects_path))
    report = validate_venue(venue)
    if not report.ok:
        raise ValueError(f"venue failed validation: {[f.message for f in report.findings[:5]]}")
    return venue
