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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

PARTITION_KINDS = ("room", "hallway", "stairs")

OBJECT_CSV_HEADER = ["id", "partition_id", "x", "y", "floor", "category", "static_score"]

# Tolerance for "door sits on the partition boundary" checks (meters).
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

    @property
    def diagonal(self) -> float:
        x0, y0, x1, y1 = self.bounds
        return math.hypot(x1 - x0, y1 - y0)

    def contains(self, x: float, y: float, floor: int, eps: float = BOUNDARY_EPS) -> bool:
        x0, y0, x1, y1 = self.bounds
        return (
            floor in self.floors
            and x0 - eps <= x <= x1 + eps
            and y0 - eps <= y <= y1 + eps
        )

    def on_boundary(self, x: float, y: float, floor: int, eps: float = BOUNDARY_EPS) -> bool:
        if not self.contains(x, y, floor, eps):
            return False
        x0, y0, x1, y1 = self.bounds
        return (
            abs(x - x0) <= eps
            or abs(x - x1) <= eps
            or abs(y - y0) <= eps
            or abs(y - y1) <= eps
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


@dataclass
class Venue:
    partitions: dict[int, Partition]
    doors: dict[int, Door]
    points: dict[int, IndoorPoint] = field(default_factory=dict)
    categories: dict[int, str] = field(default_factory=dict)

    def partition_doors(self, partition_id: int) -> list[Door]:
        return [self.doors[d] for d in self.partitions[partition_id].door_ids]

    def points_of_category(self, category: int) -> list[IndoorPoint]:
        return sorted(
            (p for p in self.points.values() if p.category == category),
            key=lambda p: p.id,
        )

    def category_ids(self) -> list[int]:
        seen = set(self.categories)
        seen.update(p.category for p in self.points.values())
        return sorted(seen)

    def resolve(self, loc: Location) -> Location:
        """Attach a partition id to a location; smallest id wins on overlap."""
        if loc.partition_id is not None:
            if loc.partition_id not in self.partitions:
                raise ValueError(f"location references unknown partition {loc.partition_id}")
            return loc
        for pid in sorted(self.partitions):
            if self.partitions[pid].contains(loc.x, loc.y, loc.floor):
                return replace(loc, partition_id=pid)
        raise ValueError(f"location ({loc.x}, {loc.y}, floor {loc.floor}) is outside all partitions")

    def adjacency(self) -> dict[int, set[int]]:
        """Partition adjacency through shared doors."""
        adj: dict[int, set[int]] = {pid: set() for pid in self.partitions}
        for door in self.doors.values():
            ids = [p for p in door.partition_ids if p in self.partitions]
            for a in ids:
                for b in ids:
                    if a != b:
                        adj[a].add(b)
        return adj

    def with_points(self, points: Iterable[IndoorPoint]) -> "Venue":
        return Venue(
            partitions=self.partitions,
            doors=self.doors,
            points={p.id: p for p in points},
            categories=dict(self.categories),
        )


def intra_distance(partition: Partition, a: Location, b: Location) -> float:
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
    """Collect every invariant violation; an empty report means valid."""
    report = ValidationReport()

    for part in venue.partitions.values():
        x0, y0, x1, y1 = part.bounds
        if x1 <= x0 or y1 <= y0:
            report.add("degenerate bounds", f"partition {part.id} has non-positive area")
        if part.kind not in PARTITION_KINDS:
            report.add("unknown kind", f"partition {part.id} kind {part.kind!r}")
        if part.kind != "stairs" and part.floor2 not in (None, part.floor):
            report.add("floor span", f"non-stairs partition {part.id} spans two floors")
        if not part.door_ids:
            report.add("no doors", f"partition {part.id} has no doors")
        for did in part.door_ids:
            if did not in venue.doors:
                report.add("dangling reference", f"partition {part.id} lists unknown door {did}")

    for door in venue.doors.values():
        if len(door.partition_ids) not in (1, 2):
            report.add("door arity", f"door {door.id} connects {len(door.partition_ids)} partitions")
        for pid in door.partition_ids:
            part = venue.partitions.get(pid)
            if part is None:
                report.add("dangling reference", f"door {door.id} references unknown partition {pid}")
            elif not part.on_boundary(door.x, door.y, door.floor):
                report.add(
                    "door placement",
                    f"door {door.id} is not on the boundary of partition {pid}",
                )
            elif door.id not in part.door_ids:
                report.add("door listing", f"partition {pid} does not list door {door.id}")

    for point in venue.points.values():
        part = venue.partitions.get(point.partition_id)
        if part is None:
            report.add("dangling reference", f"point {point.id} references unknown partition {point.partition_id}")
        elif not part.contains(point.x, point.y, point.floor):
            report.add("point outside bounds", f"point {point.id} lies outside partition {part.id}")
        if not math.isfinite(point.static_score):
            report.add("non-finite score", f"point {point.id} has static score {point.static_score}")
        elif point.static_score < 0:
            report.add("negative score", f"point {point.id} has static score {point.static_score}")

    # Connectivity over the partition adjacency; unreachable partitions make
    # door-graph distances undefined.
    if venue.partitions:
        adj = venue.adjacency()
        start = min(venue.partitions)
        seen = {start}
        stack = [start]
        while stack:
            for other in adj[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        for pid in sorted(set(venue.partitions) - seen):
            report.add("disconnected", f"partition {pid} is unreachable from partition {start}")

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


def venue_from_dict(data: dict) -> Venue:
    partitions = {}
    for entry in data.get("partitions", []):
        partitions[int(entry["id"])] = Partition(
            id=int(entry["id"]),
            floor=int(entry["floor"]),
            bounds=tuple(float(v) for v in entry["bounds"]),
            kind=entry.get("kind", "room"),
            door_ids=tuple(int(d) for d in entry.get("door_ids", [])),
            floor2=int(entry["floor2"]) if "floor2" in entry else None,
        )
    doors = {}
    for entry in data.get("doors", []):
        doors[int(entry["id"])] = Door(
            id=int(entry["id"]),
            x=float(entry["x"]),
            y=float(entry["y"]),
            floor=int(entry["floor"]),
            partition_ids=tuple(int(p) for p in entry["partition_ids"]),
        )
    points = {}
    for entry in data.get("points", []):
        points[int(entry["id"])] = IndoorPoint(
            id=int(entry["id"]),
            partition_id=int(entry["partition_id"]),
            x=float(entry["x"]),
            y=float(entry["y"]),
            floor=int(entry["floor"]),
            category=int(entry["category"]),
            static_score=float(entry["static_score"]),
        )
    categories = {}
    for entry in data.get("categories", []):
        if isinstance(entry, dict):
            categories[int(entry["id"])] = str(entry.get("name", entry["id"]))
        else:
            categories[int(entry)] = str(entry)
    return Venue(partitions=partitions, doors=doors, points=points, categories=categories)


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


def load_objects_csv(path: str | Path) -> list[IndoorPoint]:
    points = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(OBJECT_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"object CSV is missing columns: {sorted(missing)}")
        for row in reader:
            pid = int(row["id"])
            if pid in seen:
                raise ValueError(f"object CSV repeats id {pid}")
            seen.add(pid)
            points.append(
                IndoorPoint(
                    id=pid,
                    partition_id=int(row["partition_id"]),
                    x=float(row["x"]),
                    y=float(row["y"]),
                    floor=int(row["floor"]),
                    category=int(row["category"]),
                    static_score=float(row["static_score"]),
                )
            )
    return points


def load_checked_venue(venue_path: str | Path, objects_path: str | Path | None = None) -> Venue:
    """Load a venue, add the objects CSV if given, and validate the result.

    Raises ValueError naming the first five findings of a failed validation.
    """
    venue = load_venue(venue_path)
    if objects_path:
        venue = venue.with_points(load_objects_csv(objects_path))
    report = validate_venue(venue)
    if not report.ok:
        raise ValueError(f"venue failed validation: {[f.message for f in report.findings[:5]]}")
    return venue
