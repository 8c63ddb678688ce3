"""Deterministic synthetic venues, object placements, and query sets.

Venues are grids of rooms along per-floor hallways, with stairs linking
consecutive floors.  Objects land inside a small set of host rooms per
category (stores carry their categories together), or uniformly across
all rooms when clustering is disabled.  Every stage draws from its own
Mersenne Twister stream derived from the master seed, so a (spec, seed)
pair reproduces the same files byte for byte anywhere.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .d2d import build_d2d_graph
from .routing import Location, TripQuery
from .venue import Door, IndoorPoint, Partition, Venue

# Footprint constants (meters).
ROOM_W = 8.0
ROOM_D = 8.0
HALL_D = 4.0
STAIR_W = 4.0

# Reference objects-per-category ranges at full scale, closed on both ends.
BUCKET_RANGES = {
    "XS": (80, 120),
    "S": (450, 550),
    "M": (950, 1050),
    "L": (1450, 1550),
    "XL": (1950, 2050),
}

DESK_SCALE = 0.1


def scaled_bucket_ranges(scale: float = 1.0) -> dict[str, tuple[int, int]]:
    return {
        name: (max(1, int(round(lo * scale))), max(1, int(round(hi * scale))))
        for name, (lo, hi) in BUCKET_RANGES.items()
    }


def stream(seed: int, stage: str) -> random.Random:
    """Independent, platform-stable RNG stream for one generation stage."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class WorkloadSpec:
    seed: int = 0
    floors: int = 4
    rooms_per_floor: int = 12
    doors_per_room: int = 1
    categories: int = 8
    bucket: str = "M"
    bucket_scale: float = DESK_SCALE
    count_range: tuple[int, int] | None = None  # overrides the bucket range
    store_rooms: int = 8                        # rooms that carry objects at all
    hosts_per_category: int | None = 3          # None places uniformly over all rooms
    query_count: int = 50
    query_categories: tuple[int, ...] = (2, 3, 4)  # cycled over queries
    alpha: float = 0.5

    def __post_init__(self):
        if self.floors < 1 or self.rooms_per_floor < 1:
            raise ValueError("floors and rooms per floor must be positive")
        if self.doors_per_room < 1:
            raise ValueError("rooms need at least one door")
        if self.categories < 1:
            raise ValueError("need at least one category")
        if self.bucket not in BUCKET_RANGES:
            raise ValueError(f"unknown bucket {self.bucket!r}")
        if self.count_range is not None and not 0 <= self.count_range[0] <= self.count_range[1]:
            raise ValueError(f"count range must have 0 <= lo <= hi, got {self.count_range}")
        hosts = self.hosts_per_category
        if hosts is not None and hosts < 1:
            raise ValueError(f"hosts per category must be at least 1, got {hosts}")
        if hosts is not None and self.store_rooms < 1:
            raise ValueError(f"clustered placement needs at least 1 store room, got {self.store_rooms}")
        if isinstance(self.query_categories, int):
            self.query_categories = (self.query_categories,)

    def object_count_range(self) -> tuple[int, int]:
        if self.count_range is not None:
            return self.count_range
        return scaled_bucket_ranges(self.bucket_scale)[self.bucket]


def _layout(spec: WorkloadSpec) -> tuple[list[dict], list[Door]]:
    """Each partition's fields but its door list, and each door, both in id
    order: per floor its hallway then its rooms, then the stairs."""
    parts: list[dict] = []
    doors: list[Door] = []  # a door's id is its position
    if spec.floors == 1 and spec.rooms_per_floor == 1:
        # Degenerate single-room venue: one partition, one exterior door.
        parts.append(dict(floor=0, bounds=(0.0, 0.0, ROOM_W, ROOM_D), kind="room"))
        doors.append(Door(0, ROOM_W / 2.0, 0.0, 0, (0,)))
        return parts, doors

    north = math.ceil(spec.rooms_per_floor / 2)
    south = spec.rooms_per_floor - north
    width = north * ROOM_W

    hall_ids: list[int] = []
    for floor in range(spec.floors):
        hall_id = len(parts)
        hall_ids.append(hall_id)
        parts.append(dict(floor=floor, bounds=(0.0, 0.0, width, HALL_D), kind="hallway"))

        room_specs = [(i, True) for i in range(north)] + [(i, False) for i in range(south)]
        for i, is_north in room_specs:
            room_id = len(parts)
            x0 = i * ROOM_W
            if is_north:
                bounds = (x0, HALL_D, x0 + ROOM_W, HALL_D + ROOM_D)
                door_y = HALL_D
            else:
                bounds = (x0, -ROOM_D, x0 + ROOM_W, 0.0)
                door_y = 0.0
            parts.append(dict(floor=floor, bounds=bounds, kind="room"))
            for j in range(spec.doors_per_room):
                door_x = x0 + ROOM_W * (j + 1) / (spec.doors_per_room + 1)
                doors.append(Door(len(doors), door_x, door_y, floor, (hall_id, room_id)))

    for floor in range(spec.floors - 1):
        stairs_id = len(parts)
        east = floor % 2 == 0
        bounds = (width, 0.0, width + STAIR_W, HALL_D) if east else (-STAIR_W, 0.0, 0.0, HALL_D)
        parts.append(dict(floor=floor, bounds=bounds, kind="stairs", floor2=floor + 1))
        for f in (floor, floor + 1):
            doors.append(Door(len(doors), width if east else 0.0, HALL_D / 2.0, f,
                              (hall_ids[f], stairs_id)))
    return parts, doors


def generate_venue(spec: WorkloadSpec) -> Venue:
    """Grid-of-rooms floors on a hallway spine, stairs between floors.  A
    partition lists the doors that name it, in ascending id order."""
    parts, doors = _layout(spec)
    door_ids: list[list[int]] = [[] for _ in parts]
    for d in doors:
        for pid in d.partition_ids:
            door_ids[pid].append(d.id)
    return Venue(
        partitions={pid: Partition(id=pid, door_ids=tuple(door_ids[pid]), **fields)
                    for pid, fields in enumerate(parts)},
        doors={d.id: d for d in doors},
        categories={i: f"cat-{i}" for i in range(spec.categories)},
    )


def venue_diameter(venue: Venue) -> float:
    """Largest door-to-door distance; static scores share this scale."""
    diameter = float(build_d2d_graph(venue).matrix.max(initial=0.0))
    if diameter <= 0.0:
        xs = [b for p in venue.partitions.values() for b in (p.bounds[0], p.bounds[2])]
        ys = [b for p in venue.partitions.values() for b in (p.bounds[1], p.bounds[3])]
        diameter = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return diameter


def room_ids(venue: Venue) -> list[int]:
    return sorted(p.id for p in venue.partitions.values() if p.kind == "room")


def random_location(rng: random.Random, venue: Venue, rooms: list[int]) -> Location:
    """A spot drawn uniformly in a room drawn from rooms: the room, then x,
    then y.  Every object placement and query end is drawn this way."""
    pid = rng.choice(rooms)
    part = venue.partitions[pid]
    x0, y0, x1, y1 = part.bounds
    return Location(
        x=rng.uniform(x0, x1), y=rng.uniform(y0, y1), floor=part.floor, partition_id=pid
    )


def place_objects(venue: Venue, spec: WorkloadSpec) -> list[IndoorPoint]:
    """Per-category object counts from the bucket range, placed inside the
    category's host stores; scores uniform on [0, venue diameter].  A
    point's id is its position in the list.

    Objects live in a shared pool of store rooms so that categories
    co-occur inside partitions, the way products share retail outlets.
    hosts_per_category=None disables clustering and scatters objects
    uniformly over every room.
    """
    rng = stream(spec.seed, "objects")
    rooms = room_ids(venue)
    stores = sorted(rng.sample(rooms, min(spec.store_rooms, len(rooms))))
    lo, hi = spec.object_count_range()
    score_scale = venue_diameter(venue)

    points: list[IndoorPoint] = []
    for cat in range(spec.categories):
        count = rng.randint(lo, hi)
        if spec.hosts_per_category is None:
            hosts = rooms
        else:
            hosts = sorted(rng.sample(stores, min(spec.hosts_per_category, len(stores))))
        for _ in range(count):
            at = random_location(rng, venue, hosts)
            points.append(IndoorPoint(len(points), at.partition_id, at.x, at.y, at.floor, cat,
                                      rng.uniform(0.0, score_scale)))
    return points


def bucket_categories(points, scale: float = 1.0) -> dict[str, list[int]]:
    """Map bucket labels to the categories whose counts fall in range."""
    counts: dict[int, int] = {}
    for p in points:
        counts[p.category] = counts.get(p.category, 0) + 1
    ranges = scaled_bucket_ranges(scale)
    buckets: dict[str, list[int]] = {name: [] for name in ranges}
    for cat in sorted(counts):
        for name, (lo, hi) in ranges.items():
            if lo <= counts[cat] <= hi:
                buckets[name].append(cat)
                break
    return buckets


def generate_queries(categories: list[int], count: int, m, alpha: float,
                     venue: Venue, seed: int) -> list[TripQuery]:
    """Uniform random source/target plus m distinct categories per query."""
    sizes = (m,) if isinstance(m, int) else tuple(m)
    if count < 0:
        raise ValueError(f"query count must be at least 0, got {count}")
    if not sizes or min(sizes) < 1:
        raise ValueError(f"categories per query must each be at least 1, got {m}")
    if max(sizes) > len(categories):
        raise ValueError(
            f"cannot draw {max(sizes)} categories from a pool of {len(categories)}"
        )
    rng = stream(seed, "queries")
    rooms = room_ids(venue)
    queries = []
    for i in range(count):
        size = sizes[i % len(sizes)]
        cats = tuple(rng.sample(sorted(categories), size))
        queries.append(
            TripQuery(
                source=random_location(rng, venue, rooms),
                target=random_location(rng, venue, rooms),
                categories=cats,
                alpha=alpha,
            )
        )
    return queries


def replicate_dataset(venue: Venue, points: list[IndoorPoint], k: int,
                      seed: int) -> list[IndoorPoint]:
    """k relocated copies of the object set; categories and scores travel
    with each copy, locations are drawn fresh.  A point's id is its
    position in the list."""
    if k < 1:
        raise ValueError("replication factor must be at least 1")
    rng = stream(seed, "replicate")
    rooms = room_ids(venue)
    out: list[IndoorPoint] = []
    for _ in range(k):
        for p in sorted(points, key=lambda p: p.id):
            at = random_location(rng, venue, rooms)
            out.append(IndoorPoint(len(out), at.partition_id, at.x, at.y, at.floor,
                                   p.category, p.static_score))
    return out


def build_workload(spec: WorkloadSpec) -> tuple[Venue, list[IndoorPoint], list[TripQuery]]:
    """Venue, placed objects, and queries over the spec's bucket categories."""
    venue = generate_venue(spec)
    points = place_objects(venue, spec)
    venue = venue.with_points(points)
    eligible = sorted({p.category for p in points})
    queries = generate_queries(
        eligible, spec.query_count, spec.query_categories, spec.alpha, venue, spec.seed
    )
    return venue, points, queries
