import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import indoortrip.dominance as dom
from indoortrip import (
    Door,
    Partition,
    Venue,
    WorkloadSpec,
    build_d2d_graph,
    build_index,
    build_workload,
)


def make_two_room_venue(points=()):
    """Rooms A=(0,0,10,10) and B=(10,0,20,10) sharing one door at (10,5)."""
    partitions = {
        0: Partition(id=0, floor=0, bounds=(0, 0, 10, 10), kind="room", door_ids=(0,)),
        1: Partition(id=1, floor=0, bounds=(10, 0, 20, 10), kind="room", door_ids=(0,)),
    }
    doors = {0: Door(id=0, x=10.0, y=5.0, floor=0, partition_ids=(0, 1))}
    return Venue(partitions=partitions, doors=doors, points={p.id: p for p in points})


def make_corridor_venue(rooms=4, width=10.0):
    """A row of rooms, one shared door between neighbours, exterior doors
    at both ends: `rooms` partitions and rooms+1 doors."""
    partitions = {}
    doors = {}
    for i in range(rooms):
        partitions[i] = Partition(
            id=i, floor=0, bounds=(i * width, 0, (i + 1) * width, width),
            kind="room", door_ids=(i, i + 1),
        )
    for j in range(rooms + 1):
        ids = tuple(p for p in (j - 1, j) if 0 <= p < rooms)
        doors[j] = Door(id=j, x=j * width, y=width / 2, floor=0, partition_ids=ids)
    return Venue(partitions=partitions, doors=doors)


def block_distances(engine, src, block):
    """Distance from src's location to every point of the block: the
    engine's kernel, then its patch of the rows in src's partition.  The
    reference the tests compare the query tables and pair tables against."""
    out = engine.door_distances(src, block.doors, block.legs)
    here = block.by_partition.get(src.location.partition_id)
    if here is not None:
        engine.patch(out, src.location, *here)
    return out


def certified_all_pairs(points, alpha, reach):
    """Ids of the points of one partition and category that a rival on
    their floor certifies at alpha, in list order: all n x n pairs in one
    numpy expression, n**2 floats per temporary.  The reference the
    presorted pass in `dominance.certified` is compared against at scale."""
    x, y, floor, s = np.array([(p.x, p.y, p.floor, p.static_score) for p in points]).T
    dx = x[:, None] - x
    dy = y[:, None] - y
    dx *= dx
    dy *= dy
    dx += dy
    d = np.sqrt(dx, out=dx)
    slack = dom.MARGIN_FACTOR * np.abs(s)
    detour = (3.0 * alpha) * d
    detour += dom.MARGIN_FACTOR * (3.0 * alpha) * reach + dom.UNDERFLOW_FLOOR
    saving = ((1.0 - alpha) * (s - slack))[:, None] - (1.0 - alpha) * (s + slack)
    beaten = detour < saving
    if floor.min() < floor.max():
        beaten &= floor[:, None] == floor
    return [p.id for p, hit in zip(points, beaten.any(axis=1).tolist()) if hit]


def perfbench_workloads():
    """The benchmark's pinned workloads, read from its own file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def small_workload(seed=0, **overrides):
    """A compact clustered workload whose oracle stays fast."""
    params = dict(
        seed=seed, floors=2, rooms_per_floor=8, categories=5,
        count_range=(6, 10), store_rooms=5, hosts_per_category=2,
        query_count=6, query_categories=(2, 3),
    )
    params.update(overrides)
    spec = WorkloadSpec(**params)
    venue, points, queries = build_workload(spec)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    return venue, graph, index, queries


@pytest.fixture
def two_room_venue():
    return make_two_room_venue()


@pytest.fixture
def corridor_venue():
    return make_corridor_venue()


@pytest.fixture(scope="session")
def desk_workload():
    """Default-sized workload shared by the slower end-to-end tests."""
    spec = WorkloadSpec(seed=11, categories=8, count_range=(25, 35), query_count=10)
    venue, points, queries = build_workload(spec)
    graph = build_d2d_graph(venue)
    index = build_index(venue, graph)
    return venue, graph, index, queries
