"""Category-aware multi-criteria trip planning for indoor venues."""

from .bench import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    approximation_ratio,
    run_experiment,
    sweep_delta,
)
from .d2d import (
    D2DGraph,
    DisconnectedVenueError,
    DistanceEngine,
    build_d2d_graph,
)
from .dominance import PruneReport, preprocess
from .index import VenueIndex, build_index
from .oracle import (
    OracleScaleError,
    enumerate_route,
    exact_route,
    rank_once_greedy,
)
from .routing import (
    EmptyCategoryError,
    EvalCounter,
    QueryContext,
    Route,
    TripQuery,
    gcnn,
    point_score,
    route_cost,
)
from .venue import (
    Door,
    IndoorPoint,
    Location,
    Partition,
    PointTable,
    ValidationReport,
    Venue,
    load_checked_venue,
    load_objects_csv,
    load_venue,
    save_objects_csv,
    save_venue,
    validate_venue,
)
from .workload import (
    WorkloadSpec,
    bucket_categories,
    build_workload,
    generate_queries,
    generate_venue,
    place_objects,
    replicate_dataset,
)

__version__ = "0.1.0"
