"""edgewatch: detect CDN edge-node changes from passive flow logs.

Caches are clustered into edge-nodes with DBSCAN over normalized RTT/TTL
percentile features; each snapshot's clustering collapses to a constellation
of centroids, and the Constellation Distance between consecutive snapshots
flags footprint changes.
"""

from .constellation import (
    CDReport,
    Constellation,
    Coupling,
    build_constellation,
    constellation_distance,
    joint_bounds,
)
from .dbscan import Clustering, ClusterParams, dbscan
from .errors import ConfigError, InputError
from .features import (
    CacheFeatures,
    DEFAULT_MIN_FLOW,
    DEFAULT_PERCENTILES,
    NormalizationBounds,
    extract_cache_features,
    extract_cache_features_mean_std,
    normalize_snapshot,
)
from .ingest import (
    Codes,
    FlowLineError,
    FlowLogFormatError,
    FlowTable,
    Snapshot,
    parse_cache_hostname,
    read_flow_log,
    window_flows,
    write_flow_log,
)
from .pipeline import (
    DrilldownReport,
    PipelineConfig,
    TimelineEntry,
    TimelineResult,
    drilldown,
    rank_matrix,
    run_timeline,
    timeline_entry,
)

__version__ = "0.1.0"

# Names imported on first use, so that a run over a real trace loads neither module.
_LAZY = dict.fromkeys(("EdgeNodeSpec", "EventSpec", "SynthConfig", "generate_trace", "load_synth_config"), "synth")
_LAZY.update(dict.fromkeys(("GroundTruth", "QualityIndices", "cd_calibration_curve", "clustering_indices",
                            "epsilon_sweep", "majority_vote_labels"), "evaluation"))
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
