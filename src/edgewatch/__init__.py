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
    Star,
    astral_distance,
    build_constellation,
    constellation_distance,
    joint_bounds,
)
from .dbscan import Cluster, Clustering, ClusterParams, dbscan, region_query
from .errors import ConfigError, InputError
from .evaluation import (
    GroundTruth,
    QualityIndices,
    cd_calibration,
    clustering_indices,
    epsilon_sweep,
    majority_vote_labels,
    sample_in_ball,
)
from .features import (
    CacheFeatures,
    DEFAULT_MIN_FLOW,
    DEFAULT_PERCENTILES,
    NormalizationBounds,
    extract_cache_features,
    extract_cache_features_mean_std,
    normalize_snapshot,
    percentile,
)
from .ingest import (
    Codes,
    FlowLineError,
    FlowLogFormatError,
    FlowRecord,
    FlowTable,
    Snapshot,
    parse_cache_hostname,
    parse_flow_log,
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
    run_timeline,
)
from .synth import (
    EdgeNodeSpec,
    EventSpec,
    SynthConfig,
    generate_trace,
    load_synth_config,
    rank_matrix,
)

__version__ = "0.1.0"
