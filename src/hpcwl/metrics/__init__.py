"""Aggregate statistics over the normalized dataset."""
from .allocations import (
    AllocationStats,
    allocation_size_summary,
    allocation_utilization,
    select_size_fraction,
)
from .concurrency import ConcurrencyResult, concurrency_histograms
from .depth import (
    DepthProfile,
    JointRatioResult,
    ProjectDepth,
    WidthCurves,
    depth_profile,
    joint_ratio,
    width_curves,
)
from .gateways import (
    CensusRow,
    ConversionRow,
    GatewayUsage,
    gateway_census,
    gateway_conversion,
    gateway_usage,
    load_community_users,
)
from .geo import GeoRow, GeoTables, geo_normalize
from .histograms import (
    Histogram1D,
    Histogram2D,
    default_job_size_edges,
    default_memory_edges,
    fraction_edges,
    log_edges,
)
from .lustre import LustreStats, lustre_stats
from .memory import (
    LargeMemoryBreakdown,
    large_memory_breakdown,
    memory_2d,
    memory_histograms,
)
from ..jobtable import period_key
from .perfcolumns import PerfColumns
from .rollups import (
    Filters,
    RollupTable,
    SingleNodeShare,
    average_job_size,
    average_job_size_series,
    average_job_size_variants,
    job_size_distribution,
    single_node_serial_fractions,
    usage_rollup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
