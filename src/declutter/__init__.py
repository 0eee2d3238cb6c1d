"""Point-cloud decluttering with certified Hausdorff guarantees.

Two denoising algorithms over finite point sets in a metric space: a
single-parameter declutter pass driven by robust k-distances, and a
parameter-free loop that alternates decluttering with resampling while
halving k. Companion modules certify the sampling conditions of an input
against a dense ground-truth reference and turn the theoretical output
guarantees into executable checks.
"""
from .certify import (
    SamplingCertificate,
    certify,
    certify_scales,
    estimate_epsilon_k,
)
from .decluttering import DeclutterResult, Rejection, declutter, greedy_declutter
from .evaluation import (
    BOUND_NAMES,
    BoundCertificate,
    KAPPA_CONSERVE,
    PARFREE_FACTOR,
    adaptive_hausdorff,
    directed_hausdorff,
    hausdorff,
    relaxed_bound,
    verify_bound,
)
from .geometry import (
    EUCLIDEAN,
    MANHATTAN,
    PRECOMPUTED,
    GeometryError,
    GroundTruthRef,
    Metric,
    PointCloud,
    cross_distances,
    load_ids,
    load_matrix,
    load_points,
    save_ids,
    save_points,
    subset_cloud,
)
from .neighbors import AUTO, BRUTE, KDTREE, NeighborIndex, build_index
from .parfree import (
    PRACTICAL_C,
    THEORETICAL_C,
    ParfreeIteration,
    ParfreeTrace,
    parfree_declutter,
    resample_step,
)
from .robust import (
    AVG_K,
    KTH_NN,
    RMS_K,
    DistanceKind,
    RobustDistanceProfile,
    parse_kind,
    profile,
    values_at,
    values_at_scales,
)
from .synthgen import (
    Circle,
    Polyline,
    Shape,
    SurfaceGrid,
    TwoScaleLoops,
    add_ambient_noise,
    feature_from_anchor,
    perturb_gaussian,
    sample_shape,
    torus_grid,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
