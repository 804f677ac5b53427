"""netline: exact metric geometry for subsets of the real line.

Hausdorff and Gromov-Hausdorff distances in exact rational arithmetic,
the thickening deformation that contracts every net onto its window, the
constructive low-distortion correspondences behind it, and randomized
suites certifying every inequality the library promises.
"""

from types import ModuleType as _Module

from .constructions import (
    ExtendedCorrespondence,
    SegmentCorrespondence,
    extend_correspondence,
    segment_correspondence,
)
from .correspondence import (
    Correspondence,
    DistortionCertificate,
    FiniteMetricSpace,
    Relation,
    diam,
    distortion,
    gh_to_point,
    scale_space,
)
from .errors import ExhaustiveLimitError, InvariantError, PreconditionError
from .geometry import (
    IntervalUnion,
    PointSet,
    Scalar,
    Window,
    as_scalar,
    covering_radius,
    hausdorff,
    is_eps_net,
    point_to_set_distance,
    sample,
    scalar_str,
    separation,
    thicken,
)
from .harness import (
    GeneratorConfig,
    SuiteReport,
    geometric_progression_experiment,
    homothety_experiment,
    lambda_bound_counterexample_search,
    verify_bounded_cloud,
    verify_construction_bounds,
    verify_continuity,
    verify_gh_bounds,
    verify_order_lemmas,
    verify_stability,
    verify_ultrametric_gh,
    verify_ultrametric_hausdorff,
)
from .homotopy import (
    HomotopyTrace,
    contract,
    continuity_in_lambda,
    f_map,
    stability_in_space,
    trace,
    trace_csv,
)
from .ordering import (
    OrderPreservationReport,
    OrderViolationReport,
    check_order_preservation,
    order_violation_bound,
)
from .solver import GHResult, gh_branch_bound, gh_exact

__version__ = "0.1.0"

# every public name bound above, for `from netline import *`
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
)
