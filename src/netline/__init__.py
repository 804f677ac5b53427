"""netline: exact metric geometry for subsets of the real line.

Hausdorff and Gromov-Hausdorff distances in exact rational arithmetic,
the thickening deformation that contracts every net onto its window, the
constructive low-distortion correspondences behind it, and randomized
suites certifying every inequality the library promises.
"""

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

__all__ = [
    "Correspondence",
    "DistortionCertificate",
    "ExhaustiveLimitError",
    "ExtendedCorrespondence",
    "FiniteMetricSpace",
    "GHResult",
    "GeneratorConfig",
    "HomotopyTrace",
    "IntervalUnion",
    "InvariantError",
    "OrderPreservationReport",
    "OrderViolationReport",
    "PointSet",
    "PreconditionError",
    "Relation",
    "Scalar",
    "SegmentCorrespondence",
    "SuiteReport",
    "Window",
    "as_scalar",
    "check_order_preservation",
    "contract",
    "continuity_in_lambda",
    "covering_radius",
    "diam",
    "distortion",
    "extend_correspondence",
    "f_map",
    "geometric_progression_experiment",
    "gh_branch_bound",
    "gh_exact",
    "gh_to_point",
    "hausdorff",
    "homothety_experiment",
    "is_eps_net",
    "lambda_bound_counterexample_search",
    "order_violation_bound",
    "point_to_set_distance",
    "sample",
    "scalar_str",
    "scale_space",
    "segment_correspondence",
    "separation",
    "stability_in_space",
    "thicken",
    "trace",
    "trace_csv",
    "verify_bounded_cloud",
    "verify_construction_bounds",
    "verify_continuity",
    "verify_gh_bounds",
    "verify_order_lemmas",
    "verify_stability",
    "verify_ultrametric_gh",
    "verify_ultrametric_hausdorff",
]
