"""Exact convex-position probabilities for random points in planar convex
bodies, with Monte Carlo estimators and mechanized re-checks of the n = 4
and n = 5 inequality certificates."""

from .bodies import (
    Disk,
    Ellipse,
    Polygon,
    affine_image,
    area,
    body_from_json,
    body_to_json,
    contains,
    inscribed_polygon,
    sample_points,
    shake,
    steiner_symmetrize,
    triangle,
    width,
    x_range,
    y_bounds,
)
from .certificates import (
    CertificateReport,
    compa_violation_witness,
    linear_reconstruct,
    positivity_check,
    symbolic_difference,
    verify_all,
    verify_n4,
    verify_n5,
    verify_n5_cone,
    verify_n5_quadratic,
)
from .closed_forms import PiConstant, closed_form, constants_table, disk_constant
from .combs import (
    Comb,
    comb_poly,
    comb_poly_permutations,
    comb_poly_triangulations,
    comb_probability,
    enumerate_triangulations,
)
from .montecarlo import (
    EstimateResult,
    estimate_Q,
    estimate_Q_rb,
    estimate_segments,
    is_convex_position,
)
from .poly import (
    DegreeBoundError,
    MissingVariableError,
    MultiPoly,
    divide_exact,
    grid_identity_check,
)
from .rationals import DocumentError, format_rational
from .segments import (
    CompaError,
    NormalizedFamily,
    VerticalSegment,
    clamped_family,
    family_probability,
    family_segments,
    in_compa,
    normalize,
    profile_to_offsets,
    slope_profile,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
