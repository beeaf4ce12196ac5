"""wblow: exact weighted-blowup calculus for Poisson structures on affine charts.

Sparse rational polynomial arithmetic, Schouten-bracket polyvector calculus,
weighted valuations and leading terms, lifting criteria for polyvectors along
weighted blowups, singularity-invariant arithmetic, Du Val classification,
and resolution drivers for plane curves and low-dimensional Poisson triples.
"""

from .ring import (
    INF,
    ExtRational,
    Infinity,
    ParseError,
    Point,
    Poly,
    divides,
    ext_reciprocal,
    format_ext,
    parse_poly,
    rational_roots,
    resultant,
    univariate_gcd,
)
from .polyvector import (
    CoordinateChange,
    LieAlgebra3,
    Polyvector,
    interior_product_df,
    is_poisson,
    is_tangent,
    jacobian_poisson,
    linearize,
    parse_polyvector,
    schouten,
    wedge,
)
from .centre import Centre, WeightData, parse_centre
from .blowup import (
    CentreReport,
    PullbackResult,
    SliceChart,
    Witness,
    check_centre,
    check_lift,
    pullback_function,
    pullback_polyvector,
    rational_singular_points,
    slice_chart,
    strict_transform_in_chart,
)
from .invariant import (
    InvariantSeq,
    MonomialCentreResult,
    NewtonPolyhedron,
    PlaneCurveInvariant,
    canonical_numerics,
    is_admissible,
    lex_compare,
    max_monomial_centre,
    plane_curve_invariant,
    validate_invariant,
)
from .classify import (
    SingularityClass,
    TripleReport,
    classify_surface,
    detect_duval_point,
    detect_nonnilpotent_point,
    is_isolated_singularity,
    milnor_number,
    verify_normal_form,
)
from .resolve import (
    CentreSelection,
    RefusalError,
    ResolutionNode,
    StepAbort,
    StepCertificate,
    certify_blowup_step,
    resolve_plane_curve,
    select_centre_31,
    select_centre_32,
)

__version__ = "0.1.0"
