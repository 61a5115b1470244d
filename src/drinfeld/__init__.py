"""Exact arithmetic for prime-rank Drinfeld modules over F_q(T).

The library centers on the family phi_T = T + tau^(r-1) + T^(q-1) tau^r
(odd prime rank r) and mechanizes its arithmetic: skew polynomials,
reductions and heights at primes of F_q[T], torsion spaces with explicit
Frobenius matrices, Frobenius characteristic polynomials, Newton-polygon
slope and ramification data, quotient isogenies over finite fields, and
Chebotarev-style sampling of mod-l Frobenius statistics against the exact
GL_r distribution.
"""

from .fields import (
    Field,
    FieldBatch,
    FieldElement,
    FieldError,
    field_with_modulus,
    is_prime,
    make_field,
)
from .linalg import Int64RangeError, Matrix
from .polynomials import (
    INF,
    Place,
    PolySyntaxError,
    PrimeError,
    RationalFn,
    ResidueField,
    SparsePoly,
    format_field_element,
    format_poly,
    is_irreducible,
    necklace_count,
    parse_poly,
    poly_valuation,
    primes_of_degree,
    residue_field,
    valuation,
)
from .skew import (
    DrinfeldModule,
    SkewDivisionError,
    SkewError,
    SkewPoly,
    linearized_eval,
)
from .reduction import (
    GOOD,
    STABLE_BAD,
    Isogeny,
    ReducedModule,
    ReductionError,
    TorsionSearchError,
    TorsionSpace,
    fl_line,
    height,
    quotient_by_kernel,
    reduce_mod,
    splitting_degree,
    torsion_at_char,
    torsion_space,
)
from .charpoly import (
    CharPoly,
    CharPolyError,
    charpoly_linear_system,
    charpoly_mod_l,
    det_check,
    epsilon_of,
    frobenius_charpolys,
)
from .newton import (
    NewtonError,
    NewtonPolygon,
    inertia_order_prediction,
    newton_polygon,
    np_irreducibility,
    slope_integrality,
    torsion_polygon,
    torsion_slopes,
)
from .sampling import (
    CONSISTENT,
    FLAGGED,
    GLDistribution,
    SampleRecord,
    SampleReport,
    SamplingError,
    gl_charpoly_distribution,
    gl_order,
    noise_bound,
    sample_frobenii,
    surjectivity_evidence,
    tv_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
