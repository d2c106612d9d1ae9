"""Generic initial ideals, algebraic shifting, and local cohomology over Q.

The package decides sequential Cohen-Macaulayness of monomial quotients by
two independent routes (local cohomology comparison against the generic
initial ideal, and Betti-number invariance under algebraic shifting) and
cross-checks them against each other on every run that computes both.
"""

from .decide import (
    ComparisonReport,
    SeqCMVerdict,
    is_componentwise_linear,
    is_sequentially_cm,
    main_theorem_check,
    theorem41_check,
)
from .groebner import (
    GinCache,
    PolynomialIdeal,
    buchberger,
    gin,
    initial_ideal,
    normal_form,
    saturation,
)
from .monomial import (
    DimensionFiltration,
    MonomialIdeal,
    dimension_filtration,
    hilbert_function,
    krull_dimension,
    local_cohomology_strongly_stable,
)
from .oracles import (
    brute_hilbert,
    cech_local_cohomology,
    depth_and_dim,
    koszul_betti,
)
from .rings import Monomial, Polynomial, parse_polynomial
from .simplicial import (
    SimplicialComplex,
    alexander_dual,
    complex_of,
    hochster_betti,
    local_cohomology_face_ring,
    reduced_homology,
    shifted_complex,
    stanley_reisner_ideal,
)
from .tables import BettiTable, CohomologyTable, HilbertFunction
from .version import __version__

__all__ = [
    "BettiTable",
    "CohomologyTable",
    "ComparisonReport",
    "DimensionFiltration",
    "GinCache",
    "HilbertFunction",
    "Monomial",
    "MonomialIdeal",
    "Polynomial",
    "PolynomialIdeal",
    "SeqCMVerdict",
    "SimplicialComplex",
    "__version__",
    "alexander_dual",
    "brute_hilbert",
    "buchberger",
    "cech_local_cohomology",
    "complex_of",
    "depth_and_dim",
    "dimension_filtration",
    "gin",
    "hilbert_function",
    "hochster_betti",
    "initial_ideal",
    "is_componentwise_linear",
    "is_sequentially_cm",
    "koszul_betti",
    "krull_dimension",
    "local_cohomology_face_ring",
    "local_cohomology_strongly_stable",
    "main_theorem_check",
    "normal_form",
    "parse_polynomial",
    "reduced_homology",
    "saturation",
    "shifted_complex",
    "stanley_reisner_ideal",
    "theorem41_check",
]
