"""Computer algebra over finite chain rings, local rings, and PIRs:
Gröbner bases, π-adic solvers, matrix normal forms, MinRank, and
rank-metric decoding."""

from .errors import (
    BadGenerator,
    BudgetExceeded,
    ChainRingError,
    ComponentMismatch,
    DomainError,
    EqualInputs,
    ExponentOverflow,
    Inconclusive,
    NoSolution,
    NotARing,
    NotAUnit,
    NotChainRing,
    NotFree,
    NotInvertible,
    ParseError,
    RankExceeds,
    RankTooLarge,
    ResourceExceeded,
    TooLarge,
    WrongOrder,
    ZeroElement,
    ZeroIdeal,
    ZeroPolynomial,
)
from .rings import (
    ChainRing,
    ExtensionChainRing,
    ProductRing,
    RingElement,
    Zpk,
    crt_join,
    crt_split,
    galois_ring,
    integer_ring,
    ring_from_json,
)
from .polys import MonomialOrder, MultiPoly, PolyRing, strong_reduce, term_divides
from .groebner import (
    GroebnerBasis,
    UnivariateLadder,
    a_polynomial,
    buchberger,
    elimination_subbasis,
    minimal_univariate_basis,
    s_polynomial,
    verify_groebner,
)
from .linalg import (
    HermiteDecomposition,
    RingMatrix,
    SmithDecomposition,
    free_envelope,
    hermite_form,
    kernel,
    parity_check,
    rank,
    rank_profile,
    reduced_row_echelon,
    row_membership,
    smith_normal_form,
    standard_form,
)
from .solve import (
    ALL_OF_RING,
    SolutionSet,
    ring_vanishing_polynomial,
    solve_system,
    solve_system_lifting,
    solve_univariate,
)
from .localring import (
    LocalRingPresentation,
    contract_solutions,
    expand_system,
    quotient_presentation,
    solve_local_system,
)
from .extension import (
    GaloisExtension,
    PluckerCoordinates,
    ProductExtension,
    build_extension,
    matrix_representation,
    plucker_coordinates,
    vector_rank,
    vector_support,
)
from .skew import SkewPoly, annihilator
from .minrank import (
    MinRankInstance,
    ks_model,
    sm_model,
    solve_minrank,
    transpose_instance,
)
from .rankdecode import (
    DecodeResult,
    KeyEquationSystem,
    RankDecodingInstance,
    decode,
    key_equation_model,
    solve_key_groebner,
    solve_key_linearization,
    to_minrank,
)

__version__ = "0.1.0"
