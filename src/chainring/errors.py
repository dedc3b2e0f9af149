"""Exception types shared across the library."""


class ChainRingError(Exception):
    """Base class for all library errors."""


class ZeroElement(ChainRingError):
    """Operation undefined on the zero element (e.g. unit_part(0))."""


class NotAUnit(ChainRingError):
    """Inversion requested for an element of positive valuation."""


class BadGenerator(ChainRingError):
    """A maximal-ideal generator of valuation 1 was expected."""


class ComponentMismatch(ChainRingError):
    """CRT join called with elements from the wrong component rings."""


class NotARing(ChainRingError):
    """A local-ring presentation violates a ring axiom; carries the failing triple."""


class ZeroPolynomial(ChainRingError):
    """Leading data requested for the zero polynomial."""


class EqualInputs(ChainRingError):
    """S-polynomial of a generator with itself."""


class WrongOrder(ChainRingError):
    """Operation requires a lexicographic monomial order."""


class ZeroIdeal(ChainRingError):
    """The ideal is {0}: every ring element is a solution."""


class ResourceExceeded(ChainRingError):
    """A safety cap was hit; carries partial diagnostics in args."""


class ExponentOverflow(ResourceExceeded):
    """A monomial's exponent does not fit the packed exponent field."""


class BudgetExceeded(ChainRingError):
    """A brute-force oracle refused an input larger than its budget."""


class TooLarge(ChainRingError):
    """Ring exceeds the desk-scale cap for this operation."""


class RankTooLarge(ChainRingError):
    """free_envelope called with r outside [rank(A), n]."""


class RankExceeds(ChainRingError):
    """No monic annihilator of the requested degree exists (rank too big)."""


class NotFree(ChainRingError):
    """Rows/columns are linearly dependent where a free module was required."""


class NotChainRing(ChainRingError):
    """Operation is only defined over finite chain rings."""


class NotInvertible(ChainRingError):
    """Square matrix has no inverse over the ring."""


class Inconclusive(ChainRingError):
    """Linearization did not isolate the unknowns; caller should fall back."""


class NoSolution(ChainRingError):
    """Emptiness certified (brute-force confirmed at desk scale)."""


class ParseError(ChainRingError):
    """Malformed JSON instance or polynomial text."""


class DomainError(ChainRingError):
    """Rings/arity of the inputs do not match."""


class InternalInvariant(ChainRingError):
    """A result failed the library's own re-check; signals a bug, not bad input."""
