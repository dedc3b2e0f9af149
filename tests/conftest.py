import pytest

from chainring.rings import Zpk, galois_ring
from chainring.extension import build_extension
from chainring.linalg import RingMatrix
from chainring.localring import quotient_presentation
from chainring.minrank import MinRankInstance
from chainring.polys import PolyRing
from chainring.rankdecode import RankDecodingInstance


@pytest.fixture(scope="session")
def z4():
    return Zpk(2, 2)


@pytest.fixture(scope="session")
def z8():
    return Zpk(2, 3)


@pytest.fixture(scope="session")
def z9():
    return Zpk(3, 2)


@pytest.fixture(scope="session")
def z25():
    return Zpk(5, 2)


@pytest.fixture(scope="session")
def gr42():
    return galois_ring(2, 2, 2)


@pytest.fixture(scope="session")
def ext83(z8):
    # degree-3 extension of Z8: modulus X^3 + 6X^2 + 5X + 7
    return build_extension(z8, 3)


@pytest.fixture(scope="session")
def ext42(z4):
    return build_extension(z4, 2)


@pytest.fixture(scope="session")
def homogeneous_minrank_z8(z8):
    """Rank-1 homogeneous instance with exactly four solutions."""
    M1 = RingMatrix(z8, [[0, 0, 0, 7], [1, 0, 0, 5], [0, 1, 0, 2], [0, 0, 1, 4]])
    M2 = RingMatrix(z8, [[0, 0, 7, 4], [0, 0, 5, 3], [1, 0, 2, 5], [0, 1, 4, 2]])
    M3 = RingMatrix(z8, [[2, 2, 0, 4], [4, 2, 0, 6], [0, 4, 2, 4], [0, 6, 6, 0]])
    return MinRankInstance(z8, (M1, M2, M3), 1)


@pytest.fixture(scope="session")
def affine_minrank_z8(z8):
    """Rank-1 affine instance whose unique solution is (1, 3, 6)."""
    M0 = RingMatrix(z8, [[5, 2, 3], [5, 1, 4], [4, 3, 6]])
    M1 = RingMatrix(z8, [[1, 2, 0], [0, 1, 3], [0, 2, 1]])
    M2 = RingMatrix(z8, [[0, 2, 1], [1, 0, 3], [0, 5, 5]])
    M3 = RingMatrix(z8, [[0, 5, 5], [0, 1, 0], [1, 2, 5]])
    return MinRankInstance(z8, (M1, M2, M3), 1, M0)


@pytest.fixture(scope="session")
def decoding_instance(ext83):
    """k=1, n=3, r=1 instance decoding to x = 1 + 3a + 6a^2."""
    S = ext83
    g = (S.one, S.element([2, 1, 2]), S.element([0, 3, 1]))
    y = (S.element([3, 3, 4]), S.element([6, 7, 5]), S.element([5, 4, 2]))
    return RankDecodingInstance(S, (g,), y, 1)


@pytest.fixture(scope="session")
def decoded_x(ext83):
    return ext83.element([1, 3, 6])


@pytest.fixture(scope="session")
def runaway_local_polynomial():
    """(2 + t)x^2 + (t + t^2)xy + (t + t^2) over Z4[X]/(X^3 + 2, 2X): its
    expansion is three degree-2 equations in six variables over Z4, whose
    lex basis grows polynomials of thousands of terms; it ran for more than
    ten minutes before buchberger capped a remainder's length."""
    pres = quotient_presentation(2, 2, [2, 0, 0, 1], 1)
    P = PolyRing(pres, ("x", "y"), "lex")
    lead, cross = pres.element([2, 1, 0]), pres.element([0, 1, 1])
    return P.poly([((2, 0), lead), ((1, 1), cross), ((0, 0), cross)])
