"""Built-in triad families for testing and demonstration.

`fixture_vd_triad` produces a thin reduced triad of any diameter from the
irreducible sl2 action: A'' = -h, A = -h + beta*f, A' = -h + gamma*f with
nonzero, distinct beta and gamma.  `fixture_counterexample` produces a
6-dimensional reduced triad of shape (1,2,2,1), together with the matrix
that any module structure extending its corner would be forced to place on
the opposite edge; that forced matrix breaks a Dolan-Grady relation, which
is why thinness matters.
"""

from __future__ import annotations

from fractions import Fraction

from triadtet.io import TriadDocument
from triadtet.linalg import RMatrix
from triadtet.sl2 import make_vd


def fixture_vd_triad(d: int, beta: object, gamma: object) -> TriadDocument:
    """A thin reduced triad of diameter d, returned unverified.

    beta and gamma must be nonzero and distinct; they control the two
    raising maps (R = beta*f, r = gamma*f).  The document is not run
    through `verify_bd_triad`: `make_vd` validates the sl2 relations, and
    for such beta and gamma the result always certifies as thin and
    reduced with diameter d.
    """
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    if not beta or not gamma:
        raise ValueError("beta and gamma must be nonzero")
    if beta == gamma:
        raise ValueError("beta and gamma must be distinct")
    if d < 0:
        raise ValueError("d must be non-negative")
    action = make_vd(d)
    a_dprime = -action.h
    a = a_dprime + beta * action.f
    a_prime = a_dprime + gamma * action.f
    return TriadDocument(
        dim=d + 1,
        a=a,
        a_prime=a_prime,
        a_dprime=a_dprime,
        metadata={
            "source": "vd-family",
            "d": d,
            "beta": str(beta),
            "gamma": str(gamma),
        },
    )


def fixture_counterexample() -> tuple[TriadDocument, RMatrix]:
    """The 6-dimensional non-thin reduced triad and its forced X_02 matrix.

    Returns (triad document, x02).  The triad certifies as reduced with
    shape (1,2,2,1).  Placing its matrices on the edges into vertex 3 and
    propagating the corner relations forces x02 on edge (0,2), and then
    [X_13, [X_13, [X_13, X_02]]] != 4 [X_13, X_02]: no module structure
    with this corner exists.
    """
    a = RMatrix(
        [
            [-3, 0, 0, 0, 0, 0],
            [1, -1, 0, 0, 0, 0],
            [1, 0, -1, 0, 0, 0],
            [0, 2, 0, 1, 0, 0],
            [0, 1, 2, 0, 1, 0],
            [0, 0, 0, 3, 0, 3],
        ]
    )
    a_prime = RMatrix(
        [
            [-3, 0, 0, 0, 0, 0],
            [-2, -1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, -4, 0, 1, 0, 0],
            [0, 0, -2, 0, 1, 0],
            [0, 0, 0, -6, 0, 3],
        ]
    )
    a_dprime = RMatrix.diagonal([-3, -1, -1, 1, 1, 3])
    x02 = RMatrix(
        [
            [3, 12, 0, 0, 0, 0],
            [0, 1, 0, 8, 0, 0],
            [0, 0, 1, 5, 2, 0],
            [0, 0, 0, -1, 0, 4],
            [0, 0, 0, 0, -1, 6],
            [0, 0, 0, 0, 0, -3],
        ]
    )
    doc = TriadDocument(
        dim=6,
        a=a,
        a_prime=a_prime,
        a_dprime=a_dprime,
        metadata={"source": "counterexample"},
    )
    return doc, x02
