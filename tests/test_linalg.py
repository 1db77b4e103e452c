"""Exact linear algebra kernel: row reduction, spectra, restricted powers."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import triadtet as tt
from triadtet import RMatrix, Subspace

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


def square_matrices(max_dim: int = 4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(RMatrix)
    )


def test_rref_identity():
    m = RMatrix.identity(3)
    reduced, rank = tt.rref(m)
    assert reduced == m
    assert rank == 3


def test_rref_zero():
    m = RMatrix.zero(2, 3)
    reduced, rank = tt.rref(m)
    assert reduced == m
    assert rank == 0


def test_rref_rank_deficient():
    reduced, rank = tt.rref(RMatrix([[1, 2], [2, 4]]))
    assert reduced == RMatrix([[1, 2], [0, 0]])
    assert rank == 1


@given(square_matrices())
def test_rref_idempotent(m):
    reduced, rank = tt.rref(m)
    again, rank2 = tt.rref(reduced)
    assert again == reduced
    assert rank2 == rank


def test_kernel_identity():
    assert tt.kernel_basis(RMatrix.identity(4)) == Subspace.zero(4)


def test_kernel_rank_one():
    ker = tt.kernel_basis(RMatrix([[1, 2], [2, 4]]))
    assert ker == Subspace.from_vectors(2, [(-2, 1)])
    assert ker.dim == 1


def test_kernel_zero_matrix():
    assert tt.kernel_basis(RMatrix.zero(2)) == Subspace.full(2)


@given(square_matrices())
def test_kernel_members_and_dimension(m):
    ker = tt.kernel_basis(m)
    for v in ker.basis:
        assert m.apply(v) == (Fraction(0),) * m.rows
    _, rank = tt.rref(m)
    assert ker.dim == m.cols - rank


@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
    st.permutations(range(3)),
    rationals.filter(bool),
)
def test_subspace_canonical_under_presentation(vectors, perm, scale):
    direct = Subspace.from_vectors(3, vectors)
    mangled = [vectors[i] for i in perm if i < len(vectors)]
    mangled = [tuple(scale * x for x in v) for v in mangled] + vectors
    assert Subspace.from_vectors(3, mangled) == direct


def test_subspace_coordinates_and_containment():
    s = Subspace.from_vectors(3, [(1, 0, 1), (0, 2, 0)])
    assert s.contains((2, 2, 2))
    assert s.coordinates((2, 2, 2)) is not None
    assert not s.contains((1, 0, 0))
    assert s.coordinates((1, 0, 0)) is None
    assert s.contains_subspace(Subspace.from_vectors(3, [(3, -2, 3)]))


def test_char_poly_diagonal():
    assert tt.char_poly(RMatrix.diagonal([1, 2])) == (1, -3, 2)


def test_char_poly_nilpotent():
    assert tt.char_poly(RMatrix([[0, 1], [0, 0]])) == (1, 0, 0)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_char_poly_counterexample_third_matrix(counterexample):
    doc, _ = counterexample
    # (x+3)(x+1)^2(x-1)^2(x-3), multiplied out independently
    expected = (Fraction(1),)
    for root in (-3, -1, -1, 1, 1, 3):
        expected = _poly_mul(expected, (Fraction(1), Fraction(-root)))
    assert tt.char_poly(doc.a_dprime) == expected
    assert expected == (1, 0, -11, 0, 19, 0, -9)


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        tt.char_poly(RMatrix.zero(2, 3))


@given(square_matrices())
def test_cayley_hamilton(m):
    coeffs = tt.char_poly(m)
    acc = RMatrix.zero(m.rows)
    power = RMatrix.identity(m.rows)
    for c in reversed(coeffs):
        acc = acc + c * power
        power = power * m
    assert acc.is_zero()


def test_rational_roots_with_multiplicity():
    poly = (Fraction(1),)
    for root in (Fraction(-3), Fraction(-3), Fraction(1, 2)):
        poly = _poly_mul(poly, (Fraction(1), -root))
    roots, leftover = tt.rational_roots(poly)
    assert roots == [(Fraction(-3), 2), (Fraction(1, 2), 1)]
    assert leftover == 0


def test_rational_roots_irreducible_quadratic():
    roots, leftover = tt.rational_roots((Fraction(1), Fraction(0), Fraction(-2)))
    assert roots == []
    assert leftover == 2


def test_rational_roots_zero_root():
    roots, leftover = tt.rational_roots((Fraction(1), Fraction(0), Fraction(0)))
    assert roots == [(Fraction(0), 2)]
    assert leftover == 0


def _trial_divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _divisor_pair_roots(coeffs):
    """Reference: try p/q for every p | a_0 and q | a_n, then deflate."""
    work = list(coeffs)
    roots = {}
    while len(work) > 1 and not work[-1]:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        work.pop()
    scale = math.lcm(*(c.denominator for c in work))
    ints = [int(c * scale) for c in work]
    for p in _trial_divisors(ints[-1]):
        for q in _trial_divisors(ints[0]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                while len(work) > 1 and _horner(work, cand) == 0:
                    roots[cand] = roots.get(cand, 0) + 1
                    quotient = [work[0]]
                    for c in work[1:-1]:
                        quotient.append(quotient[-1] * cand + c)
                    work = quotient
    return sorted(roots.items()), len(work) - 1


@st.composite
def split_times_irreducible(draw):
    """scale * x^z * prod (q x - p)^m * prod (x^2 - k), k not a square."""
    poly = (draw(st.fractions(-7, 7, max_denominator=5).filter(bool)),)
    for _ in range(draw(st.integers(0, 2))):
        poly = _poly_mul(poly, (Fraction(1), Fraction(0)))
    linear = st.tuples(st.integers(1, 3), st.integers(-5, 5), st.integers(1, 3))
    for q, p, mult in draw(st.lists(linear, max_size=3)):
        for _ in range(mult):
            poly = _poly_mul(poly, (Fraction(q), Fraction(-p)))
    non_square = st.integers(-5, 12).filter(
        lambda k: k < 0 or math.isqrt(k) ** 2 != k
    )
    for k in draw(st.lists(non_square, max_size=2)):
        poly = _poly_mul(poly, (Fraction(1), Fraction(0), Fraction(-k)))
    return poly


# -5/3 * (2x - 3)^3 * (x^2 - 2): a triple root beside an irrational pair
_TRIPLE_BESIDE_PAIR = _poly_mul(
    (Fraction(-5, 3),), _poly_mul((8, -36, 54, -27), (1, 0, -2))
)


@example(_TRIPLE_BESIDE_PAIR)
@given(split_times_irreducible())
def test_rational_roots_match_divisor_pair_reference(poly):
    assert tt.rational_roots(poly) == _divisor_pair_roots(poly)


_PRIMORIALS = (2, 6, 30, 210, 2310, 30030)


@pytest.mark.parametrize(
    "values",
    [
        tuple(Fraction(p) for p in _PRIMORIALS),
        # p / (p^2 - 1): the leading coefficient gains divisors as well
        tuple(Fraction(p, p * p - 1) for p in _PRIMORIALS),
    ],
    ids=["primorials", "primorials_over_p2_minus_1"],
)
def test_eigen_decompose_primorial_diagonal_is_fast(values):
    # the constant term has 5040 divisors, one per candidate numerator
    start = time.monotonic()
    decomp = tt.eigen_decompose(RMatrix.diagonal(values))
    assert time.monotonic() - start < 2.0
    assert decomp.diagonalizable
    assert decomp.eigenvalues == tuple(sorted(values))


def test_eigen_decompose_diagonal():
    decomp = tt.eigen_decompose(RMatrix.diagonal([-1, 1]))
    assert decomp.diagonalizable
    assert decomp.eigenvalues == (-1, 1)
    assert all(p.algebraic_multiplicity == 1 for p in decomp.pairs)


def test_eigen_decompose_jordan_block():
    decomp = tt.eigen_decompose(RMatrix([[0, 1], [0, 0]]))
    assert not decomp.diagonalizable
    (pair,) = decomp.pairs
    assert pair.value == 0
    assert pair.algebraic_multiplicity == 2
    assert pair.geometric_multiplicity == 1


def test_eigen_decompose_counterexample_first_matrix(counterexample):
    doc, _ = counterexample
    decomp = tt.eigen_decompose(doc.a)
    assert decomp.diagonalizable
    assert decomp.eigenvalues == (-3, -1, 1, 3)
    assert [p.algebraic_multiplicity for p in decomp.pairs] == [1, 2, 2, 1]


def test_eigen_decompose_irrational_spectrum():
    with pytest.raises(tt.IrrationalSpectrum):
        tt.eigen_decompose(RMatrix([[0, 1], [2, 0]]))


def test_commutator_self_vanishes():
    m = RMatrix([[1, 2], [3, 4]])
    assert tt.commutator(m, m).is_zero()


def test_commutator_sl2_relation():
    action = tt.make_vd(1)
    assert tt.commutator(action.h, action.f) == Fraction(-2) * action.f


def test_commutator_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        tt.commutator(RMatrix.zero(2), RMatrix.zero(3))


@given(square_matrices(3), square_matrices(3))
def test_commutator_antisymmetric(x, y):
    if x.rows != y.rows:
        return
    assert tt.commutator(x, y) == -tt.commutator(y, x)


@given(square_matrices(3), square_matrices(3), square_matrices(3), rationals, rationals)
def test_commutator_bilinear(x, y, z, c1, c2):
    if not (x.rows == y.rows == z.rows):
        return
    left = tt.commutator(x, c1 * y + c2 * z)
    assert left == c1 * tt.commutator(x, y) + c2 * tt.commutator(x, z)


def test_restricted_power_k_zero_identity():
    dom = Subspace.from_vectors(2, [(1, 0)])
    ok, witness = tt.restricted_power_bijective(RMatrix.zero(2), 0, dom, dom)
    assert ok
    assert witness == RMatrix.identity(1)


def test_restricted_power_worked_value():
    x = RMatrix([[0, 0], [-2, 0]])
    dom = Subspace.from_vectors(2, [(2, -1)])
    cod = Subspace.from_vectors(2, [(0, 1)])
    ok, witness = tt.restricted_power_bijective(x, 1, dom, cod)
    assert ok
    assert witness == RMatrix([[-4]])


def test_restricted_power_nilpotent_not_bijective():
    x = RMatrix([[0, 1], [0, 0]])
    ok, _ = tt.restricted_power_bijective(x, 2, Subspace.full(2), Subspace.full(2))
    assert not ok


def test_restricted_power_image_escapes():
    dom = Subspace.from_vectors(2, [(1, 0)])
    cod = Subspace.from_vectors(2, [(0, 1)])
    with pytest.raises(tt.ImageNotContained):
        tt.restricted_power_bijective(RMatrix.identity(2), 1, dom, cod)


def test_solve_system_direct_assignment():
    c = RMatrix([[1, 2], [3, 4]])
    particular, homogeneous = tt.solve_linear_matrix_system(
        2, [(lambda b: b, c)]
    )
    assert particular == c
    assert homogeneous == []


def test_solve_system_one_parameter_family():
    diag = RMatrix.diagonal([-1, 1])
    op = lambda b: tt.commutator(diag, b) + 2 * b
    particular, homogeneous = tt.solve_linear_matrix_system(2, [(op, 2 * diag)])
    assert len(homogeneous) == 1
    # every solution is [[-1, t], [0, 1]]
    for t in (Fraction(0), Fraction(3), Fraction(-1, 2)):
        known = particular + t * homogeneous[0]
        assert op(known) == 2 * diag
    assert particular[0][0] == -1
    assert particular[1][0] == 0
    assert particular[1][1] == 1
    assert homogeneous[0][0][0] == 0
    assert homogeneous[0][1][0] == 0
    assert homogeneous[0][1][1] == 0
    assert homogeneous[0][0][1] != 0


def test_solve_system_inconsistent():
    with pytest.raises(tt.InconsistentSystem):
        tt.solve_linear_matrix_system(
            2,
            [
                (lambda b: b, RMatrix.zero(2)),
                (lambda b: b, RMatrix.identity(2)),
            ],
        )


def test_generated_algebra_identity_only():
    assert tt.generated_algebra_dimension(2, [RMatrix.identity(2)]) == 1


def test_generated_algebra_full():
    action = tt.make_vd(1)
    dims = tt.generated_algebra_dimension(2, [action.h, action.e, action.f])
    assert dims == 4
