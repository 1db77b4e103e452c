"""Synthesis of a tetrahedral module structure from a thin reduced triad.

Given a certified thin reduced bidiagonal triad (A, A', A''), the pipeline
extracts the raising maps R = A - A'' and r = A' - A'' with the
proportionality scalar c and a = 1 - 1/c, and builds the fourth generator
B in the thin normal basis.  Let v_0 be the canonical vector of the bottom
A''-eigenspace and v_{k+1} = R v_k / (k+1); in Q = [v_0 ... v_d] the triad
is A'' = -h, A = -h + f, A' = -h + c f with h, e, f the weight-basis sl2
action of `make_vd(d)`, and the bracket constraints
[A'', B] = 2A'' - 2B and [B, A'] = 2B + 2A' are solved by the closed form
B = Q (-h - (4/c) e) Q^-1.  Then
B'  = (1/a - 1)^(-1) A'' + (a - 1)^(-1) B and
B'' = (1 - 1/a) A' - (1/a) B, the nine bracket identities tying the six
maps together are proved, the six matrices are assembled onto the edges of
a corner, and the module is verified end to end: all 54 relations (from 18
distinct brackets), ladder spectra, irreducibility (an exact Burnside test,
since every generator has a simple spectrum), and re-certification of all
four corner triads.  The module starts with the certificate's
eigenspaces of A, A' and A'', so only B, B' and B'' are decomposed.

B is unique.  A solution H of the homogeneous constraints commutes with
r = A' - A'', which is regular nilpotent on a thin triad, so
H = sum_k c_k r^k; since [A'', r^k] = 2k r^k the first constraint gives
(2k + 2) c_k = 0, hence H = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from triadtet.bdverify import StandardOrdering, TriadCertificate
from triadtet.linalg import (
    EigenDecomposition,
    EigenPair,
    RMatrix,
    basis_coordinates,
    commutator,
    restricted_power_bijective,
)
from triadtet.sl2 import make_vd
from triadtet.tet import (
    RelationReport,
    TetModule,
    corner_triad,
    corner_triads_are_bd_triads,
    irreducible_sufficient,
    spectrum_diameter,
    verify_tet_relations,
)


class SynthesisError(ValueError):
    """The synthesis pipeline cannot proceed on this input."""


class DegenerateDiameter(SynthesisError):
    """Raising maps are undefined at diameter 0 (R = r = 0)."""


class IdentityViolation(SynthesisError):
    """An identity that must hold for the constructed maps fails."""


@dataclass(frozen=True, eq=False)
class RaisingData:
    """Verified raising maps of a thin reduced triad of diameter >= 1.

    R = A - A'' and r = A' - A'' both carry the i-th eigenspace of A'' into
    the (i+1)-th, commute, and satisfy r = c R with c not in {0, 1};
    a = 1 - 1/c is the scalar the module construction is built around.
    """

    R: RMatrix
    r: RMatrix
    c: Fraction
    a: Fraction


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """A fully verified module synthesized from a triad certificate."""

    B: RMatrix
    B_prime: RMatrix
    B_dprime: RMatrix
    module: TetModule
    corner_assignment: tuple[int, int, int, int]
    report: RelationReport
    diameter: int
    algebra_dimension: int
    irreducible: bool
    corner_certificates: tuple[TriadCertificate, ...]
    b_solution_space_dim: int


def _require_thin_reduced(cert: TriadCertificate) -> None:
    if not isinstance(cert, TriadCertificate):
        raise TypeError("synthesis needs a TriadCertificate")
    if not cert.reduced:
        raise SynthesisError(
            f"triad is not reduced: sequences "
            f"{tuple(tuple(map(str, s)) for s in cert.sequences)}"
        )
    if not cert.thin:
        raise SynthesisError(f"triad is not thin: shape {cert.shape}")


def raising_maps(cert: TriadCertificate) -> RaisingData:
    """Extract and verify R, r, c, a from a thin reduced triad certificate.

    Requires diameter >= 1: at diameter 0 both differences vanish and no
    proportionality scalar exists.
    """
    _require_thin_reduced(cert)
    d = cert.diameter
    if d == 0:
        raise DegenerateDiameter(
            "raising maps are identically zero at diameter 0"
        )
    a_mat, ap_mat, app_mat = cert.matrices
    big_r = a_mat - app_mat
    small_r = ap_mat - app_mat
    if big_r.is_zero() or small_r.is_zero() or big_r == small_r:
        raise SynthesisError(
            "A, A', A'' are not pairwise distinct, contradicting certified "
            "structure at diameter >= 1"
        )

    spaces = cert.orderings[2].eigenspaces
    n = cert.dimension
    zero_space = None
    for i in range(d + 1):
        if i < d:
            target = spaces[i + 1]
        else:
            target = None
        for label, m in (("A - A''", big_r), ("A' - A''", small_r)):
            for b in spaces[i].basis:
                image = m.apply(b)
                if target is None:
                    if any(image):
                        raise SynthesisError(
                            f"{label} does not annihilate the top eigenspace"
                        )
                elif not target.contains(image):
                    raise SynthesisError(
                        f"{label} does not carry eigenspace {i} into eigenspace {i + 1}"
                    )
        if i < d:
            for label, m in (("A - A''", big_r), ("A' - A''", small_r)):
                ok, _ = restricted_power_bijective(m, 1, spaces[i], spaces[i + 1])
                if not ok:
                    raise SynthesisError(
                        f"{label} is not invertible from eigenspace {i} to {i + 1}"
                    )

    if commutator(big_r, small_r) != RMatrix.zero(n):
        raise SynthesisError("raising maps do not commute")

    probe = spaces[0].basis[0]
    r_image = big_r.apply(probe)
    s_image = small_r.apply(probe)
    k = next(i for i, v in enumerate(r_image) if v)
    c = s_image[k] / r_image[k]
    if small_r != c * big_r:
        raise SynthesisError(
            "A' - A'' is not a scalar multiple of A - A''"
        )
    if c == 0 or c == 1:
        raise SynthesisError(f"proportionality scalar c = {c} is degenerate")
    a = 1 - 1 / c
    if a == 0 or a == 1:
        raise SynthesisError(f"derived scalar a = {a} is degenerate")
    return RaisingData(R=big_r, r=small_r, c=c, a=a)


def _solve_b(cert: TriadCertificate, rd: RaisingData | None) -> RMatrix:
    """B from its closed form -h - (4/c) e in the thin normal basis Q.

    B = Q B_0 Q^-1 comes out of one row reduction: the coordinates of the
    columns of (Q B_0)^T = B_0^T Q^T in the columns of Q^T are B^T.
    """
    d = cert.diameter
    if d == 0:
        return RMatrix.zero(1)
    v = cert.orderings[2].eigenspaces[0].basis[0]
    rows = [v]
    for k in range(1, d + 1):
        v = tuple(x / k for x in rd.R.apply(v))
        # the v_k lie in distinct eigenspaces of A'', so Q is invertible
        # exactly when none of them vanishes
        if not any(v):
            raise RuntimeError(
                f"the thin normal basis is singular at v_{k}; this "
                "contradicts a theorem, so raising_maps itself is broken"
            )
        rows.append(v)
    q_t = RMatrix(rows)
    action = make_vd(d)
    b0 = -action.h - (4 / rd.c) * action.e
    (b_t,) = basis_coordinates(q_t, [b0.transpose() * q_t])
    return b_t.transpose()


def construct_B(cert: TriadCertificate, rd: RaisingData | None = None) -> RMatrix:
    """The unique B with [A'', B] = 2A'' - 2B and [B, A'] = 2B + 2A'.

    In the thin normal basis Q = [v_0 ... v_d], v_0 the canonical vector of
    the bottom A''-eigenspace and v_{k+1} = R v_k / (k+1), the triad reads
    A'' = -h, A = -h + f, A' = -h + c f, and B = -h - (4/c) e satisfies
    both constraints, so B = Q (-h - (4/c) e) Q^-1 costs d matrix-vector
    products and one row reduction.  `rd` must come from
    `raising_maps(cert)` and may be None only at diameter 0 (where the
    constraints force B = 0 on a 1-dimensional space).  Uniqueness is
    proved in the module docstring; `construct_B_prime_dprime` checks both
    constraints exactly, and the result completes (A', -A'', B) to a
    reduced thin bidiagonal triple.
    """
    _require_thin_reduced(cert)
    if cert.diameter >= 1 and rd is None:
        raise ValueError("raising data is required at diameter >= 1")
    return _solve_b(cert, rd)


def construct_B_prime_dprime(
    cert: TriadCertificate, rd: RaisingData | None, b: RMatrix
) -> tuple[RMatrix, RMatrix]:
    """Form B' and B'' from B and prove the expected identities.

    B'  = (1/a - 1)^(-1) A'' + (a - 1)^(-1) B,
    B'' = (1 - 1/a) A' - (1/a) B.  Verifies the nine bracket identities
    tying all six maps together; any failure raises IdentityViolation
    naming the identity.  The ten linear correlations among the six maps
    (such as A = (1-a)A' + aA'') follow from these two definitions and from
    r = c R, which `raising_maps` checks, so they are not re-checked.  At
    diameter 0 all maps are zero and the scalar a does not exist, so both
    results are zero and the checks are vacuous.
    """
    _require_thin_reduced(cert)
    a_mat, ap_mat, app_mat = cert.matrices
    n = cert.dimension
    if cert.diameter == 0:
        zero = RMatrix.zero(n)
        if b != zero:
            raise IdentityViolation("B must vanish at diameter 0")
        return zero, zero
    if rd is None:
        raise ValueError("raising data is required at diameter >= 1")
    a = rd.a
    inv_a = 1 / a
    bp = (1 / (inv_a - 1)) * app_mat + (1 / (a - 1)) * b
    bpp = (1 - inv_a) * ap_mat - inv_a * b

    brackets = (
        ("[A'',B] = 2A''-2B", app_mat, b, 2 * app_mat - 2 * b),
        ("[B,A'] = 2B+2A'", b, ap_mat, 2 * b + 2 * ap_mat),
        ("[B',A''] = 2B'+2A''", bp, app_mat, 2 * bp + 2 * app_mat),
        ("[B',B] = 2B'+2B", bp, b, 2 * bp + 2 * b),
        ("[B,B''] = 2B+2B''", b, bpp, 2 * b + 2 * bpp),
        ("[A',B''] = 2A'-2B''", ap_mat, bpp, 2 * ap_mat - 2 * bpp),
        ("[B'',B'] = 2B''+2B'", bpp, bp, 2 * bpp + 2 * bp),
        ("[B'',A] = 2B''+2A", bpp, a_mat, 2 * bpp + 2 * a_mat),
        ("[A,B'] = 2A-2B'", a_mat, bp, 2 * a_mat - 2 * bp),
    )
    for name, x, y, rhs in brackets:
        if commutator(x, y) != rhs:
            raise IdentityViolation(f"bracket identity failed: {name}")
    return bp, bpp


def _decomposition_of(ordering: StandardOrdering) -> EigenDecomposition:
    """The eigendecomposition a certified standard ordering already holds."""
    pairs = sorted(
        zip(ordering.eigenvalues, ordering.eigenspaces), key=lambda p: p[0]
    )
    return EigenDecomposition(
        tuple(EigenPair(value, space.dim, space) for value, space in pairs),
        True,
    )


def synthesize_tet(
    cert: TriadCertificate,
    corner_assignment: tuple[int, int, int, int] = (0, 1, 2, 3),
) -> SynthesisResult:
    """Build and fully verify the module with (A, A', A'') as a corner triad.

    corner_assignment = (r, s, t, u) places A on edge (r, u), A' on (s, u),
    A'' on (t, u), B on (t, s), B' on (r, t), and B'' on (s, r).  The
    default corner is at vertex 3 with sources ascending.  The returned
    module has passed all 54 relations, has ladder spectra of the triad's
    diameter, provably acts irreducibly, and all four of its corner triads
    re-certify as reduced bidiagonal triads.
    """
    _require_thin_reduced(cert)
    if sorted(corner_assignment) != [0, 1, 2, 3]:
        raise ValueError(
            f"corner assignment must be a permutation of (0,1,2,3), "
            f"got {corner_assignment}"
        )
    d = cert.diameter
    rd = raising_maps(cert) if d >= 1 else None
    b = _solve_b(cert, rd)
    bp, bpp = construct_B_prime_dprime(cert, rd, b)
    a_mat, ap_mat, app_mat = cert.matrices
    r_v, s_v, t_v, u_v = corner_assignment
    module = TetModule(
        {
            (r_v, u_v): a_mat,
            (s_v, u_v): ap_mat,
            (t_v, u_v): app_mat,
            (t_v, s_v): b,
            (r_v, t_v): bp,
            (s_v, r_v): bpp,
        }
    )
    for (i, j), ordering in zip(
        ((r_v, u_v), (s_v, u_v), (t_v, u_v)), cert.orderings
    ):
        module._seed_decomposition(i, j, _decomposition_of(ordering))
    report = verify_tet_relations(module)
    if not report.passed:
        first = report.violations[0][0]
        raise SynthesisError(
            f"constructed module fails its defining relations, first at {first}"
        )
    spec_d = spectrum_diameter(module)
    if spec_d != d:
        raise SynthesisError(
            f"module spectra have diameter {spec_d}, triad has {d}"
        )
    irreducible, algebra_dim = irreducible_sufficient(module)
    if not irreducible:
        raise SynthesisError(
            f"module is not certified irreducible: algebra dimension "
            f"{algebra_dim} < {module.dim ** 2}"
        )
    corner_certs = corner_triads_are_bd_triads(module)
    return SynthesisResult(
        B=b,
        B_prime=bp,
        B_dprime=bpp,
        module=module,
        corner_assignment=tuple(corner_assignment),
        report=report,
        diameter=d,
        algebra_dimension=algebra_dim,
        irreducible=irreducible,
        corner_certificates=corner_certs,
        b_solution_space_dim=0,
    )
