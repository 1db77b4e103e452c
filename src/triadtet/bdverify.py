"""Verification of bidiagonal pairs, triples, and triads.

Each verifier either returns a certificate carrying the discovered structure
(standard orderings, eigenvalue sequences, diameter, shape, bijection
witnesses) or a falsy Refutation naming the first axiom clause that failed
together with a concrete witness.  Certificates are truthy, refutations are
falsy, so callers can write `if (cert := verify_bd_triad(a, ap, app)): ...`.

The three verifiers are one core read from a plan: per transformation, the
actors that raise and lower its eigenspace chain and its commutator-power
families.  A standard ordering is found without search.  V is the direct
sum of the eigenspaces U_u, so the image of a basis vector of U_u has unique
coordinates in them.  Under a raising actor, a nonzero coordinate in U_w
(w != u) forces U_w to follow U_u directly; under a lowering actor it forces
U_w to precede U_u directly.  No ordering exists when an image leaves the
sum of the eigenspaces, when some eigenspace gets two forced successors or
two forced predecessors, or when the forced edges close a cycle.  Otherwise
the forced edges form f disjoint paths, and an ordering is admissible
exactly when it keeps every forced edge adjacent, that is, when it
concatenates the f paths in some order.  There are f! admissible orderings,
so the standard ordering exists and is unique exactly when f = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from triadtet.linalg import (
    EigenDecomposition,
    ImageNotContained,
    RMatrix,
    Subspace,
    basis_coordinates,
    commutator,
    eigen_decompose,
    restricted_power_bijective,
)


class NoStandardOrdering(ValueError):
    """No ordering of the eigenspaces satisfies the containment conditions."""


class AmbiguousOrdering(ValueError):
    """More than one ordering satisfies the containment conditions."""


class DimensionMismatch(RuntimeError):
    """Eigenspace dimensions disagree where certified structure forces agreement."""


@dataclass(frozen=True)
class StandardOrdering:
    """An ordering of a transformation's eigenspaces with its eigenvalues."""

    eigenspaces: tuple[Subspace, ...]
    eigenvalues: tuple[Fraction, ...]

    @property
    def diameter(self) -> int:
        return len(self.eigenspaces) - 1


@dataclass(frozen=True)
class Refutation:
    """Why an input is not a bidiagonal pair/triple/triad.

    clause is one of: dimensions, spectrum, diagonalizable, ordering,
    degenerate, bijection.  `transformation` names the offender ("A", "A'",
    "A''") when one is singled out; `index` points at the failing eigenspace
    when relevant.  Falsy, so `if not result:` reads naturally.
    """

    clause: str
    detail: str
    transformation: str | None = None
    index: int | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return False

    def __str__(self) -> str:
        where = f" [{self.transformation}]" if self.transformation else ""
        at = f" at index {self.index}" if self.index is not None else ""
        return f"refuted ({self.clause}){where}{at}: {self.detail}"


@dataclass(frozen=True, eq=False)
class PairCertificate:
    """Verified bidiagonal-pair structure."""

    diameter: int
    orderings: tuple[StandardOrdering, StandardOrdering]
    sequences: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    bijection_witnesses: dict
    matrices: tuple[RMatrix, RMatrix]


@dataclass(frozen=True, eq=False)
class TripleCertificate:
    """Verified bidiagonal-triple structure."""

    diameter: int
    orderings: tuple[StandardOrdering, StandardOrdering, StandardOrdering]
    sequences: tuple[
        tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]
    ]
    shape: tuple[int, ...]
    thin: bool
    bijection_witnesses: dict
    matrices: tuple[RMatrix, RMatrix, RMatrix]


@dataclass(frozen=True, eq=False)
class TriadCertificate:
    """Verified bidiagonal-triad structure.

    sequences[k][i] is the eigenvalue of the k-th transformation on the i-th
    eigenspace of its standard ordering; shape[i] is the common dimension
    rho_i of the six aligned eigenspaces.
    """

    diameter: int
    orderings: tuple[StandardOrdering, StandardOrdering, StandardOrdering]
    sequences: tuple[
        tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]
    ]
    shape: tuple[int, ...]
    thin: bool
    bijection_witnesses: dict
    matrices: tuple[RMatrix, RMatrix, RMatrix]

    @property
    def dimension(self) -> int:
        return self.matrices[0].rows

    @property
    def reduced(self) -> bool:
        d = self.diameter
        target = tuple(Fraction(2 * i - d) for i in range(d + 1))
        return all(seq == target for seq in self.sequences)


_NO_ORDERING = "no ordering of the eigenspaces satisfies the containment conditions"


def _standard_ordering(
    decomp: EigenDecomposition,
    raising: Sequence[RMatrix],
    lowering: Sequence[RMatrix],
) -> StandardOrdering:
    """Order eigenspaces so raising actors step forward, lowering step back.

    An ordering U_0..U_d is admissible when every raising actor X satisfies
    X U_i <= U_i + U_{i+1} (with X U_d <= U_d) and every lowering actor Y
    satisfies Y U_i <= U_{i-1} + U_i (with Y U_0 <= U_0).  One row reduction
    of [P | X_1 P | ...], P holding the eigenspace bases as columns, gives
    the coordinates that force the edges; the forced paths are then followed
    as the module docstring describes.
    """
    spaces = decomp.eigenspaces
    values = decomp.eigenvalues
    k = len(spaces)
    if k == 1:
        return StandardOrdering(spaces, values)
    # block[c] is the eigenspace that column c of P belongs to
    block = [u for u, space in enumerate(spaces) for _ in space.basis]
    p = RMatrix([b for space in spaces for b in space.basis]).transpose()
    coords = basis_coordinates(p, [x * p for x in (*raising, *lowering)])
    if coords is None:
        raise NoStandardOrdering(_NO_ORDERING)

    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    for t, c in enumerate(coords):
        for row, w in enumerate(block):
            for col, u in enumerate(block):
                if w == u or not c[row][col]:
                    continue
                src, dst = (u, w) if t < len(raising) else (w, u)
                if succ.setdefault(src, dst) != dst or pred.setdefault(dst, src) != src:
                    raise NoStandardOrdering(_NO_ORDERING)

    paths = []
    for start in range(k):
        if start not in pred:
            path = [start]
            while path[-1] in succ:
                path.append(succ[path[-1]])
            paths.append(path)
    if sum(map(len, paths)) < k:
        # every eigenspace off the paths lies on a cycle of forced edges
        raise NoStandardOrdering(_NO_ORDERING)
    if len(paths) > 1:
        raise AmbiguousOrdering(
            "more than one ordering satisfies the containment conditions"
        )
    order = paths[0]
    return StandardOrdering(
        tuple(spaces[u] for u in order), tuple(values[u] for u in order)
    )


def find_standard_ordering(
    primary: EigenDecomposition,
    actors: Sequence[RMatrix],
    direction: str = "raising",
) -> StandardOrdering:
    """Unique eigenspace ordering along which every actor steps one way.

    direction "raising" demands X U_i <= U_i + U_{i+1} for every actor X;
    "lowering" demands X U_i <= U_{i-1} + U_i.  Raises NoStandardOrdering or
    AmbiguousOrdering when the ordering does not exist or is not unique.

    No search is made.  Each nonzero coordinate that an actor's image of
    U_u has in another eigenspace U_w forces U_w to sit directly after U_u
    (before it, for "lowering").  The forced edges either break (a second
    successor or predecessor, a cycle, an image outside the eigenspaces)
    or form f disjoint paths, whose f! concatenations are exactly the
    admissible orderings.
    """
    if direction == "raising":
        return _standard_ordering(primary, actors, ())
    if direction == "lowering":
        return _standard_ordering(primary, (), actors)
    raise ValueError(f"direction must be 'raising' or 'lowering', got {direction!r}")


_TRIAD_LABELS = ("A", "A'", "A''")


@dataclass(frozen=True)
class _Plan:
    """One verifier as data; inputs are indexed as in _TRIAD_LABELS.

    steps[k] is (raising, lowering, families) for input k: the indices of
    the inputs that raise and that lower its eigenspace chain, and its
    commutator families as (witness tag, other index, up).  The family
    [X_other, X_k]^(d-2i) must map U_i onto U_{d-i} when up and U_{d-i}
    onto U_i otherwise, for 0 <= i <= d/2.  `degenerate` refuses a
    diameter-0 input off dimension 1.
    """

    kind: str
    certificate: type
    steps: tuple
    degenerate: bool = False


_PAIR = _Plan(
    "pair",
    PairCertificate,
    (
        ((1,), (), (("A [A',A]", 1, True),)),
        ((0,), (), (("A' [A,A']", 0, True),)),
    ),
)
_TRIPLE = _Plan(
    "triple",
    TripleCertificate,
    (
        ((1,), (2,), (("A up", 1, True), ("A down", 2, False))),
        ((2,), (0,), (("A' up", 2, True), ("A' down", 0, False))),
        ((0,), (1,), (("A'' up", 0, True), ("A'' down", 1, False))),
    ),
)
_TRIAD = _Plan(
    "triad",
    TriadCertificate,
    (
        ((1, 2), (), (("A via1", 1, True), ("A via2", 2, True))),
        ((2, 0), (), (("A' via1", 2, True), ("A' via2", 0, True))),
        ((0, 1), (), (("A'' via1", 0, True), ("A'' via2", 1, True))),
    ),
    degenerate=True,
)


def _input_check(matrices: Sequence[RMatrix]) -> Refutation | None:
    n = None
    for label, m in zip(_TRIAD_LABELS, matrices):
        if not isinstance(m, RMatrix):
            raise TypeError(f"{label} must be an RMatrix")
        if not m.is_square():
            return Refutation(
                "dimensions", f"{label} is {m.rows}x{m.cols}, not square", label
            )
        if n is None:
            n = m.rows
        elif m.rows != n:
            return Refutation(
                "dimensions",
                f"{label} is {m.rows}x{m.rows} but A is {n}x{n}",
                label,
            )
    return None


def _shape_from_orderings(
    orderings: Sequence[StandardOrdering], d: int
) -> tuple[int, ...]:
    shape = []
    for i in range(d + 1):
        dims = {
            o.eigenspaces[i].dim for o in orderings
        } | {o.eigenspaces[d - i].dim for o in orderings}
        if len(dims) != 1:
            raise DimensionMismatch(
                f"aligned eigenspace dimensions disagree at index {i}: "
                "this contradicts certified structure"
            )
        shape.append(dims.pop())
    return tuple(shape)


def _verify(
    plan: _Plan,
    matrices: Sequence[RMatrix],
    decomps: Iterable[EigenDecomposition] | None = None,
) -> PairCertificate | TripleCertificate | TriadCertificate | Refutation:
    """Certify or refute `matrices` against `plan`, first failing clause wins.

    Clauses run in order: dimensions, diagonalizable, ordering, degenerate,
    bijection.  Without `decomps` the inputs are checked and decomposed one
    at a time, so a defective A is refuted before A' is decomposed.  Callers
    that already hold the decompositions of square inputs of one size, such
    as the corner re-certification of a module, pass them; the certificate
    is the same either way.
    """
    if decomps is None:
        bad = _input_check(matrices)
        if bad is not None:
            return bad
        decomps = (eigen_decompose(m) for m in matrices)
    checked = []
    for label, dec in zip(_TRIAD_LABELS, decomps):
        if not dec.diagonalizable:
            defective = next(
                p.value
                for p in dec.pairs
                if p.geometric_multiplicity < p.algebraic_multiplicity
            )
            return Refutation(
                "diagonalizable",
                f"{label} has a defective eigenvalue {defective}",
                label,
                witness=dec,
            )
        checked.append(dec)

    orderings = []
    for label, dec, (raising, lowering, _) in zip(_TRIAD_LABELS, checked, plan.steps):
        try:
            ordering = _standard_ordering(
                dec, [matrices[r] for r in raising], [matrices[w] for w in lowering]
            )
        except (NoStandardOrdering, AmbiguousOrdering) as exc:
            return Refutation("ordering", str(exc), label)
        orderings.append(ordering)

    n = matrices[0].rows
    if plan.degenerate and n > 1 and all(o.diameter == 0 for o in orderings):
        return Refutation(
            "degenerate",
            f"all three transformations are scalar on a {n}-dimensional "
            "space; a diameter-0 triad is accepted only on dimension 1",
        )

    witnesses = {}
    for label, base, ordering, (_, _, families) in zip(
        _TRIAD_LABELS, matrices, orderings, plan.steps
    ):
        d = ordering.diameter
        powers = [
            (tag, commutator(matrices[other], base), up)
            for tag, other, up in families
        ]
        for i in range(d // 2 + 1):
            low, high = ordering.eigenspaces[i], ordering.eigenspaces[d - i]
            for tag, com, up in powers:
                dom, cod = (low, high) if up else (high, low)
                try:
                    ok, witness = restricted_power_bijective(com, d - 2 * i, dom, cod)
                except ImageNotContained as exc:
                    return Refutation("bijection", f"{tag}: {exc}", label, index=i)
                if not ok:
                    return Refutation(
                        "bijection",
                        f"{tag}: restricted power is not invertible",
                        label,
                        index=i,
                        witness=witness,
                    )
                witnesses[(tag, i)] = witness

    d = orderings[0].diameter
    if any(o.diameter != d for o in orderings):
        raise RuntimeError(
            f"{plan.kind} verified with unequal diameters; this contradicts a "
            "theorem, so the verifier itself is broken"
        )
    fields = {}
    if plan is not _PAIR:
        shape = _shape_from_orderings(orderings, d)
        fields = {"shape": shape, "thin": all(r == 1 for r in shape)}
    return plan.certificate(
        diameter=d,
        orderings=tuple(orderings),
        sequences=tuple(o.eigenvalues for o in orderings),
        bijection_witnesses=witnesses,
        matrices=tuple(matrices),
        **fields,
    )


def verify_bd_pair(a: RMatrix, a_prime: RMatrix) -> PairCertificate | Refutation:
    """Certify or refute the bidiagonal-pair axioms for (A, A').

    Checks: both diagonalizable; eigenspace orderings along which the other
    transformation raises; the restricted commutator powers
    [A',A]^(d-2i): V_i -> V_{d-i} and [A,A']^(D-2i): V'_i -> V'_{D-i}
    invertible for 0 <= i <= d/2 (resp. D/2).  On success the two diameters
    provably agree.
    """
    return _verify(_PAIR, (a, a_prime))


def verify_bd_triple(
    a: RMatrix, a_prime: RMatrix, a_dprime: RMatrix
) -> TripleCertificate | Refutation:
    """Certify or refute the bidiagonal-triple axioms for (A, A', A'').

    On each transformation's eigenspace chain the next transformation (in
    cyclic order) raises and the previous one lowers, and for each chain the
    two restricted commutator-power families are invertible in opposite
    directions.
    """
    return _verify(_TRIPLE, (a, a_prime, a_dprime))


def verify_bd_triad(
    a: RMatrix, a_prime: RMatrix, a_dprime: RMatrix
) -> TriadCertificate | Refutation:
    """Certify or refute the bidiagonal-triad axioms for (A, A', A'').

    On each transformation's eigenspace chain BOTH other transformations
    raise, and on the lower half of each chain both restricted
    commutator-power families map invertibly onto the mirrored eigenspace.
    A diameter-0 input certifies only on a 1-dimensional space: with a single
    eigenspace per transformation all containments and empty-power bijections
    hold vacuously, and off dimension 1 that degenerate structure carries
    none of the triad's content (clause `degenerate`).
    """
    return _verify(_TRIAD, (a, a_prime, a_dprime))


def shape_of(cert: TriadCertificate) -> tuple[tuple[int, ...], bool]:
    """Shape (rho_0, ..., rho_d) and thinness, recomputed from a certificate."""
    shape = _shape_from_orderings(cert.orderings, cert.diameter)
    return shape, all(r == 1 for r in shape)


def _matrices_of(triad: object) -> tuple[RMatrix, RMatrix, RMatrix]:
    if hasattr(triad, "matrices"):
        return triad.matrices
    a, ap, app = triad
    return a, ap, app


def _affine_solve(x1: RMatrix, x2: RMatrix) -> tuple[Fraction, Fraction] | None:
    """Solve x1 = rho*x2 + sigma*I with rho nonzero, entrywise."""
    n = x1.rows
    rho = None
    for i in range(n):
        for j in range(n):
            if i != j and x2[i][j]:
                rho = x1[i][j] / x2[i][j]
                break
        if rho is not None:
            break
    if rho is None:
        # x2 has no offdiagonal part; try two diagonal equations
        diag_vals = {x2[i][i] for i in range(n)}
        if len(diag_vals) >= 2:
            i0 = 0
            i1 = next(i for i in range(n) if x2[i][i] != x2[0][0])
            denom = x2[i0][i0] - x2[i1][i1]
            rho = (x1[i0][i0] - x1[i1][i1]) / denom
        else:
            rho = Fraction(1)
    if not rho:
        return None
    sigma = x1[0][0] - rho * x2[0][0]
    expected = rho * x2 + sigma * RMatrix.identity(n)
    if expected != x1:
        return None
    return rho, sigma


def affine_equivalent_triads(
    triad1: object, triad2: object
) -> tuple[bool, tuple[Fraction, ...] | str]:
    """Componentwise affine equivalence of two triads on the same space.

    Accepts certificates or plain 3-tuples of matrices.  Returns
    (True, (r, s, t, u, v, w)) with A1 = r*A2 + s*I and so on, or
    (False, label) naming the first component with no affine witness.
    """
    m1 = _matrices_of(triad1)
    m2 = _matrices_of(triad2)
    if any(x.rows != m1[0].rows for x in m1 + m2):
        raise ValueError("both triads must act on the same space")
    params: list[Fraction] = []
    for label, x1, x2 in zip(_TRIAD_LABELS, m1, m2):
        solved = _affine_solve(x1, x2)
        if solved is None:
            return False, label
        params.extend(solved)
    return True, tuple(params)
