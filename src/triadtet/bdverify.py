"""Verification of bidiagonal pairs, triples, and triads.

Each verifier either returns a certificate carrying the discovered structure
(standard orderings, eigenvalue sequences, diameter, shape, bijection
witnesses) or a falsy Refutation naming the first axiom clause that failed
together with a concrete witness.  Certificates are truthy, refutations are
falsy, so callers can write `if (cert := verify_bd_triad(a, ap, app)): ...`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from triadtet.linalg import (
    EigenDecomposition,
    ImageNotContained,
    RMatrix,
    Subspace,
    commutator,
    eigen_decompose,
    restricted_power_bijective,
)

ORDERING_SEARCH_LIMIT = 9


class NoStandardOrdering(ValueError):
    """No ordering of the eigenspaces satisfies the containment conditions."""


class AmbiguousOrdering(ValueError):
    """More than one ordering satisfies the containment conditions."""


class OrderingSearchTooLarge(ValueError):
    """Exhaustive ordering search refused beyond the supported size."""


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


def _within(images: Sequence[tuple[Fraction, ...]], space: Subspace) -> bool:
    return all(space.contains(v) for v in images)


def _find_ordering_mixed(
    decomp: EigenDecomposition,
    raising: Sequence[RMatrix],
    lowering: Sequence[RMatrix],
) -> StandardOrdering:
    """Order eigenspaces so raising actors step forward, lowering step back.

    An ordering U_0..U_d is admissible when every raising actor X satisfies
    X U_i <= U_i + U_{i+1} (with X U_d <= U_d) and every lowering actor Y
    satisfies Y U_i <= U_{i-1} + U_i (with Y U_0 <= U_0).  The successor
    relation "U can be followed by W" is computed for all ordered pairs; when
    every out-degree is at most 1 the admissible chains are forced and are
    enumerated directly, otherwise a depth-first search enumerates candidate
    orderings (refused above ORDERING_SEARCH_LIMIT eigenspaces).
    """
    spaces = decomp.eigenspaces
    values = decomp.eigenvalues
    k = len(spaces)
    if k == 1:
        return StandardOrdering(spaces, values)
    ambient = spaces[0].ambient_dim

    images: list[list[list[tuple[Fraction, ...]]]] = []
    for actor in list(raising) + list(lowering):
        images.append(
            [[actor.apply(b) for b in space.basis] for space in spaces]
        )
    raising_images = images[: len(raising)]
    lowering_images = images[len(raising):]

    sums: dict[tuple[int, int], Subspace] = {}

    def pair_sum(u: int, w: int) -> Subspace:
        key = (u, w) if u < w else (w, u)
        if key not in sums:
            sums[key] = spaces[key[0]] + spaces[key[1]]
        return sums[key]

    def edge(u: int, w: int) -> bool:
        target = pair_sum(u, w)
        return all(
            _within(imgs[u], target) for imgs in raising_images
        ) and all(_within(imgs[w], target) for imgs in lowering_images)

    def start_ok(u: int) -> bool:
        return all(_within(imgs[u], spaces[u]) for imgs in lowering_images)

    def end_ok(u: int) -> bool:
        return all(_within(imgs[u], spaces[u]) for imgs in raising_images)

    succ = {u: [w for w in range(k) if w != u and edge(u, w)] for u in range(k)}
    starts = [u for u in range(k) if start_ok(u)]

    found: list[tuple[int, ...]] = []
    if all(len(ws) <= 1 for ws in succ.values()):
        for s in starts:
            path = [s]
            seen = {s}
            while len(path) < k:
                nxt = [w for w in succ[path[-1]] if w not in seen]
                if not nxt:
                    break
                path.append(nxt[0])
                seen.add(nxt[0])
            if len(path) == k and end_ok(path[-1]):
                found.append(tuple(path))
                if len(found) == 2:
                    break
    else:
        if k > ORDERING_SEARCH_LIMIT:
            raise OrderingSearchTooLarge(
                f"ordering search over {k} eigenspaces with branching successors "
                f"exceeds the supported limit of {ORDERING_SEARCH_LIMIT}"
            )

        def extend(path: list[int], seen: set[int]) -> None:
            if len(found) >= 2:
                return
            if len(path) == k:
                if end_ok(path[-1]):
                    found.append(tuple(path))
                return
            for w in succ[path[-1]]:
                if w not in seen:
                    path.append(w)
                    seen.add(w)
                    extend(path, seen)
                    path.pop()
                    seen.remove(w)

        for s in starts:
            extend([s], {s})
            if len(found) >= 2:
                break

    if not found:
        raise NoStandardOrdering(
            "no ordering of the eigenspaces satisfies the containment conditions"
        )
    if len(found) > 1:
        raise AmbiguousOrdering(
            "more than one ordering satisfies the containment conditions"
        )
    order = found[0]
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
    """
    if direction == "raising":
        return _find_ordering_mixed(primary, actors, ())
    if direction == "lowering":
        return _find_ordering_mixed(primary, (), actors)
    raise ValueError(f"direction must be 'raising' or 'lowering', got {direction!r}")


_PAIR_LABELS = ("A", "A'")
_TRIAD_LABELS = ("A", "A'", "A''")


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


def _not_diagonalizable(dec: EigenDecomposition, label: str) -> Refutation | None:
    if dec.diagonalizable:
        return None
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


def _decompose_all(
    matrices: Sequence[RMatrix], labels: Sequence[str]
) -> tuple[list[EigenDecomposition], Refutation | None]:
    decomps = []
    for label, m in zip(labels, matrices):
        dec = eigen_decompose(m)
        bad = _not_diagonalizable(dec, label)
        if bad is not None:
            return [], bad
        decomps.append(dec)
    return decomps, None


def _ordering_or_refutation(
    decomp: EigenDecomposition,
    raising: Sequence[RMatrix],
    lowering: Sequence[RMatrix],
    label: str,
) -> StandardOrdering | Refutation:
    try:
        return _find_ordering_mixed(decomp, raising, lowering)
    except NoStandardOrdering as exc:
        return Refutation("ordering", str(exc), label)
    except AmbiguousOrdering as exc:
        return Refutation("ordering", str(exc), label)


def _bijection_checks(
    checks: Sequence[tuple[str, RMatrix, int, Subspace, Subspace, int]],
) -> tuple[dict, Refutation | None]:
    """Run restricted-power bijectivity checks, first failure wins.

    Each check is (family label, matrix, power, domain, codomain, index).
    Returns the witness dict keyed (family, index).
    """
    witnesses = {}
    for family, matrix, power, dom, cod, idx in checks:
        label = family.split()[0]
        try:
            ok, witness = restricted_power_bijective(matrix, power, dom, cod)
        except ImageNotContained as exc:
            return witnesses, Refutation(
                "bijection",
                f"{family}: {exc}",
                label,
                index=idx,
            )
        if not ok:
            return witnesses, Refutation(
                "bijection",
                f"{family}: restricted power is not invertible",
                label,
                index=idx,
                witness=witness,
            )
        witnesses[(family, idx)] = witness
    return witnesses, None


def verify_bd_pair(a: RMatrix, a_prime: RMatrix) -> PairCertificate | Refutation:
    """Certify or refute the bidiagonal-pair axioms for (A, A').

    Checks: both diagonalizable; eigenspace orderings along which the other
    transformation raises; the restricted commutator powers
    [A',A]^(d-2i): V_i -> V_{d-i} and [A,A']^(D-2i): V'_i -> V'_{D-i}
    invertible for 0 <= i <= d/2 (resp. D/2).  On success the two diameters
    provably agree.
    """
    bad = _input_check([a, a_prime])
    if bad is not None:
        return bad
    decomps, bad = _decompose_all([a, a_prime], _PAIR_LABELS)
    if bad is not None:
        return bad

    ord_a = _ordering_or_refutation(decomps[0], [a_prime], (), "A")
    if isinstance(ord_a, Refutation):
        return ord_a
    ord_ap = _ordering_or_refutation(decomps[1], [a], (), "A'")
    if isinstance(ord_ap, Refutation):
        return ord_ap
    d = ord_a.diameter
    dd = ord_ap.diameter

    checks = []
    com1 = commutator(a_prime, a)
    for i in range(d // 2 + 1):
        checks.append(
            (
                "A [A',A]",
                com1,
                d - 2 * i,
                ord_a.eigenspaces[i],
                ord_a.eigenspaces[d - i],
                i,
            )
        )
    com2 = commutator(a, a_prime)
    for i in range(dd // 2 + 1):
        checks.append(
            (
                "A' [A,A']",
                com2,
                dd - 2 * i,
                ord_ap.eigenspaces[i],
                ord_ap.eigenspaces[dd - i],
                i,
            )
        )
    witnesses, bad = _bijection_checks(checks)
    if bad is not None:
        return bad
    if d != dd:
        raise RuntimeError(
            "pair verified with unequal diameters; this contradicts a theorem, "
            "so the verifier itself is broken"
        )
    return PairCertificate(
        diameter=d,
        orderings=(ord_a, ord_ap),
        sequences=(ord_a.eigenvalues, ord_ap.eigenvalues),
        bijection_witnesses=witnesses,
        matrices=(a, a_prime),
    )


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


def verify_bd_triple(
    a: RMatrix, a_prime: RMatrix, a_dprime: RMatrix
) -> TripleCertificate | Refutation:
    """Certify or refute the bidiagonal-triple axioms for (A, A', A'').

    On each transformation's eigenspace chain the next transformation (in
    cyclic order) raises and the previous one lowers, and for each chain the
    two restricted commutator-power families are invertible in opposite
    directions.
    """
    bad = _input_check([a, a_prime, a_dprime])
    if bad is not None:
        return bad
    decomps, bad = _decompose_all([a, a_prime, a_dprime], _TRIAD_LABELS)
    if bad is not None:
        return bad

    plans = (
        ("A", decomps[0], [a_prime], [a_dprime]),
        ("A'", decomps[1], [a_dprime], [a]),
        ("A''", decomps[2], [a], [a_prime]),
    )
    orderings = []
    for label, decomp, raising, lowering in plans:
        result = _ordering_or_refutation(decomp, raising, lowering, label)
        if isinstance(result, Refutation):
            return result
        orderings.append(result)
    ord_a, ord_ap, ord_app = orderings
    d, dd, ddd = (o.diameter for o in orderings)

    checks = []
    pairs = (
        ("A", ord_a, d, a, a_prime, a_dprime),
        ("A'", ord_ap, dd, a_prime, a_dprime, a),
        ("A''", ord_app, ddd, a_dprime, a, a_prime),
    )
    for label, ordering, diam, base, nxt, prv in pairs:
        up = commutator(nxt, base)
        down = commutator(prv, base)
        for i in range(diam // 2 + 1):
            checks.append(
                (
                    f"{label} up",
                    up,
                    diam - 2 * i,
                    ordering.eigenspaces[i],
                    ordering.eigenspaces[diam - i],
                    i,
                )
            )
            checks.append(
                (
                    f"{label} down",
                    down,
                    diam - 2 * i,
                    ordering.eigenspaces[diam - i],
                    ordering.eigenspaces[i],
                    i,
                )
            )
    witnesses, bad = _bijection_checks(checks)
    if bad is not None:
        return bad
    if not (d == dd == ddd):
        raise RuntimeError(
            "triple verified with unequal diameters; this contradicts a theorem, "
            "so the verifier itself is broken"
        )
    shape = _shape_from_orderings(orderings, d)
    return TripleCertificate(
        diameter=d,
        orderings=tuple(orderings),
        sequences=tuple(o.eigenvalues for o in orderings),
        shape=shape,
        thin=all(r == 1 for r in shape),
        bijection_witnesses=witnesses,
        matrices=(a, a_prime, a_dprime),
    )


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
    bad = _input_check([a, a_prime, a_dprime])
    if bad is not None:
        return bad
    decomps, bad = _decompose_all([a, a_prime, a_dprime], _TRIAD_LABELS)
    if bad is not None:
        return bad
    return _verify_bd_triad_decomposed((a, a_prime, a_dprime), decomps)


def _verify_bd_triad_decomposed(
    matrices: Sequence[RMatrix], decomps: Sequence[EigenDecomposition]
) -> TriadCertificate | Refutation:
    """`verify_bd_triad` given the eigendecompositions of its three inputs.

    The matrices must be square and of one size.  Callers that already hold
    the decompositions, such as the corner re-certification of a module,
    skip recomputing them; the certificate is the same either way.
    """
    for label, dec in zip(_TRIAD_LABELS, decomps):
        bad = _not_diagonalizable(dec, label)
        if bad is not None:
            return bad
    a, a_prime, a_dprime = matrices
    plans = (
        ("A", decomps[0], [a_prime, a_dprime]),
        ("A'", decomps[1], [a_dprime, a]),
        ("A''", decomps[2], [a, a_prime]),
    )
    orderings = []
    for label, decomp, raising in plans:
        result = _ordering_or_refutation(decomp, raising, (), label)
        if isinstance(result, Refutation):
            return result
        orderings.append(result)
    d, dd, ddd = (o.diameter for o in orderings)

    if max(d, dd, ddd) == 0 and a.rows > 1:
        return Refutation(
            "degenerate",
            f"all three transformations are scalar on a {a.rows}-dimensional "
            "space; a diameter-0 triad is accepted only on dimension 1",
        )

    checks = []
    plans_iii = (
        ("A", orderings[0], d, a, a_prime, a_dprime),
        ("A'", orderings[1], dd, a_prime, a_dprime, a),
        ("A''", orderings[2], ddd, a_dprime, a, a_prime),
    )
    for label, ordering, diam, base, other1, other2 in plans_iii:
        com1 = commutator(other1, base)
        com2 = commutator(other2, base)
        for i in range(diam // 2 + 1):
            for tag, com in ((f"{label} via1", com1), (f"{label} via2", com2)):
                checks.append(
                    (
                        tag,
                        com,
                        diam - 2 * i,
                        ordering.eigenspaces[i],
                        ordering.eigenspaces[diam - i],
                        i,
                    )
                )
    witnesses, bad = _bijection_checks(checks)
    if bad is not None:
        return bad
    if not (d == dd == ddd):
        raise RuntimeError(
            "triad verified with unequal diameters; this contradicts a theorem, "
            "so the verifier itself is broken"
        )
    shape = _shape_from_orderings(orderings, d)
    return TriadCertificate(
        diameter=d,
        orderings=tuple(orderings),
        sequences=tuple(o.eigenvalues for o in orderings),
        shape=shape,
        thin=all(r == 1 for r in shape),
        bijection_witnesses=witnesses,
        matrices=(a, a_prime, a_dprime),
    )


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
