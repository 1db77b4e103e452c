"""Modules for the six-edge Lie presentation on four vertices.

A TetModule holds twelve generator matrices X_ij (i != j in {0,1,2,3}) with
X_ji = -X_ij built into the storage.  The defining relations are 6
antisymmetry identities, 24 corner identities
[X_hi, X_ij] = 2 X_hi + 2 X_ij, and 24 Dolan-Grady identities
[X_hi, [X_hi, [X_hi, X_jk]]] = 4 [X_hi, X_jk]; all 54 are decided from 18
distinct brackets.  Corner triads, face triples, conforming spectra, and an
irreducibility test give the structural views used by the synthesis
pipeline.  A module decomposes each of its six stored generators at most
once; the spectral checks share those decompositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from triadtet.bdverify import _TRIAD, TriadCertificate, _verify
from triadtet.linalg import (
    EigenDecomposition,
    EigenPair,
    IrrationalSpectrum,
    RMatrix,
    basis_coordinates,
    commutator,
    eigen_decompose,
    generated_algebra_dimension,
)
from triadtet.sl2 import EquitableTriple

VERTICES = (0, 1, 2, 3)
CANONICAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
OPPOSITE_EDGES = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


class NonConformingSpectrum(ValueError):
    """Some generator's spectrum is not {d, d-2, ..., -d} for a common d."""


class CornerTriadRefuted(ValueError):
    """A corner triad of a module failed bidiagonal-triad verification."""

    def __init__(self, vertex: int, refutation: object):
        self.vertex = vertex
        self.refutation = refutation
        super().__init__(f"corner triad at vertex {vertex}: {refutation}")


def _negated(dec: EigenDecomposition) -> EigenDecomposition:
    """-X from X: the same eigenspaces, eigenvalues negated and reversed."""
    return EigenDecomposition(
        tuple(
            EigenPair(-p.value, p.algebraic_multiplicity, p.eigenspace)
            for p in reversed(dec.pairs)
        ),
        dec.diagonalizable,
    )


class TetModule:
    """Twelve generator matrices with antisymmetry built in.

    Construct from a mapping {(i, j): matrix}; keys may use either
    orientation, both orientations may be given when consistent, and all six
    edges must be covered.
    """

    __slots__ = ("_dim", "_gens", "_eigen")

    def __init__(self, generators: Mapping[tuple[int, int], RMatrix]):
        stored: dict[tuple[int, int], RMatrix] = {}
        dim = None
        for (i, j), m in generators.items():
            if i == j or i not in VERTICES or j not in VERTICES:
                raise ValueError(f"invalid edge ({i},{j})")
            if not m.is_square():
                raise ValueError(f"generator ({i},{j}) must be square")
            if dim is None:
                dim = m.rows
            elif m.rows != dim:
                raise ValueError("generators must act on the same space")
            key, value = ((i, j), m) if i < j else ((j, i), -m)
            if key in stored:
                if stored[key] != value:
                    raise ValueError(
                        f"generators for edge {key} given in both orientations "
                        "but not antisymmetric"
                    )
            else:
                stored[key] = value
        if set(stored) != set(CANONICAL_EDGES):
            missing = sorted(set(CANONICAL_EDGES) - set(stored))
            raise ValueError(f"missing generators for edges {missing}")
        self._dim = dim
        self._gens = stored
        self._eigen: dict[tuple[int, int], EigenDecomposition] = {}

    @classmethod
    def zero(cls, dim: int) -> "TetModule":
        z = RMatrix.zero(dim, dim)
        return cls({edge: z for edge in CANONICAL_EDGES})

    @property
    def dim(self) -> int:
        return self._dim

    def gen(self, i: int, j: int) -> RMatrix:
        """Generator X_ij; the reversed orientation is negated on the fly."""
        if i == j or i not in VERTICES or j not in VERTICES:
            raise ValueError(f"invalid edge ({i},{j})")
        return self._gens[(i, j)] if i < j else -self._gens[(j, i)]

    def _decomposition(self, i: int, j: int) -> EigenDecomposition:
        """Eigendecomposition of X_ij, computed once per stored generator.

        X_ji = -X_ij reuses it: eigenvalues negated and reversed, the same
        eigenspaces.  May raise IrrationalSpectrum, as eigen_decompose does.
        """
        key = (i, j) if i < j else (j, i)
        dec = self._eigen.get(key)
        if dec is None:
            dec = self._eigen[key] = eigen_decompose(self._gens[key])
        return dec if i < j else _negated(dec)

    def _seed_decomposition(self, i: int, j: int, dec: EigenDecomposition) -> None:
        """Take a known eigendecomposition of X_ij, so it is never recomputed.

        `dec` must list the eigenvalues of X_ij ascending, as
        eigen_decompose does.
        """
        key = (i, j) if i < j else (j, i)
        self._eigen[key] = dec if i < j else _negated(dec)

    @property
    def gens(self) -> dict[tuple[int, int], RMatrix]:
        """All twelve generators keyed by ordered vertex pair."""
        out = {}
        for i, j in itertools.permutations(VERTICES, 2):
            out[(i, j)] = self.gen(i, j)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TetModule):
            return self._dim == other._dim and self._gens == other._gens
        return NotImplemented


@dataclass(frozen=True, eq=False)
class RelationReport:
    """Outcome of the 54-relation check.

    violations holds (relation id, defect matrix) pairs in deterministic
    lexicographic order of the vertex tuples.
    """

    antisymmetry_ok: bool
    corner_ok: bool
    dolan_grady_ok: bool
    violations: tuple[tuple[str, RMatrix], ...]

    @property
    def passed(self) -> bool:
        return self.antisymmetry_ok and self.corner_ok and self.dolan_grady_ok

    def __bool__(self) -> bool:
        return self.passed


def verify_tet_relations(module: TetModule) -> RelationReport:
    """Decide all 6 + 24 + 24 defining relations, collecting every violation.

    Only 18 brackets are computed.  Antisymmetry holds in the storage.  The
    corner defect of (j,i,h) is minus that of (h,i,j), leaving 12.  The
    Dolan-Grady defect changes sign when either edge is reversed, leaving
    one per outer edge; the two edges of an opposite pair share their inner
    bracket.  Every failing relation is still listed under its own id, with
    its own defect matrix.
    """
    corner = {}
    for h, i, j in itertools.permutations(VERTICES, 3):
        if h < j:
            xhi = module.gen(h, i)
            xij = module.gen(i, j)
            corner[(h, i, j)] = commutator(xhi, xij) - 2 * xhi - 2 * xij

    # dolan[(h, i)] is the defect of (h,i)x(j,k) for h < i and j < k
    dolan = {}
    for e, f in OPPOSITE_EDGES:
        xe = module.gen(*e)
        xf = module.gen(*f)
        shared = commutator(xe, xf)
        dolan[e] = commutator(xe, commutator(xe, shared)) - 4 * shared
        # [X_f, X_e] = -shared, so the defect with X_f outside is negated
        dolan[f] = 4 * shared - commutator(xf, commutator(xf, shared))

    violations = []
    for h, i, j in itertools.permutations(VERTICES, 3):
        defect = corner[(h, i, j)] if h < j else -corner[(j, i, h)]
        if not defect.is_zero():
            violations.append((f"corner ({h},{i},{j})", defect))
    for h, i, j, k in itertools.permutations(VERTICES, 4):
        defect = dolan[(min(h, i), max(h, i))]
        if (h > i) != (j > k):
            defect = -defect
        if not defect.is_zero():
            violations.append((f"dolan-grady ({h},{i})x({j},{k})", defect))

    return RelationReport(
        antisymmetry_ok=True,
        corner_ok=all(d.is_zero() for d in corner.values()),
        dolan_grady_ok=all(d.is_zero() for d in dolan.values()),
        violations=tuple(violations),
    )


def spectrum_diameter(module: TetModule) -> int:
    """The common d with every generator spectrum exactly {d-2i: 0 <= i <= d}.

    Raises NonConformingSpectrum when some generator is not diagonalizable
    or its eigenvalue set is not such a ladder, or when the ladders disagree.
    The ladder is symmetric, so X_ji = -X_ij conforms exactly when X_ij does
    and only the six stored generators are inspected.
    """
    diameters = set()
    for i, j in CANONICAL_EDGES:
        decomp = module._decomposition(i, j)
        values = decomp.eigenvalues
        if not decomp.diagonalizable:
            raise NonConformingSpectrum(
                f"generator ({i},{j}) is not diagonalizable"
            )
        top = values[-1]
        if top.denominator != 1 or top < 0:
            raise NonConformingSpectrum(
                f"generator ({i},{j}) has top eigenvalue {top}"
            )
        d = top.numerator
        expected = tuple(Fraction(-d + 2 * k) for k in range(d + 1))
        if values != expected:
            raise NonConformingSpectrum(
                f"generator ({i},{j}) has spectrum "
                f"{tuple(map(str, values))}, not the ladder for d={d}"
            )
        diameters.add(d)
    if len(diameters) != 1:
        raise NonConformingSpectrum(
            f"generators disagree on the diameter: {sorted(diameters)}"
        )
    return diameters.pop()


def corner_triad(module: TetModule, u: int) -> tuple[RMatrix, RMatrix, RMatrix]:
    """The three generators pointing into vertex u, sources ascending."""
    if u not in VERTICES:
        raise ValueError(f"invalid vertex {u}")
    r, s, t = (v for v in VERTICES if v != u)
    return module.gen(r, u), module.gen(s, u), module.gen(t, u)


def face_triple(module: TetModule, h: int, i: int, j: int) -> EquitableTriple:
    """The cyclic generators X_hi, X_ij, X_jh of a face, as a validated triple."""
    if len({h, i, j}) != 3 or not {h, i, j} <= set(VERTICES):
        raise ValueError(f"invalid face ({h},{i},{j})")
    return EquitableTriple(
        x=module.gen(h, i), y=module.gen(i, j), z=module.gen(j, h)
    )


def irreducible_sufficient(module: TetModule) -> tuple[bool, int]:
    """Whether the generated unital algebra is all of M_n, plus its dimension.

    Exact when some generator has a simple rational spectrum (Burnside): in
    its eigenbasis the spectral projectors give every E_ii and E_jj X E_ii
    gives E_ji wherever X has a nonzero (j, i) entry, so the algebra is M_n
    exactly when the other generators' support graph is strongly connected;
    if it is not, a node set closed under out-edges spans a proper invariant
    subspace.  The algebra closure runs only without a simple spectrum, where
    False means "not absolutely irreducible", or to report the dimension of
    a reducible module.
    """
    n = module.dim
    for edge in CANONICAL_EDGES:
        try:
            decomp = module._decomposition(*edge)
        except IrrationalSpectrum:
            continue
        if len(decomp.pairs) == n:
            if _support_strongly_connected(module, edge, decomp):
                return True, n * n
            break
    dim = generated_algebra_dimension(
        n, [module.gen(i, j) for i, j in CANONICAL_EDGES]
    )
    return dim == n * n, dim


def _support_strongly_connected(
    module: TetModule, edge: tuple[int, int], decomp: EigenDecomposition
) -> bool:
    """Strong connectivity of the other generators' support in an eigenbasis.

    `decomp` is the simple spectrum of the generator on `edge`.  With P the
    matrix of its eigenvectors, one row reduction of [P | X_1 P | ...] yields
    [I | P^-1 X_1 P | ...]; node i has an edge to node j when some block has
    a nonzero (j, i) entry.
    """
    n = module.dim
    p = RMatrix([pair.eigenspace.basis[0] for pair in decomp.pairs]).transpose()
    blocks = basis_coordinates(
        p, [module.gen(*e) * p for e in CANONICAL_EDGES if e != edge]
    )
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for j in range(n):
        for i in range(n):
            if i != j and any(c[j][i] for c in blocks):
                succ[i].append(j)
                pred[j].append(i)

    def reaches_all(adjacent: list[list[int]]) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    return reaches_all(succ) and reaches_all(pred)


def corner_triads_are_bd_triads(
    module: TetModule,
) -> tuple[TriadCertificate, TriadCertificate, TriadCertificate, TriadCertificate]:
    """Certify all four corner triads as reduced bidiagonal triads.

    Each corner is verified as `verify_bd_triad` would, with the module's
    shared eigendecompositions.  Raises CornerTriadRefuted at the first
    corner whose triad fails verification or lands off the canonical
    eigenvalue sequences.
    """
    certificates = []
    for u in VERTICES:
        decomps = [module._decomposition(v, u) for v in VERTICES if v != u]
        result = _verify(_TRIAD, corner_triad(module, u), decomps)
        if not result:
            raise CornerTriadRefuted(u, result)
        if not result.reduced:
            raise CornerTriadRefuted(
                u, f"certified but with non-canonical sequences {result.sequences}"
            )
        certificates.append(result)
    return tuple(certificates)
