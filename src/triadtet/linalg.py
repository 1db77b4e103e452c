"""Exact dense linear algebra over the rationals.

Immutable matrices, subspaces in canonical reduced-echelon form,
characteristic polynomials, rational eigendecompositions, restricted-power
bijectivity witnesses, and a solver for simultaneous linear constraints on an
unknown matrix.  Nothing here ever rounds: every entry is an
arbitrary-precision rational and every equality test is exact.

Rational eigenvalues come from `rational_roots`: integer Sturm bisection, no
factoring, so the cost is polynomial in the degree and coefficient bit size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class IrrationalSpectrum(ValueError):
    """A characteristic polynomial has roots outside the rationals."""


class ImageNotContained(ValueError):
    """A restricted map sends a domain vector outside the prescribed codomain."""


class InconsistentSystem(ValueError):
    """A linear matrix system admits no solution."""


def _to_rational(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(
        f"matrix entries must be int or Fraction, got {type(value).__name__}"
    )


class RMatrix:
    """Immutable matrix with exact rational entries.

    Entries are stored as a tuple of row tuples; `m[i][j]` reads an entry.
    Arithmetic (`+`, `-`, `*`, `**`) is exact, `*` accepting both matrices
    and scalars.  Equality and hashing are entrywise.
    """

    __slots__ = ("_rows",)

    def __init__(self, entries: Iterable[Iterable[object]]):
        rows = tuple(tuple(_to_rational(v) for v in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows must all have the same length")
        self._rows = rows

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "RMatrix":
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[object]) -> "RMatrix":
        vals = [_to_rational(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(v) for v in row) for row in self._rows
        )
        return f"RMatrix[{body}]"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not v for row in self._rows for v in row)

    def _same_shape(self, other: "RMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if not isinstance(other, RMatrix):
            return NotImplemented
        self._same_shape(other)
        return RMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        if not isinstance(other, RMatrix):
            return NotImplemented
        self._same_shape(other)
        return RMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __neg__(self) -> "RMatrix":
        return RMatrix([[-v for v in row] for row in self._rows])

    def __mul__(self, other: object) -> "RMatrix":
        if isinstance(other, RMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            out = [[_ZERO] * other.cols for _ in range(self.rows)]
            for i, row in enumerate(self._rows):
                acc = out[i]
                for k, a in enumerate(row):
                    if not a:
                        continue
                    for j, b in enumerate(other._rows[k]):
                        if b:
                            acc[j] = acc[j] + a * b
            return RMatrix(out)
        if isinstance(other, (int, Fraction)):
            c = _to_rational(other)
            return RMatrix([[c * v for v in row] for row in self._rows])
        return NotImplemented

    def __rmul__(self, other: object) -> "RMatrix":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int) -> "RMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers need a non-negative integer exponent")
        if not self.is_square():
            raise ValueError("matrix powers need a square matrix")
        result = RMatrix.identity(self.rows)
        for _ in range(k):
            result = result * self
        return result

    def apply(self, vector: Sequence[object]) -> tuple[Fraction, ...]:
        """Image of a coordinate vector under this matrix."""
        vec = [_to_rational(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != {self.cols} columns")
        out = []
        for row in self._rows:
            s = _ZERO
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            out.append(s)
        return tuple(out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace needs a square matrix")
        return sum((self._rows[i][i] for i in range(self.rows)), _ZERO)

    def transpose(self) -> "RMatrix":
        return RMatrix(list(zip(*self._rows)))


def commutator(x: RMatrix, y: RMatrix) -> RMatrix:
    """Lie bracket x*y - y*x of two square matrices of equal size."""
    if not x.is_square() or not y.is_square() or x.rows != y.rows:
        raise ValueError("commutator needs two square matrices of equal size")
    return x * y - y * x


def rref(m: RMatrix) -> tuple[RMatrix, int]:
    """Reduced row echelon form and rank."""
    rows = [list(row) for row in m.entries]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return RMatrix(rows), rank


def basis_coordinates(
    basis: RMatrix, images: Sequence[RMatrix]
) -> list[RMatrix] | None:
    """Coordinates of every column of `images` in the columns of `basis`.

    The columns of `basis` must be linearly independent.  One row reduction
    of [basis | images[0] | images[1] | ...] leaves [I | C_0 | C_1 | ...] in
    its top rows: column c of C_t holds the coordinates of column c of
    images[t], so a square `basis` P and images X P give C = P^-1 X P.
    Returns None when some image column lies outside the span of `basis`.
    """
    m = basis.cols
    reduced, rank = rref(
        RMatrix(
            [
                basis[r] + sum((y[r] for y in images), ())
                for r in range(basis.rows)
            ]
        )
    )
    if rank > m:
        return None
    blocks = []
    start = m
    for y in images:
        blocks.append(RMatrix([reduced[r][start : start + y.cols] for r in range(m)]))
        start += y.cols
    return blocks


def kernel_basis(m: RMatrix) -> "Subspace":
    """Null space of a matrix, as a canonical subspace of Q^cols."""
    reduced, rank = rref(m)
    ncols = m.cols
    pivots = []
    col = 0
    for r in range(rank):
        while not reduced[r][col]:
            col += 1
        pivots.append(col)
        col += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        vectors.append(v)
    return Subspace.from_vectors(ncols, vectors)


def _primitive(row: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # scale to the primitive integer vector with positive leading entry
    denom_lcm = 1
    for v in row:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    lead = next(v for v in ints if v)
    if lead < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


class Subspace:
    """Subspace of Q^n held as a canonical basis.

    The basis is the reduced row echelon form of any spanning set, with each
    row rescaled to the primitive integer vector whose leading entry is
    positive.  Two Subspace objects are equal exactly when they describe the
    same subspace, and comparison is plain tuple equality.
    """

    __slots__ = ("_ambient", "_basis")

    def __init__(self, ambient_dim: int, basis: tuple[tuple[Fraction, ...], ...]):
        self._ambient = ambient_dim
        self._basis = basis

    @classmethod
    def from_vectors(
        cls, ambient_dim: int, vectors: Iterable[Sequence[object]]
    ) -> "Subspace":
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        rows = [
            [_to_rational(v) for v in vec]
            for vec in vectors
        ]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector length {len(row)} != ambient dimension {ambient_dim}"
                )
        nonzero = [row for row in rows if any(row)]
        if not nonzero:
            return cls(ambient_dim, ())
        reduced, rank = rref(RMatrix(nonzero))
        return cls(
            ambient_dim,
            tuple(_primitive(reduced.entries[r]) for r in range(rank)),
        )

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim, RMatrix.identity(ambient_dim).entries
        )

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._basis)

    def is_zero(self) -> bool:
        return not self._basis

    def _pivots(self) -> list[int]:
        out = []
        for row in self._basis:
            for j, v in enumerate(row):
                if v:
                    out.append(j)
                    break
        return out

    def coordinates(self, vector: Sequence[object]) -> tuple[Fraction, ...] | None:
        """Coefficients of a vector in the canonical basis, or None if outside.

        Each basis row is zero in the other rows' pivot columns, so the
        coefficient of row r is the vector's entry at pivot r divided by the
        row's pivot entry; membership is then a single subtraction check.
        """
        vec = [_to_rational(v) for v in vector]
        if len(vec) != self._ambient:
            raise ValueError(
                f"vector length {len(vec)} != ambient dimension {self._ambient}"
            )
        coords = tuple(
            vec[p] / row[p] for p, row in zip(self._pivots(), self._basis)
        )
        residue = list(vec)
        for coef, row in zip(coords, self._basis):
            if coef:
                for j, v in enumerate(row):
                    if v:
                        residue[j] -= coef * v
        if any(residue):
            return None
        return coords

    def contains(self, vector: Sequence[object]) -> bool:
        return self.coordinates(vector) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self._ambient:
            raise ValueError("ambient dimensions differ")
        return all(self.contains(row) for row in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self._ambient:
            raise ValueError("ambient dimensions differ")
        return Subspace.from_vectors(self._ambient, self._basis + other._basis)

    __add__ = add

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Subspace):
            return self._ambient == other._ambient and self._basis == other._basis
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._ambient, self._basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self._ambient})"


def char_poly(m: RMatrix) -> tuple[Fraction, ...]:
    """Coefficients of det(x*I - m), monic, highest degree first.

    Faddeev-LeVerrier: M_1 = m, c_k = -trace(M_k)/k,
    M_{k+1} = m*(M_k + c_k*I).  Division-free apart from the exact /k.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [_ONE]
    mk = m
    ident = RMatrix.identity(n)
    for k in range(1, n + 1):
        ck = -mk.trace() / k
        coeffs.append(ck)
        if k < n:
            mk = m * (mk + ck * ident)
    return tuple(coeffs)


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # -(a mod b) times a positive integer, made primitive ([] when b | a):
    # scaling by |lc(b)|, not lc(b), keeps the signs a Sturm sequence needs
    r = list(a)
    while len(r) >= len(b):
        c = r[0] if b[0] > 0 else -r[0]
        pairs = zip_longest(r[1:], b[1:], fillvalue=0)
        r = [abs(b[0]) * x - c * y for x, y in pairs]
        while r and not r[0]:
            del r[0]
    g = gcd(*r)
    return [-x // g for x in r]


def _divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], bool]:
    # quotient of a by a primitive b, and whether b divides a; by Gauss's
    # lemma b divides a in Z[x] exactly when it does in Q[x]
    r, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        q.append(r[i] // b[0])
        for j, y in enumerate(b):
            r[i + j] -= q[-1] * y
    return q, not any(r)


def _sign_changes(chain: Sequence[Sequence[int]], y: int) -> int:
    signs = []
    for poly in chain:
        v = 0
        for c in poly:
            v = v * y + c
        if v:
            signs.append(v > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def rational_roots(
    coeffs: Sequence[Fraction],
) -> tuple[list[tuple[Fraction, int]], int]:
    """All rational roots with multiplicity, plus the leftover degree.

    Returns (sorted list of (root, multiplicity), degree of the rootless
    remaining factor).  Nothing is factored.  Divided by its last term
    gcd(P, P'), the primitive pseudo-remainder sequence of P and P' (P the
    primitive integer form, zero roots stripped) is the Sturm sequence of
    the squarefree part S.  y = lc(S) * x sends the rational roots of S to
    the integer roots of a monic integer T, all below the Fujiwara bound
    2^(E+1), E = max_j ceil(bits(t_j) / j).  Integer bisection narrows each
    interval holding a root to width 1, whose right end over lc(S) is
    divided out of P exactly, once per multiplicity.  That is O(k E) Sturm
    evaluations of O(k^2) integer operations at degree k: polynomial in the
    bit size.
    """
    work = [Fraction(c) for c in coeffs]
    if not work or not work[0]:
        raise ValueError("leading coefficient must be nonzero")
    roots: dict[Fraction, int] = {}
    while len(work) > 1 and not work[-1]:
        roots[_ZERO] = roots.get(_ZERO, 0) + 1
        work.pop()
    if len(work) == 1:
        return sorted(roots.items()), 0

    p = [c.numerator for c in _primitive(work)]
    chain = [p, [c * i for c, i in zip(p, range(len(p) - 1, 0, -1))]]
    while len(chain[-1]) > 1 and (r := _negated_remainder(chain[-2], chain[-1])):
        chain.append(r)
    g = [c.numerator for c in _primitive(chain[-1])]
    chain = [_divide(q, g)[0] for q in chain]
    a = chain[0][0]
    chain = [[c * a**t for t, c in enumerate(q)] for q in chain]
    e = max(-(-(c // a).bit_length() // j) for j, c in enumerate(chain[0]) if j)

    stack = [(-(2 << e), 2 << e)]
    changes = {y: _sign_changes(chain, y) for y in stack[0]}
    while stack:
        lo, hi = stack.pop()
        if changes[lo] == changes[hi]:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            changes[mid] = _sign_changes(chain, mid)
            stack += [(lo, mid), (mid, hi)]
            continue
        root = Fraction(hi, a)
        factor = (root.denominator, -root.numerator)
        quotient, exact = _divide(p, factor)
        while exact:
            roots[root] = roots.get(root, 0) + 1
            p = quotient
            quotient, exact = _divide(p, factor)
    return sorted(roots.items()), len(p) - 1


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its algebraic multiplicity and eigenspace."""

    value: Fraction
    algebraic_multiplicity: int
    eigenspace: Subspace

    @property
    def geometric_multiplicity(self) -> int:
        return self.eigenspace.dim


@dataclass(frozen=True)
class EigenDecomposition:
    """Rational spectrum of a square matrix, eigenvalues ascending."""

    pairs: tuple[EigenPair, ...]
    diagonalizable: bool

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(p.value for p in self.pairs)

    @property
    def eigenspaces(self) -> tuple[Subspace, ...]:
        return tuple(p.eigenspace for p in self.pairs)


def eigen_decompose(m: RMatrix) -> EigenDecomposition:
    """Full rational eigendecomposition.

    Raises IrrationalSpectrum when the characteristic polynomial does not
    split over Q; inputs with irrational eigenvalues are outside this
    toolkit's scope rather than "not diagonalizable".
    """
    if not m.is_square():
        raise ValueError("eigendecomposition needs a square matrix")
    coeffs = char_poly(m)
    roots, leftover = rational_roots(coeffs)
    if leftover:
        raise IrrationalSpectrum(
            f"characteristic polynomial has an irrational factor of degree {leftover}"
        )
    n = m.rows
    ident = RMatrix.identity(n)
    pairs = []
    for value, mult in roots:
        space = kernel_basis(m - value * ident)
        pairs.append(EigenPair(value, mult, space))
    diag = sum(p.eigenspace.dim for p in pairs) == n
    return EigenDecomposition(tuple(pairs), diag)


def restricted_power_bijective(
    x: RMatrix, k: int, dom: Subspace, cod: Subspace
) -> tuple[bool, RMatrix]:
    """Whether x^k maps `dom` bijectively onto `cod`, with the induced matrix.

    The witness has dim(dom) rows and dim(cod) columns: row i holds the
    codomain coordinates of the image of the i-th canonical basis vector of
    the domain.  Raises ImageNotContained when some image leaves `cod`;
    returns (False, witness) when images stay inside but the induced map is
    not invertible.
    """
    if not x.is_square():
        raise ValueError("restricted powers need a square matrix")
    if dom.ambient_dim != x.rows or cod.ambient_dim != x.rows:
        raise ValueError("subspace ambient dimensions must match the matrix")
    if k < 0:
        raise ValueError("power must be non-negative")
    if dom.dim == 0 or cod.dim == 0:
        raise ValueError("domain and codomain must be nonzero subspaces")
    witness_rows = []
    for idx, b in enumerate(dom.basis):
        image = b
        for _ in range(k):
            image = x.apply(image)
        coords = cod.coordinates(image)
        if coords is None:
            raise ImageNotContained(
                f"image of domain basis vector {idx} lies outside the codomain"
            )
        witness_rows.append(coords)
    witness = RMatrix(witness_rows)
    if dom.dim != cod.dim:
        return False, witness
    _, rank = rref(witness)
    return rank == dom.dim, witness


def solve_linear_matrix_system(
    n: int,
    constraints: Sequence[tuple[Callable[[RMatrix], RMatrix], RMatrix]],
) -> tuple[RMatrix, list[RMatrix]]:
    """Solve simultaneous linear constraints op(B) = rhs for an n x n matrix B.

    Each constraint is (operator, rhs) with `operator` a linear map on n x n
    matrices.  Returns (particular solution, basis of the homogeneous
    solution space); raises InconsistentSystem when no solution exists.

    The n^2 unknowns are flattened row-major and eliminated with sparse dict
    rows, exploiting that operators built from sparse matrices touch few
    unknowns per scalar equation.
    """
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    unit_images: list[list[RMatrix]] = []
    for op, _ in constraints:
        images = []
        for q in range(n * n):
            entries = [[0] * n for _ in range(n)]
            entries[q // n][q % n] = 1
            images.append(op(RMatrix(entries)))
        unit_images.append(images)

    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}

    def insert(row: dict[int, Fraction], rhs: Fraction) -> None:
        while row:
            lead = min(row)
            if lead in pivots:
                prow, prhs = pivots[lead]
                coef = row.pop(lead)
                for c, v in prow.items():
                    if c == lead:
                        continue
                    nv = row.get(c, _ZERO) - coef * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                rhs = rhs - coef * prhs
            else:
                coef = row[lead]
                pivots[lead] = (
                    {c: v / coef for c, v in row.items()},
                    rhs / coef,
                )
                return
        if rhs:
            raise InconsistentSystem("constraints admit no common solution")

    for (op, rhs), images in zip(constraints, unit_images):
        if rhs.rows != n or rhs.cols != n:
            raise ValueError("constraint right-hand sides must be n x n")
        for i in range(n):
            for j in range(n):
                row = {}
                for q in range(n * n):
                    v = images[q][i][j]
                    if v:
                        row[q] = v
                insert(row, rhs[i][j])

    for col in sorted(pivots, reverse=True):
        prow, prhs = pivots[col]
        changed = False
        for c in sorted(k for k in prow if k != col and k in pivots):
            orow, orhs = pivots[c]
            coef = prow.pop(c)
            for cc, vv in orow.items():
                if cc == c:
                    continue
                nv = prow.get(cc, _ZERO) - coef * vv
                if nv:
                    prow[cc] = nv
                else:
                    prow.pop(cc, None)
            prhs = prhs - coef * orhs
            changed = True
        if changed:
            pivots[col] = (prow, prhs)

    particular = [[_ZERO] * n for _ in range(n)]
    for col, (_, prhs) in pivots.items():
        particular[col // n][col % n] = prhs
    free = [q for q in range(n * n) if q not in pivots]
    homogeneous = []
    for f in free:
        vec = [[_ZERO] * n for _ in range(n)]
        vec[f // n][f % n] = _ONE
        for col, (prow, _) in pivots.items():
            coef = prow.get(f)
            if coef:
                vec[col // n][col % n] = -coef
        homogeneous.append(RMatrix(vec))
    return RMatrix(particular), homogeneous


def generated_algebra_dimension(dim: int, generators: Sequence[RMatrix]) -> int:
    """Dimension of the unital matrix algebra generated by the given matrices.

    Starts from the identity and closes the span under left multiplication
    by each generator, with sparse coordinate vectors and incremental
    elimination keyed by pivot position.
    """
    for g in generators:
        if not g.is_square() or g.rows != dim:
            raise ValueError("generators must be square matrices of the given size")
    # column slices of each generator: for column k the list of (i, g[i][k])
    gen_cols = []
    for g in generators:
        cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(dim)]
        for i in range(dim):
            for k in range(dim):
                v = g[i][k]
                if v:
                    cols[k].append((i, v))
        gen_cols.append(cols)

    pivots: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}

    def reduce_add(vec: dict[tuple[int, int], Fraction]) -> dict | None:
        while vec:
            lead = min(vec)
            if lead in pivots:
                prow = pivots[lead]
                coef = vec.pop(lead)
                for c, v in prow.items():
                    if c == lead:
                        continue
                    nv = vec.get(c, _ZERO) - coef * v
                    if nv:
                        vec[c] = nv
                    else:
                        vec.pop(c, None)
            else:
                coef = vec[lead]
                normalized = {c: v / coef for c, v in vec.items()}
                pivots[lead] = normalized
                return normalized
        return None

    ident = {(i, i): _ONE for i in range(dim)}
    queue = [reduce_add(dict(ident))]
    while queue:
        current = queue.pop()
        if current is None:
            continue
        for cols in gen_cols:
            product: dict[tuple[int, int], Fraction] = {}
            for (k, j), v in current.items():
                for i, gv in cols[k]:
                    key = (i, j)
                    nv = product.get(key, _ZERO) + gv * v
                    if nv:
                        product[key] = nv
                    else:
                        product.pop(key, None)
            added = reduce_add(product)
            if added is not None:
                queue.append(added)
    return len(pivots)
