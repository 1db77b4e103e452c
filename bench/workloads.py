"""Seeded input streams for the benchmark workloads.

Each workload is an endless stream of rounds.  A round is a fixed mix of
input kinds (see ``MIXES``); every input in it is drawn fresh from the
workload's seeded generator, written to disk as a document, and carries
the outcome the oracle expects.  The library only ever sees the documents.

The mixes are weighted so that the median and the 90th percentile of the
per-op latency each fall in the middle of one kind's latency cluster:
the slowest kind holds the top fifth of a round, and the kind whose
cluster is centred on the median holds the middle fifth.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from triadtet import fixtures, io, linalg
from triadtet.linalg import RMatrix
from triadtet.sl2 import make_vd

# One round per workload, as (kind, diameter or None).  Latency order on a
# 2-core x86 sandbox, fastest first:
#   vd_pipeline:    d = 2 < 3 < 4 < 5 < 6 < 7 < 8
#   dense_pipeline: d = 4 ~ 2 (2 synthesizes) < 5 < 6 < 3 ~ 7 < 8
#   triage:         dimensions < irrational < diagonalizable < degenerate
#                   < ordering < bijection < certifiable
MIXES = {
    "vd_pipeline": tuple(
        ("vd", d) for d in (2, 2, 3, 4, 5, 5, 6, 7, 8, 8)
    ),
    "dense_pipeline": tuple(
        ("dense", d) for d in (4, 2, 2, 5, 6, 6, 3, 7, 8, 8)
    ),
    "triage": (
        ("dimensions", None),
        ("irrational", None),
        ("diagonalizable", None),
        ("degenerate", None),
        ("ordering", 5),
        ("ordering", 5),
        ("bijection", None),
        ("bijection", None),
        ("certifiable", None),
        ("certifiable", None),
    ),
}

# Dense conjugates are synthesized only up to this diameter; at d = 4 one
# op takes minutes, nearly all in the algebra closure (see known_gaps.json).
DENSE_SYNTHESIS_MAX_D = 3

# A certifiable triage input is a V_d triad shifted by s*I.  Its cost is
# dominated by the rational-root search, which tries every divisor of the
# constant term prod_i (s + 2i - d).  The shift is drawn until that
# divisor count lies in this band and every factor is 10^4-smooth, which
# keeps the library's factoring on trial division and the cluster tight.
CERTIFIABLE_DIVISORS = (100_000, 120_000)
_SMOOTH_LIMIT = 10_000


@dataclass(frozen=True)
class Item:
    """One generated input: where its document is and what must come out.

    ``stages`` is the prefix of verify -> reduce -> synthesize the op runs;
    ``loader`` is ``"triad"`` for a triad document and ``"candidate"`` for a
    triple of unequal sizes, which the triad format cannot hold.
    """

    ident: str
    kind: str
    path: Path
    stages: tuple[str, ...]
    expected: dict
    loader: str = "triad"


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_PRIMES = _primes_below(_SMOOTH_LIMIT)


def smooth_divisor_count(values: list[int]) -> int | None:
    """Divisor count of the product of ``values``, or None if not smooth."""
    exponents: dict[int, int] = {}
    for v in values:
        v = abs(v)
        for p in _PRIMES:
            if p * p > v:
                break
            while v % p == 0:
                exponents[p] = exponents.get(p, 0) + 1
                v //= p
        if v > 1:
            if v >= _SMOOTH_LIMIT:
                return None
            exponents[v] = exponents.get(v, 0) + 1
    count = 1
    for e in exponents.values():
        count *= e + 1
    return count


def _canonical(d: int) -> list[Fraction]:
    return [Fraction(2 * i - d) for i in range(d + 1)]


def _certificate(
    d: int, sequences: list[list[Fraction]], reduce: bool, synthesize: bool
) -> dict:
    return {
        "outcome": "certificate",
        "diameter": d,
        "thin": True,
        "reduced": all(seq == _canonical(d) for seq in sequences),
        "sequences": [[io.format_rational(v) for v in seq] for seq in sequences],
        "reduce": reduce,
        "synthesize": synthesize,
    }


def _block_diagonal(x: RMatrix, y: RMatrix) -> RMatrix:
    n = x.rows + y.rows
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(x):
        rows[i][: x.rows] = row
    for i, row in enumerate(y):
        rows[x.rows + i][x.rows :] = row
    return RMatrix(rows)


def _inverse(p: RMatrix) -> RMatrix | None:
    n = p.rows
    ident = RMatrix.identity(n)
    reduced, rank = linalg.rref(
        RMatrix([list(p[i]) + list(ident[i]) for i in range(n)])
    )
    if rank < n or any(reduced[i][i] != 1 for i in range(n)):
        return None
    return RMatrix([reduced[i][n:] for i in range(n)])


class InputStream:
    """The seeded input stream of one workload, written under ``out_dir``.

    The same (workload, seed) always yields byte-identical documents in
    the same order.  No input repeats within a stream.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path):
        if workload not in MIXES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.rounds = 0
        self._rng = random.Random(f"{workload}:{seed}")
        self._used: set = set()

    def next_round(self) -> list[Item]:
        items = []
        for slot, (kind, d) in enumerate(MIXES[self.workload]):
            ident = f"{self.workload}-s{self.seed}-r{self.rounds}-{slot}-{kind}"
            items.append(getattr(self, f"_make_{kind}")(ident, d))
        self.rounds += 1
        return items

    # -- parameter draws -------------------------------------------------

    def _small_rational(self) -> Fraction:
        rng = self._rng
        return Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1))

    def _fresh(self, key: tuple, draw) -> tuple:
        """Redraw until the parameters have not been used in this stream."""
        while True:
            params = draw()
            if (key, params) not in self._used:
                self._used.add((key, params))
                return params

    def _beta_gamma(self, key: tuple) -> tuple[Fraction, Fraction]:
        def draw():
            beta = self._small_rational()
            gamma = self._small_rational()
            while gamma == beta:
                gamma = self._small_rational()
            return beta, gamma

        return self._fresh(key, draw)

    def _vd_matrices(
        self, key: tuple, d: int
    ) -> tuple[RMatrix, RMatrix, RMatrix, dict]:
        """A V_d triad from ``fixture_vd_triad``, which verifies it."""
        beta, gamma = self._beta_gamma(key)
        doc = fixtures.fixture_vd_triad(d, beta, gamma)
        return (*doc.matrices(), doc.metadata)

    # -- documents -------------------------------------------------------

    def _write_triad(
        self, ident: str, matrices, metadata: dict | None = None
    ) -> Path:
        path = self.out_dir / f"{ident}.json"
        a, ap, app = matrices
        meta = dict(metadata or {})
        meta["id"] = ident
        io.save_triad(io.TriadDocument(a.rows, a, ap, app, meta), path)
        return path

    def _write_candidate(self, ident: str, matrices) -> Path:
        path = self.out_dir / f"{ident}.json"
        doc = {
            key: [[io.format_rational(v) for v in row] for row in m]
            for key, m in zip(("A", "Aprime", "Adprime"), matrices)
        }
        doc["metadata"] = {"id": ident}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return path

    # -- vd_pipeline -----------------------------------------------------

    def _make_vd(self, ident: str, d: int) -> Item:
        a, ap, app, meta = self._vd_matrices(("vd", d), d)
        path = self._write_triad(ident, (a, ap, app), meta)
        expected = _certificate(d, [_canonical(d)] * 3, True, True)
        return Item(
            ident, f"vd d={d}", path, ("verify", "reduce", "synthesize"), expected
        )

    # -- dense_pipeline --------------------------------------------------

    def _make_dense(self, ident: str, d: int) -> Item:
        rng = self._rng
        a, ap, app, _ = self._vd_matrices(("dense", d), d)
        n = d + 1
        while True:
            p = RMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            p_inv = _inverse(p)
            if p_inv is not None:
                break
        ident_m = RMatrix.identity(n)
        matrices = []
        sequences = []
        for m in (a, ap, app):
            r = Fraction(rng.randint(1, 3), rng.randint(1, 3)) * rng.choice((1, -1))
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 2))
            if r == 1 and s == 0:
                s = Fraction(1)
            matrices.append(r * (p_inv * m * p) + s * ident_m)
            sequences.append([r * v + s for v in _canonical(d)])
        path = self._write_triad(ident, matrices)
        synth = d <= DENSE_SYNTHESIS_MAX_D
        stages = ("verify", "reduce", "synthesize") if synth else ("verify", "reduce")
        expected = _certificate(d, sequences, True, synth)
        return Item(ident, f"dense d={d}", path, stages, expected)

    # -- triage ----------------------------------------------------------

    def _refutation(self, ident, kind, matrices, clause, loader="triad") -> Item:
        if loader == "triad":
            path = self._write_triad(ident, matrices)
        else:
            path = self._write_candidate(ident, matrices)
        expected = {"outcome": "refutation", "clause": clause}
        return Item(ident, kind, path, ("verify",), expected, loader)

    def _make_dimensions(self, ident: str, _d) -> Item:
        d = self._rng.randint(4, 6)
        a, ap, app, _ = self._vd_matrices(("dimensions", d), d)
        wide = RMatrix.diagonal(_canonical(d + 1))
        return self._refutation(
            ident, "dimensions", (a, wide, app), "dimensions", loader="candidate"
        )

    def _make_irrational(self, ident: str, _d) -> Item:
        rng = self._rng
        d = rng.randint(4, 6)
        a, ap, app, _ = self._vd_matrices(("irrational", d), d)
        # a 2x2 block [[0, q], [1, 0]] has eigenvalues +-sqrt(q)
        q = rng.choice([k for k in range(2, 40) if int(k ** 0.5) ** 2 != k])
        rows = [list(r) for r in RMatrix.diagonal(_canonical(d))]
        rows[0][0], rows[0][1], rows[1][0], rows[1][1] = 0, q, 1, 0
        path = self._write_triad(ident, (RMatrix(rows), ap, app))
        expected = {"outcome": "raises", "exception": "IrrationalSpectrum"}
        return Item(ident, "irrational", path, ("verify",), expected)

    def _make_diagonalizable(self, ident: str, _d) -> Item:
        rng = self._rng
        d = rng.randint(4, 6)
        a, ap, app, _ = self._vd_matrices(("diagonalizable", d), d)
        # a 2x2 Jordan block on the second eigenvalue, shifted by an integer
        shift = rng.randint(-9, 9)
        rows = [list(r) for r in RMatrix.diagonal([v + shift for v in _canonical(d)])]
        rows[0][0] = rows[1][1]
        rows[0][1] = 1
        return self._refutation(
            ident, "diagonalizable", (RMatrix(rows), ap, app), "diagonalizable"
        )

    def _make_degenerate(self, ident: str, _d) -> Item:
        rng = self._rng

        def draw():
            return (rng.randint(2, 7),) + tuple(rng.randint(-20, 20) for _ in range(3))

        n, *scalars = self._fresh(("degenerate",), draw)
        ident_m = RMatrix.identity(n)
        matrices = tuple(c * ident_m for c in scalars)
        return self._refutation(ident, "degenerate", matrices, "degenerate")

    def _make_ordering(self, ident: str, d: int) -> Item:
        # A is lowered by A' along e while A'' is raised along f: no chain
        # of eigenspaces is raised by both partners.
        beta, gamma = self._beta_gamma(("ordering", d))
        act = make_vd(d)
        base = -act.h
        shift = self._rng.randint(-9, 9) * RMatrix.identity(d + 1)
        matrices = (base + beta * act.f, base + gamma * act.e, base + shift)
        return self._refutation(ident, "ordering", matrices, "ordering")

    def _make_bijection(self, ident: str, _d) -> Item:
        # V_d (+) V_{d-1} with the ladders top-aligned: every chain exists,
        # but the mirrored levels 0 and d have dimensions 2 and 1.
        d = self._rng.randint(4, 6)
        beta, gamma = self._beta_gamma(("bijection", d))
        big, small = make_vd(d), make_vd(d - 1)
        low = -(small.h + RMatrix.identity(d))
        matrices = tuple(
            _block_diagonal(-big.h + c * big.f, low + c * small.f)
            for c in (beta, gamma, 0)
        )
        return self._refutation(ident, "bijection", matrices, "bijection")

    def _make_certifiable(self, ident: str, _d) -> Item:
        rng = self._rng
        d = rng.randint(4, 6)
        lo, hi = CERTIFIABLE_DIVISORS

        def draw():
            while True:
                s = rng.randrange(10_000, 1_000_000)
                count = smooth_divisor_count([s + 2 * i - d for i in range(d + 1)])
                if count is not None and lo <= count <= hi:
                    return s

        shift = self._fresh(("certifiable", d), draw)
        a, ap, app, _ = self._vd_matrices(("certifiable", d), d)
        ident_m = RMatrix.identity(d + 1)
        matrices = tuple(m + shift * ident_m for m in (a, ap, app))
        path = self._write_triad(ident, matrices)
        sequences = [[v + shift for v in _canonical(d)]] * 3
        expected = _certificate(d, sequences, False, False)
        return Item(ident, f"certifiable d={d}", path, ("verify",), expected)
