"""Reduction of certified triads to canonical eigenvalue sequences.

A certified triad with diameter d >= 2 has arithmetic eigenvalue sequences
(all successive-difference ratios are exactly 1), so each sequence is an
affine image of the canonical sequence (2i - d).  `reduce_triad` computes
the three affine witnesses, applies them, and re-verifies the result.
When every witness is the identity (1, 0) the triad is already reduced and
its own certificate is returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from triadtet.bdverify import TriadCertificate, verify_bd_triad
from triadtet.linalg import RMatrix

_LABELS = ("A", "A'", "A''")


class NoWitness(ValueError):
    """A sequence is not an affine image of the target sequence."""


def is_one_recurrent(seq: Sequence[Fraction]) -> bool:
    """Whether successive differences are all equal (needs length >= 3)."""
    if len(seq) < 3:
        raise ValueError("recurrence needs at least 3 terms")
    step = seq[1] - seq[0]
    return all(b - a == step for a, b in zip(seq[1:], seq[2:]))


def check_recurrence(
    cert: TriadCertificate,
) -> tuple[bool, tuple[tuple[str, int, Fraction], ...]]:
    """Successive-difference ratios of all three eigenvalue sequences.

    Returns (all ratios equal 1, table of (label, i, ratio)) where ratio is
    (theta_{i+1} - theta_i) / (theta_i - theta_{i-1}).  For diameter < 2 the
    table is empty and the flag is vacuously true.  Certified sequences have
    distinct consecutive values, so the ratios are always defined.
    """
    table = []
    all_one = True
    for label, seq in zip(_LABELS, cert.sequences):
        for i in range(1, len(seq) - 1):
            ratio = (seq[i + 1] - seq[i]) / (seq[i] - seq[i - 1])
            table.append((label, i, ratio))
            if ratio != 1:
                all_one = False
    return all_one, tuple(table)


def affine_witness_sequences(
    target: Sequence[Fraction], source: Sequence[Fraction]
) -> tuple[Fraction, Fraction] | None:
    """(r, s) with target_i = r*source_i + s and r nonzero, or None.

    For a single-term sequence the witness is pinned to r = 1.
    """
    if len(target) != len(source):
        raise ValueError("sequences must have equal length")
    if not target:
        raise ValueError("sequences must be nonempty")
    target = [Fraction(v) for v in target]
    source = [Fraction(v) for v in source]
    if len(target) == 1:
        return Fraction(1), target[0] - source[0]
    denom = source[1] - source[0]
    if not denom:
        return None
    r = (target[1] - target[0]) / denom
    if not r:
        return None
    s = target[0] - r * source[0]
    if any(t != r * v + s for t, v in zip(target, source)):
        return None
    return r, s


def reduce_triad(
    cert: TriadCertificate,
) -> tuple[TriadCertificate, tuple[tuple[Fraction, Fraction], ...]]:
    """Affine-shift a certified triad onto the sequences (2i - d).

    Returns the re-verified certificate of (r*A + s*I, t*A' + u*I,
    v*A'' + w*I) together with the witnesses ((r,s), (t,u), (v,w)); when all
    three witnesses are (1, 0) the shifted matrices are the certified ones
    and `cert` itself is returned.  Raises
    NoWitness when some sequence is not an affine image of the target, and
    RuntimeError if the shifted triad fails re-verification (impossible for
    inputs that genuinely certify).
    """
    if not isinstance(cert, TriadCertificate):
        raise TypeError("reduction needs a TriadCertificate")
    d = cert.diameter
    target = [Fraction(2 * i - d) for i in range(d + 1)]
    witnesses = []
    shifted = []
    ident = RMatrix.identity(cert.dimension)
    for label, seq, m in zip(_LABELS, cert.sequences, cert.matrices):
        w = affine_witness_sequences(target, seq)
        if w is None:
            raise NoWitness(
                f"eigenvalue sequence of {label} is not an affine image of "
                f"the canonical sequence: {tuple(map(str, seq))}"
            )
        r, s = w
        witnesses.append(w)
        shifted.append(r * m + s * ident)
    if all(w == (1, 0) for w in witnesses):
        return cert, tuple(witnesses)
    result = verify_bd_triad(*shifted)
    if not result:
        raise RuntimeError(
            f"affine shift of a certified triad failed re-verification: {result}"
        )
    if not result.reduced:
        raise RuntimeError("affine shift did not land on the canonical sequences")
    return result, tuple(witnesses)
