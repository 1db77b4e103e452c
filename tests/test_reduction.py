"""Eigenvalue recurrence, affine witnesses, reduction to the 2i-d form."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import triadtet as tt
from triadtet import RMatrix


def test_one_recurrent_arithmetic_progression():
    assert tt.is_one_recurrent((1, 4, 7))


def test_one_recurrent_rejects_uneven_steps():
    assert not tt.is_one_recurrent((0, 1, 3))


def test_one_recurrent_target_sequence():
    d = 5
    assert tt.is_one_recurrent(tuple(2 * i - d for i in range(d + 1)))


def test_one_recurrent_needs_three_terms():
    with pytest.raises(ValueError):
        tt.is_one_recurrent((0, 1))


@given(
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=5),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=5).filter(bool),
    st.integers(min_value=3, max_value=9),
)
def test_one_recurrent_accepts_every_progression(start, step, length):
    seq = tuple(start + i * step for i in range(length))
    assert tt.is_one_recurrent(seq)


def test_check_recurrence_counterexample(counterexample_cert):
    ok, table = tt.check_recurrence(counterexample_cert)
    assert ok
    assert len(table) == 6
    assert all(ratio == 1 for _, _, ratio in table)


def test_check_recurrence_vacuous_below_three_terms(d1_cert):
    ok, table = tt.check_recurrence(d1_cert)
    assert ok
    assert table == ()


def test_affine_witness_forced_solve():
    assert tt.affine_witness_sequences((1, 4, 7), (-2, 0, 2)) == (
        Fraction(3, 2),
        Fraction(4),
    )


def test_affine_witness_single_term():
    assert tt.affine_witness_sequences((5,), (0,)) == (1, 5)


def test_affine_witness_detects_mismatch():
    assert tt.affine_witness_sequences((0, 1, 3), (0, 1, 2)) is None


def test_reduce_already_reduced_is_identity(counterexample_cert):
    reduced, witnesses = tt.reduce_triad(counterexample_cert)
    assert witnesses == ((1, 0), (1, 0), (1, 0))
    # identity witnesses leave the certified matrices as they are
    assert reduced is counterexample_cert
    assert reduced.matrices == counterexample_cert.matrices
    assert reduced.reduced


def test_reduce_shifted_spectrum_witness():
    doc = tt.fixture_vd_triad(2, 1, 2)
    a, a_prime, a_dprime = doc.matrices()
    eye = RMatrix.identity(3)
    shifted_a = Fraction(3, 2) * a + 4 * eye
    cert = tt.verify_bd_triad(shifted_a, a_prime, a_dprime)
    assert cert
    assert cert.sequences[0] == (1, 4, 7)
    reduced, witnesses = tt.reduce_triad(cert)
    assert witnesses[0] == (Fraction(2, 3), Fraction(-8, 3))
    assert reduced.matrices[0] == a
    assert reduced.reduced


def test_reduce_round_trip_is_affine_equivalent(d1_doc, d1_cert):
    a, a_prime, a_dprime = d1_doc.matrices()
    eye = RMatrix.identity(2)
    cert = tt.verify_bd_triad(2 * a + 3 * eye, a_prime, a_dprime)
    assert cert
    reduced, witnesses = tt.reduce_triad(cert)
    assert reduced.matrices == d1_cert.matrices
    ok, _ = tt.affine_equivalent_triads(cert, reduced)
    assert ok
    # applying the witnesses entrywise reproduces the output exactly
    for (r, s), before, after in zip(witnesses, cert.matrices, reduced.matrices):
        assert r * before + s * eye == after


def test_reduce_rejects_refutations(d1_doc):
    refutation = tt.verify_bd_triad(d1_doc.a, d1_doc.a, d1_doc.a_dprime)
    assert not refutation
    with pytest.raises(TypeError):
        tt.reduce_triad(refutation)
