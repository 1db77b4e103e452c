"""Acceptance gate: one test per shipped guarantee, every check exact.

Shared pipelines and the perturbation population are built lazily and
cached at module level, so the timed criteria pay for their own work and
later criteria reuse it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import triadtet as tt

PARAMS = (
    (Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(-1)),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 3)),
)
DIAMETERS = range(9)

PERTURBATION_SEED = 20260822
PERTURBATION_COUNT = 200

_PIPELINES: dict = {}
_POPULATION: list | None = None


def _pipeline(d, beta, gamma):
    key = (d, beta, gamma)
    if key not in _PIPELINES:
        doc = tt.fixture_vd_triad(d, beta, gamma)
        cert = tt.verify_bd_triad(*doc.matrices())
        assert isinstance(cert, tt.TriadCertificate), cert
        _PIPELINES[key] = (doc, cert, tt.synthesize_tet(cert))
    return _PIPELINES[key]


def _counterexample_cert():
    doc, x02 = tt.fixture_counterexample()
    cert = tt.verify_bd_triad(*doc.matrices())
    assert isinstance(cert, tt.TriadCertificate), cert
    return doc, x02, cert


def _population():
    """Certified diameter >= 2 triads: 29 bases plus seeded affine images."""
    global _POPULATION
    if _POPULATION is not None:
        return _POPULATION
    bases = [_counterexample_cert()[2]]
    for d in range(2, 9):
        for beta, gamma in PARAMS:
            bases.append(_pipeline(d, beta, gamma)[1])
    rng = random.Random(PERTURBATION_SEED)

    def scalar(nonzero: bool) -> Fraction:
        while True:
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if value != 0 or not nonzero:
                return value

    population = [(base, True) for base in bases]
    for k in range(PERTURBATION_COUNT):
        base = bases[k % len(bases)]
        a, a_prime, a_dprime = base.matrices
        eye = tt.RMatrix.identity(base.dimension)
        cert = tt.verify_bd_triad(
            scalar(True) * a + scalar(False) * eye,
            scalar(True) * a_prime + scalar(False) * eye,
            scalar(True) * a_dprime + scalar(False) * eye,
        )
        assert isinstance(cert, tt.TriadCertificate), cert
        population.append((cert, False))
    _POPULATION = population
    return population


def test_criterion_1_counterexample_certifies_but_breaks_dolan_grady():
    """A non-thin 6x6 triad certifies while its candidate generator fails."""
    start = time.monotonic()
    doc, x02, cert = _counterexample_cert()
    assert cert.dimension == 6
    assert cert.diameter == 3
    sequence = tuple(Fraction(v) for v in (-3, -1, 1, 3))
    assert cert.sequences == (sequence, sequence, sequence)
    assert cert.shape == (1, 2, 2, 1)
    assert cert.reduced
    assert not cert.thin
    x13 = doc.a_prime
    inner = tt.commutator(x13, x02)
    defect = tt.commutator(x13, tt.commutator(x13, inner)) - 4 * inner
    assert not defect.is_zero()
    assert time.monotonic() - start < 1.0


def test_criterion_2_vd_families_synthesize_exactly():
    """All 36 thin pipelines verify, synthesize, and re-certify, under 30s."""
    start = time.monotonic()
    for d in DIAMETERS:
        spectrum = sorted(Fraction(d - 2 * i) for i in range(d + 1))
        for beta, gamma in PARAMS:
            doc, cert, result = _pipeline(d, beta, gamma)
            assert cert.reduced and cert.thin and cert.diameter == d
            assert result.report.passed
            assert result.report.violations == ()
            for gen in result.module.gens.values():
                roots, leftover = tt.rational_roots(tt.char_poly(gen))
                assert leftover == 0
                found = sorted(
                    root for root, mult in roots for _ in range(mult)
                )
                assert found == spectrum
            assert result.algebra_dimension == (d + 1) ** 2
            assert len(result.corner_certificates) == 4
            for corner_cert in result.corner_certificates:
                assert isinstance(corner_cert, tt.TriadCertificate)
                assert corner_cert.reduced
                assert corner_cert.diameter == d
            assert tt.corner_triad(result.module, 3) == doc.matrices()
    assert time.monotonic() - start < 30.0


def test_criterion_3_d1_closed_form_matrices():
    """The d=1, (1,2) build lands on the documented exact matrices."""
    _, cert, result = _pipeline(1, Fraction(1), Fraction(2))
    rd = tt.raising_maps(cert)
    assert rd.c == 2
    assert rd.a == Fraction(1, 2)
    assert result.B == tt.RMatrix([[-1, -2], [0, 1]])
    assert result.B_prime == tt.RMatrix([[1, 4], [0, -1]])
    assert result.B_dprime == tt.RMatrix([[3, 4], [-2, -3]])
    assert result.b_solution_space_dim == 0


def test_criterion_4_population_recurrence_ratios_are_one():
    """Every certified triad in the population has all ratios exactly 1."""
    population = _population()
    assert len(population) == 29 + PERTURBATION_COUNT
    for cert, _ in population:
        assert cert.diameter >= 2
        all_one, table = tt.check_recurrence(cert)
        assert all_one
        assert len(table) == 3 * (cert.diameter - 1)
        assert all(ratio == 1 for _, _, ratio in table)


def test_criterion_5_reduction_is_canonical_and_idempotent():
    """reduce_triad reaches the certified reduced form of every member."""
    identity_witness = (Fraction(1), Fraction(0))
    for cert, is_base in _population():
        reduced, witnesses = tt.reduce_triad(cert)
        assert isinstance(reduced, tt.TriadCertificate)
        assert reduced.reduced
        d = reduced.diameter
        target = tuple(Fraction(2 * i - d) for i in range(d + 1))
        assert reduced.sequences == (target, target, target)
        equivalent, params = tt.affine_equivalent_triads(cert, reduced)
        assert equivalent, params
        if is_base:
            assert reduced.matrices == cert.matrices
            assert witnesses == (identity_witness,) * 3


def test_criterion_6_raising_maps_with_exact_laws():
    """R and r raise the third flag, commute, scale exactly, R bijective."""
    for d in range(1, 9):
        for beta, gamma in PARAMS:
            _, cert, _ = _pipeline(d, beta, gamma)
            rd = tt.raising_maps(cert)
            a, a_prime, a_dprime = cert.matrices
            assert rd.R == a - a_dprime
            assert rd.r == a_prime - a_dprime
            spaces = cert.orderings[2].eigenspaces
            for i, space in enumerate(spaces):
                for vector in space.basis:
                    image = rd.R.apply(vector)
                    if i < d:
                        assert spaces[i + 1].contains(image)
                    else:
                        assert all(entry == 0 for entry in image)
            assert tt.commutator(rd.R, rd.r).is_zero()
            assert rd.r == rd.c * rd.R
            assert rd.c == gamma / beta
            assert rd.c not in (0, 1)
            assert rd.a == 1 - 1 / rd.c
            assert rd.a not in (0, 1)
            for i in range(d):
                bijective, _ = tt.restricted_power_bijective(
                    rd.R, 1, spaces[i], spaces[i + 1]
                )
                assert bijective


def test_criterion_7_refutations_and_failed_synthesis():
    """Bad inputs are refuted; the non-thin triad yields no passing module."""
    eye = tt.RMatrix.identity(2)
    out = tt.verify_bd_triad(eye, eye, eye)
    assert isinstance(out, tt.Refutation) and not out
    assert out.clause == "degenerate"

    jordan = tt.RMatrix([[0, 1], [0, 0]])
    out = tt.verify_bd_triad(jordan, jordan, jordan)
    assert isinstance(out, tt.Refutation)
    assert out.clause == "diagonalizable"

    doc, _, _ = _pipeline(1, Fraction(1), Fraction(2))
    out = tt.verify_bd_triad(doc.a, doc.a, doc.a_dprime)
    assert isinstance(out, tt.Refutation)
    assert out.clause == "bijection"

    ce_doc, x02, ce_cert = _counterexample_cert()
    with pytest.raises(tt.SynthesisError):
        tt.synthesize_tet(ce_cert)
    zero = tt.RMatrix.zero(6)
    candidate = tt.TetModule(
        {
            (0, 3): ce_doc.a,
            (1, 3): ce_doc.a_prime,
            (2, 3): ce_doc.a_dprime,
            (0, 2): x02,
            (0, 1): zero,
            (1, 2): zero,
        }
    )
    assert not tt.verify_tet_relations(candidate).passed


@pytest.mark.parametrize("d", [9, 12, 16])
def test_criterion_8_vd_family_certifies_at_every_diameter(d):
    """No size cap refuses V_d: it verifies and reduces past d = 8."""
    cert = tt.verify_bd_triad(*tt.fixture_vd_triad(d, 1, 2).matrices())
    assert isinstance(cert, tt.TriadCertificate), cert
    reduced, _ = tt.reduce_triad(cert)
    assert reduced.thin and reduced.reduced
    assert reduced.diameter == d


def test_criterion_8_d12_module_passes_the_relations():
    """The d = 12 pipeline synthesizes a module with all 54 relations."""
    doc = tt.fixture_vd_triad(12, 1, 2)
    result = tt.synthesize_tet(tt.verify_bd_triad(*doc.matrices()))
    assert result.report.passed
    assert result.algebra_dimension == 169
