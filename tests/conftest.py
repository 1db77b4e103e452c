"""Shared fixtures: built-in triads, their certificates, synthesized modules."""

from __future__ import annotations

import pytest
from hypothesis import settings

import triadtet as tt

settings.register_profile("exact", deadline=None, max_examples=40)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def counterexample():
    return tt.fixture_counterexample()


@pytest.fixture(scope="session")
def counterexample_cert(counterexample):
    doc, _ = counterexample
    cert = tt.verify_bd_triad(*doc.matrices())
    assert cert
    return cert


@pytest.fixture(scope="session")
def d1_doc():
    return tt.fixture_vd_triad(1, 1, 2)


@pytest.fixture(scope="session")
def d1_cert(d1_doc):
    cert = tt.verify_bd_triad(*d1_doc.matrices())
    assert cert
    return cert


@pytest.fixture(scope="session")
def d1_synthesis(d1_cert):
    return tt.synthesize_tet(d1_cert)


@pytest.fixture(scope="session")
def d2_cert():
    doc = tt.fixture_vd_triad(2, 1, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    assert cert
    return cert


@pytest.fixture(scope="session")
def d2_synthesis(d2_cert):
    return tt.synthesize_tet(d2_cert)


@pytest.fixture(scope="session")
def d3_synthesis():
    doc = tt.fixture_vd_triad(3, 2, 3)
    cert = tt.verify_bd_triad(*doc.matrices())
    assert cert
    return tt.synthesize_tet(cert)


@pytest.fixture(scope="session")
def shifted_v8_doc():
    # eigenvalues 746122..746138: each numerator has many divisors
    doc = tt.fixture_vd_triad(8, 1, 2)
    shift = 746130 * tt.RMatrix.identity(9)
    return tt.TriadDocument(9, *(m + shift for m in doc.matrices()))
