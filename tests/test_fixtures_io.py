"""Built-in fixtures and the exact-rational document format."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import triadtet as tt
from triadtet import RMatrix


def test_vd_fixture_d1_matrices(d1_doc):
    assert d1_doc.a == RMatrix([[-1, 0], [1, 1]])
    assert d1_doc.a_prime == RMatrix([[-1, 0], [2, 1]])
    assert d1_doc.a_dprime == RMatrix.diagonal([-1, 1])
    assert d1_doc.metadata["source"] == "vd-family"


def test_vd_fixture_d0_all_zero():
    doc = tt.fixture_vd_triad(0, 1, 2)
    assert all(m == RMatrix.zero(1) for m in doc.matrices())


def test_vd_fixture_d2_lower_triangular():
    doc = tt.fixture_vd_triad(2, 1, 2)
    for m in doc.matrices():
        for i in range(3):
            for j in range(3):
                if j > i:
                    assert m[i][j] == 0
        assert tuple(m[i][i] for i in range(3)) == (-2, 0, 2)
    cert = tt.verify_bd_triad(*doc.matrices())
    assert cert.thin and cert.reduced and cert.diameter == 2


_NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@given(
    st.integers(0, 6),
    st.tuples(_NONZERO, _NONZERO).filter(lambda bg: bg[0] != bg[1]),
)
def test_vd_fixture_certifies_thin_and_reduced(d, beta_gamma):
    """The fixture returns its triad unverified; it always certifies."""
    cert = tt.verify_bd_triad(*tt.fixture_vd_triad(d, *beta_gamma).matrices())
    assert cert and cert.thin and cert.reduced and cert.diameter == d


def test_vd_fixture_rejects_bad_parameters():
    with pytest.raises(ValueError):
        tt.fixture_vd_triad(1, 0, 2)
    with pytest.raises(ValueError):
        tt.fixture_vd_triad(1, 1, 0)
    with pytest.raises(ValueError):
        tt.fixture_vd_triad(1, 3, 3)
    with pytest.raises(ValueError):
        tt.fixture_vd_triad(-1, 1, 2)


def test_counterexample_exact_entries(counterexample):
    doc, x02 = counterexample
    assert tuple(row[0] for row in doc.a.entries) == (-3, 1, 1, 0, 0, 0)
    assert doc.a_dprime == RMatrix.diagonal([-3, -1, -1, 1, 1, 3])
    assert x02[0] == (3, 12, 0, 0, 0, 0)
    assert doc.dim == 6
    assert doc.metadata == {"source": "counterexample"}


def test_counterexample_certifies_with_fat_shape(counterexample_cert):
    assert counterexample_cert.shape == (1, 2, 2, 1)
    assert not counterexample_cert.thin


def test_parse_rational_accepts_exact_forms():
    assert tt.parse_rational("7") == 7
    assert tt.parse_rational("-3/4") == Fraction(-3, 4)
    assert tt.parse_rational("3/6") == Fraction(1, 2)
    assert tt.parse_rational("01") == 1


def test_parse_rational_rejects_inexact_forms():
    for bad in ("1.5", "1/0", "1/02", "+3", "--3", " 1", "1 ", "", "3/-2"):
        with pytest.raises(tt.DocumentFormatError):
            tt.parse_rational(bad)
    with pytest.raises(tt.DocumentFormatError):
        tt.parse_rational(7)


def test_format_rational():
    assert tt.format_rational(Fraction(5)) == "5"
    assert tt.format_rational(Fraction(-3, 4)) == "-3/4"
    assert tt.format_rational(Fraction(0)) == "0"


small_fracs = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


@given(small_fracs)
def test_rational_round_trip(value):
    assert tt.parse_rational(tt.format_rational(value)) == value


def test_triad_document_round_trip(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    assert tt.load_triad(path) == d1_doc


def test_triad_document_normalizes_entries(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    raw = json.loads(path.read_text())
    raw["A"][0][0] = "-2/2"
    path.write_text(json.dumps(raw))
    assert tt.load_triad(path).a[0][0] == -1


def test_triad_document_positional_errors(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    raw = json.loads(path.read_text())
    raw["Aprime"][1][0] = "1.5"
    path.write_text(json.dumps(raw))
    with pytest.raises(tt.DocumentFormatError, match=r"Aprime: row 1, column 0"):
        tt.load_triad(path)


def test_triad_document_rejects_ragged_rows(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    raw = json.loads(path.read_text())
    raw["A"][1] = ["1"]
    path.write_text(json.dumps(raw))
    with pytest.raises(tt.DocumentFormatError, match="row 1"):
        tt.load_triad(path)


def test_triad_document_rejects_missing_matrix(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    raw = json.loads(path.read_text())
    del raw["Adprime"]
    path.write_text(json.dumps(raw))
    with pytest.raises(tt.DocumentFormatError, match="Adprime"):
        tt.load_triad(path)


def test_triad_document_rejects_bad_dim(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    for bad in ("2", 0, -3, True, None):
        raw = json.loads(path.read_text())
        raw["dim"] = bad
        path.write_text(json.dumps(raw))
        with pytest.raises(tt.DocumentFormatError):
            tt.load_triad(path)


def test_triad_document_rejects_row_count_mismatch(tmp_path, d1_doc):
    path = tmp_path / "triad.json"
    tt.save_triad(d1_doc, path)
    raw = json.loads(path.read_text())
    raw["dim"] = 3
    path.write_text(json.dumps(raw))
    with pytest.raises(tt.DocumentFormatError, match="rows"):
        tt.load_triad(path)


def test_triad_document_rejects_non_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(tt.DocumentFormatError, match="JSON"):
        tt.load_triad(path)


def test_triad_document_rejects_non_square_matrices():
    with pytest.raises(tt.DocumentFormatError):
        tt.TriadDocument(
            dim=2,
            a=RMatrix.zero(2),
            a_prime=RMatrix.zero(2),
            a_dprime=RMatrix.zero(3),
        )


def test_metadata_survives_round_trip(tmp_path):
    doc = tt.fixture_vd_triad(2, Fraction(1, 2), Fraction(1, 3))
    path = tmp_path / "triad.json"
    tt.save_triad(doc, path)
    loaded = tt.load_triad(path)
    assert loaded.metadata == {
        "source": "vd-family",
        "d": 2,
        "beta": "1/2",
        "gamma": "1/3",
    }


def test_tet_module_document_round_trip(tmp_path, d1_synthesis):
    doc = tt.TetModuleDocument.from_module(d1_synthesis.module)
    path = tmp_path / "module.json"
    tt.save_tet_module(doc, path)
    loaded = tt.load_tet_module(path)
    assert loaded == doc
    assert loaded.to_module() == d1_synthesis.module


def test_tet_module_document_rejects_missing_matrix(tmp_path, d1_synthesis):
    doc = tt.TetModuleDocument.from_module(d1_synthesis.module)
    path = tmp_path / "module.json"
    tt.save_tet_module(doc, path)
    raw = json.loads(path.read_text())
    del raw["X23"]
    path.write_text(json.dumps(raw))
    with pytest.raises(tt.DocumentFormatError, match="X23"):
        tt.load_tet_module(path)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(small_fracs, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_document_json_dict_round_trip(rows):
    m = RMatrix(rows)
    doc = tt.TriadDocument(dim=m.rows, a=m, a_prime=m, a_dprime=m)
    wire = json.loads(json.dumps(doc.to_json_dict()))
    assert tt.TriadDocument.from_json_dict(wire) == doc
