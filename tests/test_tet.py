"""Tetrahedron modules: relations, spectra, corners, faces, irreducibility."""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

import pytest

import triadtet as tt
from triadtet import RMatrix
from triadtet.tet import CANONICAL_EDGES


def test_zero_module_passes_all_relations():
    report = tt.verify_tet_relations(tt.TetModule.zero(1))
    assert report.passed
    assert report.antisymmetry_ok and report.corner_ok and report.dolan_grady_ok
    assert report.violations == ()


def test_module_requires_all_edges():
    with pytest.raises(ValueError):
        tt.TetModule({(0, 1): RMatrix.zero(1)})


def test_module_rejects_inconsistent_orientations():
    gens = {edge: RMatrix.zero(2) for edge in CANONICAL_EDGES}
    gens[(1, 0)] = RMatrix.identity(2)
    del gens[(0, 1)]
    m = tt.TetModule(gens)
    assert m.gen(0, 1) == -RMatrix.identity(2)
    gens[(0, 1)] = RMatrix.identity(2)
    with pytest.raises(ValueError):
        tt.TetModule(gens)


def test_gen_is_antisymmetric(d1_synthesis):
    m = d1_synthesis.module
    for i, j in CANONICAL_EDGES:
        assert m.gen(j, i) == -m.gen(i, j)
    assert len(m.gens) == 12


def test_d1_module_passes_relations(d1_synthesis):
    report = tt.verify_tet_relations(d1_synthesis.module)
    assert report.passed


def test_relation_ids_are_deterministic():
    module = tt.TetModule(
        {edge: RMatrix.identity(2) for edge in CANONICAL_EDGES}
    )
    report = tt.verify_tet_relations(module)
    assert not report.passed
    ids = [identifier for identifier, _ in report.violations]
    assert ids == sorted(ids)
    # antisymmetry holds structurally and every Dolan-Grady bracket is 0 = 0;
    # a corner bracket [X_hi, X_ij] = 0 fails exactly when the stored signs
    # of X_hi and X_ij agree, i.e. on the 8 monotone index triples
    assert report.antisymmetry_ok
    assert not report.corner_ok
    assert report.dolan_grady_ok
    assert len(ids) == 8
    assert "corner (0,1,2)" in ids
    assert "corner (3,2,1)" in ids


def test_counterexample_candidate_fails_dolan_grady(counterexample):
    doc, x02 = counterexample
    module = tt.TetModule(
        {
            (0, 3): doc.a,
            (1, 3): doc.a_prime,
            (2, 3): doc.a_dprime,
            (0, 2): x02,
            (0, 1): RMatrix.zero(6),
            (1, 2): RMatrix.zero(6),
        }
    )
    report = tt.verify_tet_relations(module)
    assert not report.passed
    ids = [identifier for identifier, _ in report.violations]
    assert "dolan-grady (1,3)x(0,2)" in ids
    assert "dolan-grady (3,1)x(0,2)" in ids


def test_spectrum_diameter_d1(d1_synthesis):
    assert tt.spectrum_diameter(d1_synthesis.module) == 1
    assert tt.char_poly(d1_synthesis.B_dprime) == (1, 0, -1)


def test_spectrum_diameter_zero_module():
    assert tt.spectrum_diameter(tt.TetModule.zero(1)) == 0


def test_spectrum_diameter_rejects_non_ladder():
    gens = {edge: RMatrix.zero(2) for edge in CANONICAL_EDGES}
    gens[(0, 1)] = RMatrix.diagonal([0, 2])
    with pytest.raises(tt.NonConformingSpectrum):
        tt.spectrum_diameter(tt.TetModule(gens))


def test_corner_triad_at_default_vertex(d1_synthesis, d1_doc):
    m = d1_synthesis.module
    assert tt.corner_triad(m, 3) == d1_doc.matrices()


def test_corner_triad_opposite_vertex(d1_synthesis):
    m = d1_synthesis.module
    assert tt.corner_triad(m, 0) == (
        d1_synthesis.B_dprime,
        -d1_synthesis.B_prime,
        -m.gen(0, 3),
    )


def test_corner_triad_rejects_bad_vertex(d1_synthesis):
    with pytest.raises(ValueError):
        tt.corner_triad(d1_synthesis.module, 4)


def test_all_four_corner_orders_certify(d2_synthesis):
    """The corner triads certify in rotated orders too; the axioms are symmetric."""
    m = d2_synthesis.module
    b = -m.gen(1, 2)
    b_prime = m.gen(0, 2)
    b_dprime = -m.gen(0, 1)
    a, a_prime, a_dprime = (m.gen(0, 3), m.gen(1, 3), m.gen(2, 3))
    listed = (
        (a, a_prime, a_dprime),
        (-a_dprime, b_prime, -b),
        (b, -a_prime, -b_dprime),
        (b_dprime, -b_prime, -a),
    )
    for triad in listed:
        cert = tt.verify_bd_triad(*triad)
        assert cert
        assert cert.reduced


def test_face_triple_values(d1_synthesis):
    m = d1_synthesis.module
    b = -m.gen(1, 2)
    triple = tt.face_triple(m, 2, 3, 1)
    assert (triple.x, triple.y, triple.z) == (
        m.gen(2, 3),
        -m.gen(1, 3),
        -b,
    )


def test_face_triple_zero_module():
    triple = tt.face_triple(tt.TetModule.zero(1), 0, 1, 2)
    assert triple.x == triple.y == triple.z == RMatrix.zero(1)


def test_every_face_recovers_sl2(d1_synthesis):
    import itertools

    m = d1_synthesis.module
    for h, i, j in itertools.permutations(range(4), 3):
        triple = tt.face_triple(m, h, i, j)
        action = tt.standard_from_equitable(triple)
        assert tt.commutator(action.e, action.f) == action.h


def test_face_triple_rejects_non_module(counterexample):
    doc, x02 = counterexample
    module = tt.TetModule(
        {
            (0, 3): doc.a,
            (1, 3): doc.a_prime,
            (2, 3): doc.a_dprime,
            (0, 2): x02,
            (0, 1): RMatrix.zero(6),
            (1, 2): RMatrix.zero(6),
        }
    )
    with pytest.raises(ValueError):
        tt.face_triple(module, 0, 1, 2)


def test_base_one_triples_from_module(d2_synthesis):
    """Each corner contributes a bidiagonal triple with all sequences 2i-d."""
    m = d2_synthesis.module
    b = -m.gen(1, 2)
    b_prime = m.gen(0, 2)
    b_dprime = -m.gen(0, 1)
    a, a_prime, a_dprime = (m.gen(0, 3), m.gen(1, 3), m.gen(2, 3))
    target = tuple(2 * i - 2 for i in range(3))
    for triple in (
        (a_prime, -a_dprime, b),
        (a, -a_prime, b_dprime),
        (a, -a_dprime, -b_prime),
        (b_prime, b, b_dprime),
    ):
        cert = tt.verify_bd_triple(*triple)
        assert cert
        assert all(seq == target for seq in cert.sequences)


def test_thin_triple_restricted_powers_bijective(d3_synthesis):
    """Commutator powers shift the middle element's eigenspaces bijectively."""
    m = d3_synthesis.module
    x, y, z = (m.gen(1, 3), m.gen(3, 2), m.gen(2, 1))
    cert = tt.verify_bd_triple(x, y, z)
    assert cert
    d = cert.diameter
    spaces = cert.orderings[1].eigenspaces
    down = tt.commutator(x, y)
    up = tt.commutator(z, y)
    for i in range(d + 1):
        for j in range(i + 1):
            ok, _ = tt.restricted_power_bijective(down, j, spaces[i], spaces[i - j])
            assert ok
        for j in range(d - i + 1):
            ok, _ = tt.restricted_power_bijective(up, j, spaces[i], spaces[i + j])
            assert ok


def test_irreducible_sufficient_d1(d1_synthesis):
    certified, dim = tt.irreducible_sufficient(d1_synthesis.module)
    assert certified
    assert dim == 4


def test_irreducible_sufficient_d2(d2_synthesis):
    certified, dim = tt.irreducible_sufficient(d2_synthesis.module)
    assert certified
    assert dim == 9


def test_irreducible_not_certified_on_doubled_scalar_module():
    certified, dim = tt.irreducible_sufficient(tt.TetModule.zero(2))
    assert not certified
    assert dim == 1


def test_corner_triads_all_reduced(d1_synthesis):
    certs = tt.corner_triads_are_bd_triads(d1_synthesis.module)
    assert len(certs) == 4
    for cert in certs:
        assert cert.diameter == 1
        assert cert.reduced


def test_corner_triads_trivial_module():
    certs = tt.corner_triads_are_bd_triads(tt.TetModule.zero(1))
    assert all(cert.diameter == 0 for cert in certs)


def test_corner_triads_refuted_on_degenerate_module():
    with pytest.raises(tt.CornerTriadRefuted) as info:
        tt.corner_triads_are_bd_triads(tt.TetModule.zero(2))
    assert info.value.vertex == 0
    assert not info.value.refutation


# -- irreducibility: the Burnside test against the algebra closure ----------

def _synthesized_module(d: int) -> tt.TetModule:
    cert = tt.verify_bd_triad(*tt.fixture_vd_triad(d, 1, 2).matrices())
    return tt.synthesize_tet(cert).module


def _inverse(p: RMatrix) -> RMatrix:
    n = p.rows
    eye = RMatrix.identity(n)
    reduced, rank = tt.rref(RMatrix([p[i] + eye[i] for i in range(n)]))
    assert rank == n
    return RMatrix([row[n:] for row in reduced])


def _conjugated(module: tt.TetModule, p: RMatrix) -> tt.TetModule:
    p_inv = _inverse(p)
    return tt.TetModule(
        {edge: p_inv * module.gen(*edge) * p for edge in CANONICAL_EDGES}
    )


def _block_sum(first: tt.TetModule, second: tt.TetModule) -> tt.TetModule:
    n, m = first.dim, second.dim

    def block(x: RMatrix, y: RMatrix) -> RMatrix:
        return RMatrix(
            [list(x[i]) + [0] * m for i in range(n)]
            + [[0] * n + list(y[i]) for i in range(m)]
        )

    return tt.TetModule(
        {edge: block(first.gen(*edge), second.gen(*edge)) for edge in CANONICAL_EDGES}
    )


def _closure_dimension(module: tt.TetModule) -> int:
    return tt.generated_algebra_dimension(
        module.dim, [module.gen(*edge) for edge in CANONICAL_EDGES]
    )


def _count_closure_calls(monkeypatch) -> list:
    from triadtet import tet

    calls = []
    original = tet.generated_algebra_dimension

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tet, "generated_algebra_dimension", counted)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_burnside_agrees_with_closure_on_synthesized_modules(d, monkeypatch):
    module = _synthesized_module(d)
    expected = _closure_dimension(module)
    assert expected == (d + 1) ** 2
    calls = _count_closure_calls(monkeypatch)
    assert tt.irreducible_sufficient(module) == (True, expected)
    assert calls == []


def test_burnside_agrees_with_closure_on_dense_conjugate(monkeypatch):
    p = RMatrix([[1, 2, -1], [Fraction(1, 2), 3, 1], [-2, 1, Fraction(5, 3)]])
    base = _synthesized_module(2)
    module = _conjugated(base, p)
    assert module.gen(0, 1) != base.gen(0, 1)
    expected = _closure_dimension(module)
    calls = _count_closure_calls(monkeypatch)
    assert tt.irreducible_sufficient(module) == (True, expected)
    assert expected == 9 and calls == []


def test_burnside_falls_back_without_a_simple_spectrum(monkeypatch):
    module = tt.TetModule.zero(2)
    calls = _count_closure_calls(monkeypatch)
    assert tt.irreducible_sufficient(module) == (False, 1)
    assert len(calls) == 1


def test_burnside_refutes_a_reducible_sum_with_simple_spectra(monkeypatch):
    module = _block_sum(_synthesized_module(2), _synthesized_module(1))
    # spectrum {-2, 0, 2} + {-1, 1}: five distinct eigenvalues on Q^5
    assert len(tt.eigen_decompose(module.gen(0, 1)).pairs) == 5
    expected = _closure_dimension(module)
    calls = _count_closure_calls(monkeypatch)
    assert tt.irreducible_sufficient(module) == (False, expected)
    assert expected == 9 + 4
    assert len(calls) == 1


def test_burnside_needs_support_edges_in_both_directions():
    """A lower-triangular action reaches every node from the first one only."""
    lower = RMatrix([[0, 0], [1, 0]])
    gens = {edge: lower for edge in CANONICAL_EDGES}
    gens[(0, 1)] = RMatrix.diagonal([0, 1])
    module = tt.TetModule(gens)
    assert _closure_dimension(module) == 3
    assert tt.irreducible_sufficient(module) == (False, 3)


# -- the 54 relations from 18 brackets ---------------------------------------

def _relations_exhaustive(module: tt.TetModule) -> list:
    """Reference: every one of the 54 relations evaluated on its own."""
    violations = []
    for i, j in CANONICAL_EDGES:
        defect = module.gen(i, j) + module.gen(j, i)
        if not defect.is_zero():
            violations.append((f"antisymmetry ({i},{j})", defect))
    for h, i, j in itertools.permutations(range(4), 3):
        xhi, xij = module.gen(h, i), module.gen(i, j)
        defect = tt.commutator(xhi, xij) - 2 * xhi - 2 * xij
        if not defect.is_zero():
            violations.append((f"corner ({h},{i},{j})", defect))
    for h, i, j, k in itertools.permutations(range(4), 4):
        xhi, xjk = module.gen(h, i), module.gen(j, k)
        inner = tt.commutator(xhi, xjk)
        defect = tt.commutator(xhi, tt.commutator(xhi, inner)) - 4 * inner
        if not defect.is_zero():
            violations.append((f"dolan-grady ({h},{i})x({j},{k})", defect))
    return violations


def _assert_matches_reference(module: tt.TetModule) -> tt.RelationReport:
    report = tt.verify_tet_relations(module)
    expected = _relations_exhaustive(module)
    assert [v[0] for v in report.violations] == [v[0] for v in expected]
    assert [v[1] for v in report.violations] == [v[1] for v in expected]
    assert report.corner_ok == (not any(v[0].startswith("corner") for v in expected))
    assert report.dolan_grady_ok == (
        not any(v[0].startswith("dolan") for v in expected)
    )
    return report


@pytest.mark.parametrize("edge", CANONICAL_EDGES)
def test_relations_match_exhaustive_loop_with_one_corrupted_generator(edge, d2_synthesis):
    gens = {e: d2_synthesis.module.gen(*e) for e in CANONICAL_EDGES}
    gens[edge] = gens[edge] + RMatrix([[0, 1, 0], [0, 0, 0], [Fraction(1, 3), 0, 0]])
    report = _assert_matches_reference(tt.TetModule(gens))
    assert not report.passed
    # both orientations of every failing corner and Dolan-Grady class appear
    ids = {v[0] for v in report.violations}
    assert any(i.startswith("corner") for i in ids)
    assert len(ids) % 2 == 0


def test_relations_match_exhaustive_loop_on_fixtures(d2_synthesis, counterexample):
    doc, x02 = counterexample
    zero = RMatrix.zero(6)
    modules = (
        d2_synthesis.module,
        tt.TetModule({edge: RMatrix.identity(2) for edge in CANONICAL_EDGES}),
        tt.TetModule(
            {
                (0, 3): doc.a,
                (1, 3): doc.a_prime,
                (2, 3): doc.a_dprime,
                (0, 2): x02,
                (0, 1): zero,
                (1, 2): zero,
            }
        ),
    )
    for module in modules:
        _assert_matches_reference(module)


# -- one eigendecomposition per stored generator ----------------------------

def test_synthesis_decomposes_each_generator_once(monkeypatch):
    """At d = 4: 6 module generators plus 4 for checking B."""
    from triadtet import linalg

    cert = tt.verify_bd_triad(*tt.fixture_vd_triad(4, 1, 2).matrices())
    original = linalg.eigen_decompose
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("triadtet") and getattr(module, "eigen_decompose", None) is original:
            monkeypatch.setattr(module, "eigen_decompose", counted)
    result = tt.synthesize_tet(cert)
    assert result.report.passed and result.algebra_dimension == 25
    assert len(calls) <= 10


def test_shared_decompositions_equal_fresh_ones(counterexample):
    """X_ji reuses the decomposition of X_ij negated, in ascending order."""
    doc, x02 = counterexample
    module = tt.TetModule(
        {
            (0, 3): doc.a,
            (1, 3): doc.a_prime,
            (2, 3): doc.a_dprime,
            (0, 2): x02,
            (0, 1): RMatrix.diagonal([1, 0, 0, 2, 0, 0]),
            (2, 1): RMatrix([[int(i == j + 1) for j in range(6)] for i in range(6)]),
        }
    )
    for i, j in itertools.permutations(range(4), 2):
        assert module._decomposition(i, j) == tt.eigen_decompose(module.gen(i, j))


@pytest.mark.parametrize("d", [0, 1, 3])
def test_corner_certificates_match_fresh_verification(d):
    """Shared, sign-flipped decompositions give the certificates verify_bd_triad does."""
    cert = tt.verify_bd_triad(*tt.fixture_vd_triad(d, 2, 3).matrices())
    result = tt.synthesize_tet(cert)
    assert len(result.corner_certificates) == 4
    for u, shared in enumerate(result.corner_certificates):
        fresh = tt.verify_bd_triad(*tt.corner_triad(result.module, u))
        for field in ("diameter", "orderings", "sequences", "shape", "thin",
                      "bijection_witnesses", "matrices"):
            assert getattr(shared, field) == getattr(fresh, field)
