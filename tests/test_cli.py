"""Command-line interface: subcommands, exit codes, machine output."""

from __future__ import annotations

import json

import triadtet as tt
from triadtet.cli import main


def _write_fixture(tmp_path, d=2, beta="1", gamma="2"):
    path = tmp_path / "triad.json"
    code = main(
        [
            "fixture",
            "vd-triad",
            "--d",
            str(d),
            "--beta",
            beta,
            "--gamma",
            gamma,
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


def test_fixture_then_verify(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert main(["triad", "verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "thin: yes" in out


def test_verify_json_output(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    capsys.readouterr()
    assert main(["triad", "verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["diameter"] == 2
    assert payload["shape"] == [1, 1, 1]
    assert payload["eigenvalues"][0] == ["-2", "0", "2"]


def test_verify_json_shifted_triad(tmp_path, capsys, shifted_v8_doc):
    path = tmp_path / "shifted.json"
    tt.save_triad(shifted_v8_doc, path)
    assert main(["triad", "verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert payload["diameter"] == 8
    assert payload["eigenvalues"][0][0] == "746122"


def test_verify_refuted_exits_one(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    raw = json.loads(path.read_text())
    raw["A"][0][0] = "5"
    path.write_text(json.dumps(raw))
    assert main(["triad", "verify", str(path)]) == 1
    assert "refuted" in capsys.readouterr().out


def test_refutation_json_carries_clause_transformation_index(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    raw = json.loads(path.read_text())
    raw["Aprime"] = raw["A"]
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    for verb in (["verify"], ["reduce", "-o", str(tmp_path / "r.json")]):
        assert main(["triad", *verb, str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is False
        assert payload["refutation"].startswith("refuted (bijection) [A] at index 0")
        assert payload["clause"] == "bijection"
        assert payload["transformation"] == "A"
        assert payload["index"] == 0

    module_path = tmp_path / "module.json"
    path = _write_fixture(tmp_path)
    assert main(["triad", "synthesize", str(path), "-o", str(module_path)]) == 0
    raw = json.loads(module_path.read_text())
    raw["X01"] = [["0"] * raw["dim"] for _ in range(raw["dim"])]
    module_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["tet", "corners", str(module_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertex"] == 0
    assert (payload["clause"], payload["transformation"], payload["index"]) == (
        "bijection",
        "A'",
        0,
    )


def test_refusal_from_an_exception_has_no_clause_fields(tmp_path, capsys):
    ce_dir = tmp_path / "ce"
    assert main(["fixture", "counterexample", "-o", str(ce_dir)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "module.json"
    triad_path = str(ce_dir / "triad.json")
    assert main(["triad", "synthesize", triad_path, "--json", "-o", str(out_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"verified", "refutation"}
    assert "not thin" in payload["refutation"]


def test_diameter_ten_fixture_verifies(tmp_path, capsys):
    path = _write_fixture(tmp_path, d=10)
    capsys.readouterr()
    assert main(["triad", "verify", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diameter"] == 10
    assert payload["thin"] is True and payload["reduced"] is True


def test_verify_missing_file_exits_two(tmp_path, capsys):
    assert main(["triad", "verify", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["triad", "verify", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_irrational_spectrum_exits_two(tmp_path, capsys):
    path = tmp_path / "triad.json"
    doc = tt.TriadDocument(
        dim=2,
        a=tt.RMatrix([[0, 1], [2, 0]]),
        a_prime=tt.RMatrix.zero(2),
        a_dprime=tt.RMatrix.zero(2),
    )
    tt.save_triad(doc, path)
    assert main(["triad", "verify", str(path)]) == 2
    assert "out of scope" in capsys.readouterr().err


def test_reduce_writes_reduced_document(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    raw = json.loads(path.read_text())
    # shift A by 2A + 3I entrywise, keeping an exact document
    doc = tt.load_triad(path)
    shifted = tt.TriadDocument(
        dim=doc.dim,
        a=2 * doc.a + 3 * tt.RMatrix.identity(doc.dim),
        a_prime=doc.a_prime,
        a_dprime=doc.a_dprime,
    )
    tt.save_triad(shifted, path)
    out_path = tmp_path / "reduced.json"
    assert main(["triad", "reduce", str(path), "-o", str(out_path)]) == 0
    reduced = tt.load_triad(out_path)
    assert reduced.a == doc.a
    assert reduced.metadata["witnesses"]["A"] == ["1/2", "-3/2"]
    assert raw["Aprime"] == json.loads(out_path.read_text())["Aprime"]


def test_synthesize_then_tet_verify(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    module_path = tmp_path / "module.json"
    assert main(["triad", "synthesize", str(path), "-o", str(module_path)]) == 0
    assert main(["tet", "verify", str(module_path)]) == 0
    capsys.readouterr()
    assert main(["tet", "corners", str(module_path)]) == 0
    out = capsys.readouterr().out
    assert "corner 0" in out and "corner 3" in out


def test_synthesize_json_reports_certificates(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    module_path = tmp_path / "module.json"
    capsys.readouterr()
    code = main(
        ["triad", "synthesize", str(path), "--json", "-o", str(module_path)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["synthesized"] is True
    assert payload["algebra_dimension"] == 9
    assert payload["irreducible"] is True
    assert payload["b_solution_space_dim"] == 0
    assert payload["corner"] == "0123"


def test_synthesize_alternate_corner(tmp_path):
    path = _write_fixture(tmp_path)
    module_path = tmp_path / "module.json"
    code = main(
        [
            "triad",
            "synthesize",
            str(path),
            "--corner",
            "1230",
            "-o",
            str(module_path),
        ]
    )
    assert code == 0
    module = tt.load_tet_module(module_path).to_module()
    doc = tt.load_triad(path)
    assert tt.corner_triad(module, 0) == doc.matrices()


def test_synthesize_refuses_counterexample(tmp_path, capsys):
    ce_dir = tmp_path / "ce"
    assert main(["fixture", "counterexample", "-o", str(ce_dir)]) == 0
    triad_path = ce_dir / "triad.json"
    x02_path = ce_dir / "x02.json"
    assert triad_path.exists() and x02_path.exists()
    assert main(["triad", "verify", str(triad_path)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "module.json"
    assert main(["triad", "synthesize", str(triad_path), "-o", str(out_path)]) == 1
    assert "not thin" in capsys.readouterr().out
    assert not out_path.exists()
    x02_raw = json.loads(x02_path.read_text())
    assert x02_raw["X02"][0] == ["3", "12", "0", "0", "0", "0"]


def test_tet_verify_refuted_lists_violations(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    module_path = tmp_path / "module.json"
    assert main(["triad", "synthesize", str(path), "-o", str(module_path)]) == 0
    raw = json.loads(module_path.read_text())
    raw["X01"] = [["0"] * raw["dim"] for _ in range(raw["dim"])]
    module_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["tet", "verify", str(module_path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False
    assert any(v.startswith("corner") for v in payload["violations"])
    assert main(["tet", "corners", str(module_path)]) == 1


def test_fixture_rejects_bad_parameters(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert (
        main(
            [
                "fixture",
                "vd-triad",
                "--d",
                "1",
                "--beta",
                "0",
                "--gamma",
                "2",
                "-o",
                str(out),
            ]
        )
        == 2
    )
    assert "nonzero" in capsys.readouterr().err
    assert (
        main(
            [
                "fixture",
                "vd-triad",
                "--d",
                "1",
                "--beta",
                "1.5",
                "--gamma",
                "2",
                "-o",
                str(out),
            ]
        )
        == 2
    )


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main([]) == 2
    assert main(["nonsense"]) == 2
    assert main(["triad"]) == 2
    path = _write_fixture(tmp_path)
    assert (
        main(
            [
                "triad",
                "synthesize",
                str(path),
                "--corner",
                "0124",
                "-o",
                str(tmp_path / "m.json"),
            ]
        )
        == 2
    )
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "triad" in capsys.readouterr().out
