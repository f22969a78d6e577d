import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geamkit.geam
from geamkit import (ValidationError, build_witness, load_geam, qubit_mub, qutrit_mub,
                     rotation_set, save_geam)
from geamkit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """Exit code of a CLI run; argparse rejections arrive as SystemExit."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.fixture()
def qubit_geam_file(tmp_path):
    path = tmp_path / "g2.json"
    code = run("build-geam", "--d", 2, "--layout", "mub", "--b", 1,
               "--out", path, "--no-timestamp")
    assert code == 0
    return path


@pytest.fixture()
def qubit_witness_file(tmp_path, qubit_geam_file):
    path = tmp_path / "w2.json"
    assert run("witness", "--geam", qubit_geam_file, "--k", 1, "--l", 1, "--kk", 3,
               "--rotation-seed", 5, "--out", path, "--no-timestamp") == 0
    return path


def test_build_geam_mub(qubit_geam_file):
    doc = json.loads(qubit_geam_file.read_text())
    assert doc["format"] == "geam/1"
    assert doc["d"] == 2 and doc["m"] == [2, 2, 2]
    assert len(doc["operators"]) == 6


def test_build_geam_rejects_boundary_b(tmp_path, capsys):
    code = run("build-geam", "--d", 2, "--layout", "mub", "--b", 0.5,
               "--out", tmp_path / "x.json")
    assert code == 2
    assert "admissible interval" in capsys.readouterr().err


def test_build_geam_single_frame_qutrit(tmp_path):
    out = tmp_path / "g3.json"
    assert run("build-geam", "--d", 3, "--layout", "9", "--b", 0.4,
               "--out", out, "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == [9] and len(doc["operators"]) == 9


def test_build_geam_positivity_failure_message(tmp_path, capsys):
    code = run("build-geam", "--d", 3, "--layout", "9", "--b", 0.9,
               "--out", tmp_path / "x.json")
    assert code == 2
    assert "min eigenvalue" in capsys.readouterr().err


def test_build_geam_explicit_gamma_and_tau(tmp_path):
    out = tmp_path / "g.json"
    code = run("build-geam", "--d", 2, "--layout", "3,2", "--gamma", "0.5,0.5",
               "--b", "0.8,0.6", "--tau", "1,1", "--out", out, "--no-timestamp")
    assert code == 0


def test_analyze(tmp_path, qubit_geam_file):
    out = tmp_path / "analysis.json"
    assert run("analyze", "--geam", qubit_geam_file, "--seed", 7,
               "--samples", 50, "--out", out, "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    assert doc["validation"]["passed"]
    assert doc["equidistance"]["equidistant"]
    assert abs(doc["equidistance"]["s"] - 1 / 9) < 1e-12
    assert abs(doc["conical_design"]["kappa_plus"] - 1 / 9) < 1e-12
    assert doc["conical_design"]["residual"] < 1e-9
    assert doc["coincidence"]["passed"]


def test_witness_and_certify_chain(tmp_path, qubit_geam_file):
    wpath = tmp_path / "w.json"
    assert run("witness", "--geam", qubit_geam_file, "--k", 2, "--l", 1,
               "--kk", 3, "--rotation-seed", 0, "--out", wpath,
               "--no-timestamp") == 0
    doc = json.loads(wpath.read_text())
    assert doc["meta"]["k"] == 2
    assert doc["meta"]["geam_fingerprint"]

    cpath = tmp_path / "cert.json"
    assert run("certify", "--witness", wpath, "--seed", 1, "--restarts", 20,
               "--iters", 200, "--mehta-samples", 50, "--out", cpath,
               "--no-timestamp") == 0
    cert = json.loads(cpath.read_text())
    assert cert["verdict"] == "certified-k-positive-numerically"
    assert cert["mehta"]["max_ratio"] <= 1.0 + 1e-9


def test_certify_violation_exit_code(tmp_path, qubit_geam_file):
    # rotation seed 5 draws an even-parity swap pattern: the k = 1
    # witness certified at rank 2 reaches its lowest eigenvalue -1/9
    wpath = tmp_path / "w.json"
    assert run("witness", "--geam", qubit_geam_file, "--k", 1, "--l", 1,
               "--kk", 3, "--rotation-seed", 5, "--out", wpath,
               "--no-timestamp") == 0
    cpath = tmp_path / "cert.json"
    code = run("certify", "--witness", wpath, "--k", 2, "--seed", 1,
               "--restarts", 20, "--iters", 200, "--mehta-samples", 10,
               "--out", cpath, "--no-timestamp")
    assert code == 3
    cert = json.loads(cpath.read_text())
    assert cert["verdict"] == "violated"
    assert abs(cert["min_value"] - (-1 / 9)) < 1e-8


def test_detect(tmp_path, qubit_geam_file):
    wpath = tmp_path / "w.json"
    assert run("witness", "--geam", qubit_geam_file, "--k", 1, "--l", 1,
               "--kk", 3, "--rotation-seed", 5, "--out", wpath,
               "--no-timestamp") == 0
    out = tmp_path / "det.csv"
    assert run("detect", "--witness", wpath, "--steps", 101, "--seed", 0,
               "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,parameter,k,L,K,expectation,detected"
    assert len(lines) == 102
    flags = [row.split(",")[-1] for row in lines[1:]]
    # detection starts strictly above p = 1/3 on the 101-point grid
    assert flags.count("1") == sum(1 for i in range(101) if i / 100 > 1 / 3)


def test_detect_without_seed(tmp_path, qubit_geam_file):
    wpath = tmp_path / "w.json"
    assert run("witness", "--geam", qubit_geam_file, "--k", 1, "--l", 1,
               "--kk", 3, "--rotation-seed", 5, "--out", wpath,
               "--no-timestamp") == 0
    with_seed, without = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("detect", "--witness", wpath, "--steps", 11, "--seed", 3,
               "--out", with_seed) == 0
    assert run("detect", "--witness", wpath, "--steps", 11, "--out", without) == 0
    assert without.read_bytes() == with_seed.read_bytes()


def test_certificate_carries_bracket_and_convergence(tmp_path, qubit_geam_file):
    wpath = tmp_path / "w.json"
    assert run("witness", "--geam", qubit_geam_file, "--k", 1, "--l", 1,
               "--kk", 3, "--rotation-seed", 5, "--out", wpath,
               "--no-timestamp") == 0
    for k, method in ((1, "see-saw"), (2, "eigh")):
        cpath = tmp_path / f"cert{k}.json"
        run("certify", "--witness", wpath, "--k", k, "--seed", 1,
            "--mehta-samples", 10, "--out", cpath, "--no-timestamp")
        cert = json.loads(cpath.read_text())
        assert cert["format"] == "certification/2"
        bracket = cert["bracket"]
        assert bracket["lower_bound"] <= bracket["upper_bound"] == cert["min_value"]
        assert cert["convergence"]["method"] == method
        if k == 2:
            assert bracket["gap"] == 0.0
        else:
            assert 0 < cert["convergence"]["half_steps"] <= 2 * cert["iters"]


def test_certificate_key_set_and_mehta_thresholds(tmp_path):
    gpath, wpath, cpath = tmp_path / "g3.json", tmp_path / "w.json", tmp_path / "c.json"
    assert run("build-geam", "--d", 3, "--layout", "mub", "--b", 0.5,
               "--out", gpath, "--no-timestamp") == 0
    assert run("witness", "--geam", gpath, "--k", 2, "--l", 2, "--kk", 4,
               "--rotation-seed", 0, "--out", wpath, "--no-timestamp") == 0
    assert run("certify", "--witness", wpath, "--seed", 1, "--restarts", 5,
               "--iters", 50, "--mehta-samples", 20, "--out", cpath,
               "--no-timestamp") == 0
    cert = json.loads(cpath.read_text())
    assert set(cert) == {"format", "verdict", "min_value", "argmin", "k", "samples",
                         "restarts", "iters", "seed", "tolerance", "bracket",
                         "convergence", "witness_fingerprint", "mehta"}
    assert cert["format"] == "certification/2"
    assert set(cert["bracket"]) == {"lower_bound", "upper_bound", "gap"}
    assert set(cert["convergence"]) == {"method", "half_steps", "restarts_near_best",
                                        "last_improvement"}
    assert set(cert["mehta"]) == {"max_ratio", "samples", "skipped",
                                  "threshold_output_dimension",
                                  "threshold_extended_dimension"}
    d, k = 3, 2
    assert cert["k"] == k
    assert cert["mehta"]["threshold_output_dimension"] == 1 / (d - 1)
    assert cert["mehta"]["threshold_extended_dimension"] == 1 / (k * d - 1)


def test_io_error_exit_code(tmp_path):
    code = run("analyze", "--geam", tmp_path / "missing.json", "--seed", 0,
               "--out", tmp_path / "x.json")
    assert code == 4


def test_loaded_operators_are_validated(tmp_path, qubit_geam_file, capsys):
    # a shift of the diagonal keeps every within-frame distance, so only a
    # check of the operators against the parameters can catch it
    doc = json.loads(qubit_geam_file.read_text())
    for op in doc["operators"][:2]:
        for i in range(2):
            op[i][i][0] += 1e-3
    bad = tmp_path / "shifted.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="tight frame"):
        load_geam(bad)
    capsys.readouterr()
    for argv in (("witness", "--geam", bad, "--k", 1, "--l", 1, "--kk", 3,
                  "--rotation-seed", 0, "--out", tmp_path / "w.json"),
                 ("analyze", "--geam", bad, "--seed", 0,
                  "--out", tmp_path / "a.json")):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_non_hermitian_operators_are_rejected(tmp_path, capsys):
    # an anti-Hermitian shift added to one operator and taken from another
    # keeps every trace condition within 2e-10; only P = P^dag catches it
    path = tmp_path / "g3.json"
    save_geam(qutrit_mub(), path)
    doc = json.loads(path.read_text())
    eps, skew = 1e-5, {(0, 1): 1.0, (1, 0): -1.0}
    for (i, j), sign in skew.items():
        doc["operators"][0][i][j][0] += sign * eps
        doc["operators"][1][i][j][0] -= sign * eps
    bad = tmp_path / "skew.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"fails validation: P = P\^dag$"):
        load_geam(bad)
    for argv in (("witness", "--geam", bad, "--k", 1, "--l", 1, "--kk", 4,
                  "--rotation-seed", 0, "--out", tmp_path / "w.json"),
                 ("analyze", "--geam", bad, "--seed", 0,
                  "--out", tmp_path / "a.json")):
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "P = P^dag" in err


def _truncate(text):
    return text[:len(text) // 2]


def _edit(change):
    def apply(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return apply


MALFORMED_FILES = {
    "geam without b": ("geam", _edit(lambda doc: doc.pop("b"))),
    "geam operators d x 1": ("geam", _edit(lambda doc: doc.update(
        operators=[[row[:1] for row in op] for op in doc["operators"]]))),
    "truncated geam": ("geam", _truncate),
    "geam m with a float": ("geam", _edit(lambda doc: doc["m"].__setitem__(2, 2.5))),
    "geam m as strings": ("geam", _edit(lambda doc: doc.update(m=["2", "2", "2"]))),
    "geam tau_sign with a float": ("geam", _edit(
        lambda doc: doc["tau_sign"].__setitem__(2, 1.7))),
    "geam tau_sign with a bool": ("geam", _edit(
        lambda doc: doc["tau_sign"].__setitem__(0, True))),
    "geam b as bools": ("geam", _edit(lambda doc: doc.update(b=[True] * 3))),
    "geam gamma as strings": ("geam", _edit(
        lambda doc: doc.update(gamma=[str(g) for g in doc["gamma"]]))),
    "witness without matrix": ("witness", _edit(lambda doc: doc.pop("matrix"))),
    "witness 1 x 3": ("witness", _edit(lambda doc: doc.update(
        matrix=[doc["matrix"][0][:3]]))),
    "witness with a NaN entry": ("witness", _edit(
        lambda doc: doc["matrix"][0][0].__setitem__(0, float("nan")))),
    "witness not Hermitian": ("witness", _edit(
        lambda doc: doc["matrix"][0][1].__setitem__(1, doc["matrix"][0][1][1] + 1e-6))),
    "witness meta k not an int": ("witness", _edit(lambda doc: doc["meta"].update(k="one"))),
    "witness meta l null": ("witness", _edit(lambda doc: doc["meta"].update(l=None))),
    "witness meta k a bool": ("witness", _edit(lambda doc: doc["meta"].update(k=True))),
    "witness meta k 0": ("witness", _edit(lambda doc: doc["meta"].update(k=0))),
    "witness meta k above d": ("witness", _edit(lambda doc: doc["meta"].update(k=5))),
    "witness meta L above K": ("witness", _edit(lambda doc: doc["meta"].update(l=3, kk=2))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(case, tmp_path, qubit_geam_file, qubit_witness_file,
                                capsys):
    kind, corrupt = MALFORMED_FILES[case]
    good = qubit_geam_file if kind == "geam" else qubit_witness_file
    bad = tmp_path / "bad.json"
    bad.write_text(corrupt(good.read_text()))
    if kind == "geam":
        runs = [("witness", "--geam", bad, "--k", 1, "--l", 1, "--kk", 3,
                 "--rotation-seed", 0, "--out", tmp_path / "w.json")]
    else:
        runs = [("detect", "--witness", bad, "--out", tmp_path / "d.csv"),
                ("certify", "--witness", bad, "--seed", 0, "--out", tmp_path / "c.json")]
    for argv in runs:
        capsys.readouterr()
        assert run(*argv) == 2, argv[0]
        assert_one_error_line(capsys.readouterr().err)
        assert not argv[-1].exists(), argv[0]


MALFORMED_FLAGS = {
    "tau not a sign": ("build-geam", "--d", 2, "--layout", "mub", "--b", 1, "--tau", "x"),
    "gamma NaN": ("build-geam", "--d", 2, "--layout", "mub", "--b", 1, "--gamma", "nan"),
    "negative dimension": ("build-geam", "--d", -1, "--layout", "mub", "--b", 1),
    "negative unitary seed": ("build-geam", "--d", 2, "--layout", "mub", "--b", 1,
                              "--unitary-seed", -1),
    "negative analyze seed": ("analyze", "--geam", "GEAM", "--seed", -1),
    "zero samples": ("analyze", "--geam", "GEAM", "--seed", 7, "--samples", 0),
    "negative rotation seed": ("witness", "--geam", "GEAM", "--k", 1, "--l", 1,
                               "--kk", 3, "--rotation-seed", -1),
    "negative certify seed": ("certify", "--witness", "WITNESS", "--seed", -1),
    "zero restarts": ("certify", "--witness", "WITNESS", "--seed", 1, "--restarts", 0),
    "zero iters": ("certify", "--witness", "WITNESS", "--seed", 1, "--iters", 0),
    "zero mehta samples": ("certify", "--witness", "WITNESS", "--seed", 1,
                           "--mehta-samples", 0),
    "zero steps": ("detect", "--witness", "WITNESS", "--steps", 0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FLAGS))
def test_malformed_flag_exits_2(case, tmp_path, qubit_geam_file, qubit_witness_file,
                                capsys):
    files = {"GEAM": qubit_geam_file, "WITNESS": qubit_witness_file}
    argv = [files.get(a, a) for a in MALFORMED_FLAGS[case]]
    capsys.readouterr()
    assert exit_code(*argv, "--out", tmp_path / "out.json") == 2
    err = capsys.readouterr().err
    assert "error: " in err.splitlines()[-1] and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, geamkit.cli; "
            "print([n for n in sys.modules if n.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture()
def equidistance_calls(monkeypatch):
    """Count equidistance calls through every geamkit module that imports it."""
    calls = []
    original = geamkit.geam.equidistance

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "geamkit" and \
                getattr(module, "equidistance", None) is original:
            monkeypatch.setattr(module, "equidistance", counted)
    return calls


def test_equidistance_measured_once(tmp_path, qubit_geam_file, equidistance_calls):
    assert run("analyze", "--geam", qubit_geam_file, "--seed", 7,
               "--out", tmp_path / "a.json", "--no-timestamp") == 0
    assert len(equidistance_calls) == 1
    geam = qubit_mub()
    build_witness(geam, rotation_set(geam, 0), 1, 1, 3)
    assert len(equidistance_calls) == 1


def test_byte_identical_reruns(tmp_path):
    """Same configuration and seeds, fresh output paths: identical bytes."""
    files = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        g = base / "g.json"
        w = base / "w.json"
        c = base / "cert.json"
        det = base / "det.csv"
        a = base / "an.json"
        assert run("build-geam", "--d", 2, "--layout", "mub", "--b", 1,
                   "--out", g, "--no-timestamp") == 0
        assert run("analyze", "--geam", g, "--seed", 11, "--samples", 25,
                   "--out", a, "--no-timestamp") == 0
        assert run("witness", "--geam", g, "--k", 1, "--l", 1, "--kk", 3,
                   "--rotation-seed", 5, "--out", w, "--no-timestamp") == 0
        assert run("certify", "--witness", w, "--seed", 2, "--restarts", 10,
                   "--iters", 100, "--mehta-samples", 20, "--out", c,
                   "--no-timestamp") == 0
        assert run("detect", "--witness", w, "--steps", 21, "--seed", 0,
                   "--out", det) == 0
        files[tag] = [p.read_bytes() for p in (g, a, w, c, det)]
    assert files["one"] == files["two"]
