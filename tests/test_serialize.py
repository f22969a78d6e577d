import json

import numpy as np
import pytest

from geamkit import (GeamParams, ValidationError, build_geam, build_witness,
                     gell_mann_hermitian_basis, load_geam, load_witness, rotation_set,
                     save_geam, save_witness)
from geamkit.detect import DetectionRecord
from geamkit.serialize import (canonical_dumps, complex_to_pairs, fingerprint,
                               geam_document, pairs_to_complex, read_json,
                               write_detection_csv, write_json)


def test_complex_pair_round_trip():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # through actual JSON text, not just the helper pair
    text = json.dumps(complex_to_pairs(a))
    back = pairs_to_complex(json.loads(text))
    assert np.array_equal(a, back)


def test_geam_fingerprint_stable_and_sensitive(qubit_geam, qutrit_geam):
    doc = geam_document(qubit_geam)
    assert fingerprint(doc) == fingerprint(geam_document(qubit_geam))
    assert fingerprint(doc) != fingerprint(geam_document(qutrit_geam))
    # timestamps do not contribute
    stamped = dict(doc, created="2020-01-01T00:00:00+00:00")
    assert fingerprint(stamped) == fingerprint(doc)


def test_witness_document_round_trip(tmp_path, qubit_geam):
    w = build_witness(qubit_geam, rotation_set(qubit_geam, 3), 2, 1, 3,
                      geam_fingerprint="deadbeef", rotation_seed=3)
    path = tmp_path / "w.json"
    save_witness(w, path)
    loaded = load_witness(path)
    assert np.array_equal(loaded.w, w.w)
    assert loaded.meta == w.meta


def test_numpy_integers_save_like_python_ints(tmp_path):
    saved = []
    for ints in (int, np.int64):
        params = GeamParams(d=ints(2), m=(ints(2),) * 3, gamma=(1 / 3,) * 3,
                            b=(1.0,) * 3, tau_sign=(ints(1),) * 3)
        geam = build_geam(gell_mann_hermitian_basis(2, params.m), params)
        w = build_witness(geam, rotation_set(geam, 0), ints(1), ints(1), ints(3),
                          rotation_seed=ints(0))
        save_geam(geam, tmp_path / "g.json", timestamp=False)
        save_witness(w, tmp_path / "w.json", timestamp=False)
        saved.append([(tmp_path / name).read_bytes() for name in ("g.json", "w.json")])
    assert saved[0] == saved[1]


def test_unencodable_document_leaves_no_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(TypeError):
        write_json({"format": "nonsense/9", "value": object()}, path)
    assert not path.exists()
    for value in (float("nan"), float("inf"), -np.inf, [1.0, np.nan]):
        with pytest.raises(ValidationError, match="not JSON compliant"):
            write_json({"format": "nonsense/9", "value": value}, path)
        assert not path.exists()


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    write_json({"format": "nonsense/9"}, path)
    with pytest.raises(ValidationError):
        load_geam(path)
    with pytest.raises(ValidationError):
        load_witness(path)


def test_witness_file_is_deterministic(tmp_path, qubit_geam):
    w = build_witness(qubit_geam, rotation_set(qubit_geam, 3), 1, 1, 3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_witness(w, p1, timestamp=False)
    save_witness(w, p2, timestamp=False)
    assert p1.read_bytes() == p2.read_bytes()


def test_timestamp_toggle(tmp_path, qubit_geam):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_geam(qubit_geam, p1, timestamp=True)
    save_geam(qubit_geam, p2, timestamp=False)
    assert "created" in read_json(p1)
    assert "created" not in read_json(p2)
    # the fingerprint ignores the stamp either way
    assert fingerprint(read_json(p1)) == fingerprint(read_json(p2))


def test_canonical_dumps_sorted():
    s = canonical_dumps({"b": 1, "a": [1.5, {"z": 2, "y": 3}]})
    assert s == '{"a":[1.5,{"y":3,"z":2}],"b":1}'


def test_detection_csv_layout(tmp_path):
    rows = [
        DetectionRecord("isotropic", 0.0, 1, 1, 3, 0.05555, False),
        DetectionRecord("isotropic", 1.0, 1, 1, 3, -0.11111, True),
    ]
    path = tmp_path / "det.csv"
    write_detection_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "family,parameter,k,L,K,expectation,detected"
    assert lines[1] == "isotropic,0.0,1,1,3,0.05555,0"
    assert lines[2] == "isotropic,1.0,1,1,3,-0.11111,1"
