from dataclasses import dataclass

import numpy as np
import pytest

import geamkit.detect
from geamkit import (IsotropicState, ValidationError, build_witness,
                     detection_threshold, max_entangled_projector,
                     min_schmidt_k, random_rank_k_coefficients, random_schmidt_mixture,
                     rotation_set,
                     sweep_isotropic, witness_expectation)
from geamkit.certify import VERDICT_CERTIFIED
from geamkit.detect import DETECTION_TOL, DetectionRecord
from geamkit.maps import Witness
from geamkit.serialize import write_detection_csv

I2 = np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def tight_qubit_witness(qubit_geam):
    # rotations chosen so the negative eigenvector aligns with the
    # maximally entangled state; certified 1-positive
    w = build_witness(qubit_geam, [I2, SWAP, SWAP], 1, 1, 3)
    assert min_schmidt_k(w, 1, seed=0).verdict == VERDICT_CERTIFIED
    return w


def test_isotropic_state_properties():
    for d in (2, 3):
        for p in (0.0, 0.3, 1.0):
            rho = IsotropicState(d, p).matrix()
            assert abs(np.trace(rho).real - 1) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] > -1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-15


def test_expectation_on_maximally_mixed(qubit_geam):
    w = build_witness(qubit_geam, rotation_set(qubit_geam, 1), 2, 1, 3)
    rho = np.eye(4) / 4
    assert abs(witness_expectation(w, rho) - np.trace(w.w).real / 4) < 1e-12


def test_expectation_rejects_non_density(tight_qubit_witness):
    w = tight_qubit_witness
    with pytest.raises(ValidationError):
        witness_expectation(w, np.eye(4))  # trace 4
    with pytest.raises(ValidationError):
        witness_expectation(w, np.diag([1.5, -0.5, 0, 0]).astype(complex))
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.2  # not Hermitian
    with pytest.raises(ValidationError):
        witness_expectation(w, bad)


def test_expectation_rejects_mismatched_state_size(tight_qubit_witness):
    with pytest.raises(ValidationError, match="state shape"):
        witness_expectation(tight_qubit_witness, np.eye(9) / 9)


def test_expectation_accepts_nested_list_state(qubit_geam):
    # json.load gives a state as nested lists
    w = build_witness(qubit_geam, rotation_set(qubit_geam, 5), 1, 1, 3)
    rho = np.eye(4) / 4
    assert witness_expectation(w, rho.tolist()) == witness_expectation(w, rho)


def test_max_entangled_projector_rejects_rank_out_of_range():
    # the rank-k samplers apply the same rule to k, and need a count >= 1
    for draw in (max_entangled_projector, lambda d, k: random_rank_k_coefficients(d, k, 0, 1),
                 lambda d, k: random_schmidt_mixture(d, k, 0)):
        for d, k in ((2, 3), (2, 0), (3, -1)):
            with pytest.raises(ValidationError, match="need 1 <= k <= d"):
                draw(d, k)
        for k in (1.5, True, 1.0):
            with pytest.raises(ValidationError, match="must be an integer"):
                draw(2, k)
    for n in (0, -2, 2.5):
        with pytest.raises(ValidationError):
            random_rank_k_coefficients(2, 1, 0, n)


def test_isotropic_end_states_are_cached_and_read_only():
    for d in (2, 3, 4):
        ends = geamkit.detect._isotropic_end_states(d)
        assert ends is geamkit.detect._isotropic_end_states(d)
        assert ends.shape == (2, d * d, d * d) and not ends.flags.writeable
        for p, rho in zip((0.0, 1.0), ends):
            assert np.array_equal(rho, IsotropicState(d, p).matrix())
            with pytest.raises(ValueError):
                rho[0, 0] = 0.5


def test_stacked_ends_equal_per_state_expectations(all_fixture_geams):
    """Both ends from one stacked product equal Tr(W rho) of each end state, bit for bit."""
    for name, geam in all_fixture_geams.items():
        d, n = geam.d, geam.n_groups
        states = [IsotropicState(d, p).matrix() for p in (0.0, 1.0)]
        for seed in range(3):
            rots = rotation_set(geam, seed)
            for k, kk in ((k, kk) for k in range(1, d + 1) for kk in range(1, n + 1)):
                for l in range(1, kk + 1):
                    w = build_witness(geam, rots, k, l, kk)
                    ends = geamkit.detect._isotropic_ends(w)
                    reference = [float(np.trace(w.w @ rho).real) for rho in states]
                    assert ends == reference, (name, seed, k, l, kk)
                    assert ends == [witness_expectation(w, rho) for rho in states]
                    assert all(type(f) is float for f in ends)
    # f(1) of this qubit witness is rounding noise below 0, so its threshold reads 1.0
    # (the known fault of the isotropic threshold); the stacked ends keep it
    qubit = all_fixture_geams["qubit_mub"]
    w = build_witness(qubit, rotation_set(qubit, 0), 1, 1, 3)
    assert 0 > geamkit.detect._isotropic_ends(w)[1] > -1e-15
    assert detection_threshold(w) == 1.0


def test_isotropic_state_validated():
    for d, p in ((2, 1.5), (2, -0.1), (3, float("nan")), (2, 1 + 1e-12)):
        with pytest.raises(ValidationError, match="need 0 <= p <= 1"):
            IsotropicState(d, p)
    for d, p in ((2, True), (2, "0.5"), (2, None)):
        with pytest.raises(ValidationError, match="p must be a real number"):
            IsotropicState(d, p)
    for d in (2.5, True, 0, -2):
        with pytest.raises(ValidationError):
            IsotropicState(d, 0.5)
    state = IsotropicState(np.int64(2), np.float32(0.25))
    assert type(state.d) is int and type(state.p) is float
    assert np.array_equal(state.matrix(), IsotropicState(2, 0.25).matrix())


def test_isotropic_end_states_are_checked_once_per_d(qubit_geam, monkeypatch):
    checked = []
    original = geamkit.detect._check_density

    def counted(rho):
        checked.append(rho.shape)
        return original(rho)

    monkeypatch.setattr(geamkit.detect, "_check_density", counted)
    geamkit.detect._isotropic_end_states.cache_clear()
    w = build_witness(qubit_geam, rotation_set(qubit_geam, 1), 1, 1, 3)
    for _ in range(3):
        detection_threshold(w)
        sweep_isotropic(w, steps=11)
    assert checked == [(4, 4), (4, 4)]
    # a state passed in by the caller is still checked on every call
    witness_expectation(w, np.eye(4) / 4)
    witness_expectation(w, np.eye(4) / 4)
    assert len(checked) == 4


def test_expectation_affine_in_mixing_parameter(tight_qubit_witness):
    f = lambda p: witness_expectation(tight_qubit_witness,
                                      IsotropicState(2, p).matrix())
    assert abs(f(0.3) - (0.7 * f(0.0) + 0.3 * f(1.0))) < 1e-12


def test_product_states_never_detected(tight_qubit_witness):
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    assert witness_expectation(tight_qubit_witness, rho) >= -1e-9


def test_threshold_identity_witness_none():
    w = Witness(w=np.eye(4, dtype=complex), meta={})
    assert detection_threshold(w) is None


def test_threshold_qubit_tight_witness(tight_qubit_witness):
    """The aligned witness detects isotropic states exactly above p = 1/3,
    the known entanglement boundary of the d = 2 isotropic family."""
    p_star = detection_threshold(tight_qubit_witness)
    assert p_star is not None
    assert abs(p_star - 1 / 3) < 1e-12
    # grid-scan oracle on 1001 points agrees with the exact root
    grid = np.linspace(0, 1, 1001)
    vals = np.array([witness_expectation(tight_qubit_witness, IsotropicState(2, p).matrix())
                     for p in grid])
    crossings = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(crossings) == 1
    lo, hi = grid[crossings[0]], grid[crossings[0] + 1]
    assert lo <= p_star <= hi


def test_threshold_matches_negative_overlap(tight_qubit_witness):
    # expectation at p=1 is the overlap with the maximally entangled
    # projector: here exactly -1/9
    val = witness_expectation(tight_qubit_witness, max_entangled_projector(2, 2))
    assert abs(val + 1 / 9) < 1e-12


def test_schmidt_mixture_has_bounded_rank():
    rng = np.random.default_rng(0)
    for d, k in [(2, 1), (3, 2)]:
        rho = random_schmidt_mixture(d, k, rng)
        assert abs(np.trace(rho).real - 1) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_soundness_on_certified_witness(tight_qubit_witness):
    rng = np.random.default_rng(42)
    vals = [witness_expectation(tight_qubit_witness,
                                random_schmidt_mixture(2, 1, rng))
            for _ in range(500)]
    assert min(vals) >= -1e-7


def test_sweep_records(tight_qubit_witness):
    records = sweep_isotropic(tight_qubit_witness, steps=21)
    assert len(records) == 21
    assert records[0].parameter == 0.0 and records[-1].parameter == 1.0
    assert all(r.k == 1 and r.l == 1 and r.kk == 3 for r in records)
    assert not records[0].detected
    assert records[-1].detected
    # detection flags flip exactly past the threshold
    p_star = detection_threshold(tight_qubit_witness)
    for r in records:
        assert r.detected == (r.parameter > p_star)
    for steps in (0, True, 2.5, -3):
        with pytest.raises(ValidationError, match="steps"):
            sweep_isotropic(tight_qubit_witness, steps=steps)


def test_sweep_accepts_a_bare_matrix(tight_qubit_witness):
    w = tight_qubit_witness.w
    assert sweep_isotropic(w, steps=11) == sweep_isotropic(Witness(w=w), steps=11)


@pytest.fixture()
def expectation_calls(monkeypatch):
    """Count Tr(W rho) evaluations made inside geamkit.detect, one entry per state."""
    calls = []
    original = geamkit.detect._expectations

    def counted(w, rhos):
        calls.extend([1] * len(rhos))
        return original(w, rhos)

    monkeypatch.setattr(geamkit.detect, "_expectations", counted)
    return calls


def test_sweep_reads_the_line_through_its_ends(qubit_geam, qutrit_geam, expectation_calls):
    """Reference: one expectation per isotropic state on the grid. The sweep
    must match it while computing only the two end expectations."""
    for geam in (qubit_geam, qutrit_geam):
        d, n = geam.d, geam.n_groups
        for seed in (0, 1):
            rots = rotation_set(geam, seed)
            for k, kk in ((k, kk) for k in range(1, d + 1) for kk in range(1, n + 1)):
                for l in range(1, kk + 1):
                    w = build_witness(geam, rots, k, l, kk)
                    expectation_calls.clear()
                    records = sweep_isotropic(w, steps=101)
                    assert len(expectation_calls) == 2
                    for r in records:
                        ref = witness_expectation(w, IsotropicState(d, r.parameter).matrix())
                        assert abs(r.expectation - ref) <= 1e-15, (d, seed, k, l, kk, r)
                        assert r.detected == (ref < -DETECTION_TOL)


@dataclass(frozen=True)
class _ReferenceRecord:
    family: str
    parameter: float
    k: int
    l: int
    kk: int
    expectation: float
    detected: bool


def _sweep_reference(witness, steps):
    """One frozen record per grid point, each value from its own scalar arithmetic."""
    f0, f1 = (witness_expectation(witness, IsotropicState(witness.d, p).matrix())
              for p in (0.0, 1.0))
    records = []
    for p in np.linspace(0.0, 1.0, steps):
        val = float((1.0 - p) * f0 + p * f1)
        records.append(_ReferenceRecord(
            family="isotropic", parameter=float(p), k=witness.meta.get("k", 0),
            l=witness.meta.get("l", 0), kk=witness.meta.get("kk", 0),
            expectation=val, detected=bool(val < -DETECTION_TOL)))
    return records


def test_sweep_matches_per_point_reference(qubit_geam, qutrit_geam, tmp_path):
    for geam in (qubit_geam, qutrit_geam):
        d, n = geam.d, geam.n_groups
        for seed in (0, 1):
            rots = rotation_set(geam, seed)
            for k, kk in ((k, kk) for k in range(1, d + 1) for kk in range(1, n + 1)):
                for l in range(1, kk + 1):
                    w = build_witness(geam, rots, k, l, kk)
                    for steps in (1, 2, 101):
                        records = sweep_isotropic(w, steps=steps)
                        reference = _sweep_reference(w, steps)
                        assert len(records) == len(reference)
                        for r, ref in zip(records, reference):
                            for name in r._fields:
                                assert getattr(r, name) == getattr(ref, name), (name, r)
                            assert type(r) is DetectionRecord
                            assert type(r.detected) is bool
                            assert type(r.parameter) is float
                            assert type(r.expectation) is float
                            assert type(r.k) is type(r.l) is type(r.kk) is int
                    write_detection_csv(records, tmp_path / "change.csv")
                    write_detection_csv(reference, tmp_path / "reference.csv")
                    assert ((tmp_path / "change.csv").read_bytes()
                            == (tmp_path / "reference.csv").read_bytes())
