import numpy as np
import pytest

import geamkit.detect
from geamkit import (IsotropicState, ValidationError, build_witness,
                     detection_threshold, max_entangled_projector,
                     min_schmidt_k, random_schmidt_mixture, rotation_set,
                     sweep_isotropic, witness_expectation)
from geamkit.certify import VERDICT_CERTIFIED
from geamkit.detect import DETECTION_TOL
from geamkit.maps import Witness

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


@pytest.fixture()
def expectation_calls(monkeypatch):
    """Count witness_expectation calls made inside geamkit.detect."""
    calls = []
    original = geamkit.detect.witness_expectation

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(geamkit.detect, "witness_expectation", counted)
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
