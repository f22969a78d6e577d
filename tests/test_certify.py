import itertools

import numpy as np
import pytest

from geamkit import (GeamParams, Superoperator, ValidationError, brute_force_oracle,
                     build_geam, build_witness, flip_operator, gell_mann_hermitian_basis,
                     haar_unitary, mehta_ratio, min_schmidt_k, mub_layout, phi_k, phi_zero,
                     random_rank_k_coefficients, rotation_set, superop_from_choi)
from geamkit.certify import VERDICT_CERTIFIED, VERDICT_VIOLATED, SchmidtStateSample

I2 = np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_schmidt_sample_properties():
    c = np.zeros((3, 3), dtype=complex)
    c[0, 1] = 1 / np.sqrt(2)
    c[1, 0] = -1 / np.sqrt(2)
    s = SchmidtStateSample(c=c)
    assert abs(np.linalg.norm(s.vector) - 1) < 1e-12
    assert s.schmidt_rank() == 2


def test_identity_witness_is_flat():
    rep = min_schmidt_k(np.eye(4, dtype=complex), 1, restarts=5, iters=50, seed=0)
    assert rep.verdict == VERDICT_CERTIFIED
    assert abs(rep.min_value - 1.0) < 1e-12
    rep = min_schmidt_k(np.eye(4, dtype=complex), 2, restarts=5, iters=50, seed=0)
    assert abs(rep.min_value - 1.0) < 1e-12


def test_inputs_validated():
    with pytest.raises(ValidationError):
        min_schmidt_k(np.ones((3, 3), dtype=complex), 1)  # not a square dim
    with pytest.raises(ValidationError):
        min_schmidt_k(np.eye(4) + 1j * np.eye(4), 1)  # not Hermitian
    with pytest.raises(ValidationError):
        min_schmidt_k(np.eye(4, dtype=complex), 3)  # k > d
    # a degenerate budget would report a verdict from an unminimized start,
    # and a non-integer k would fail deep inside the start draws
    for kwargs in ({"iters": 0}, {"restarts": 0}, {"restarts": 2.0}, {"iters": True}):
        with pytest.raises(ValidationError):
            min_schmidt_k(np.eye(4, dtype=complex), 1, **kwargs)
    for k in (1.0, 1.5, True, "1"):
        with pytest.raises(ValidationError):
            min_schmidt_k(np.eye(4, dtype=complex), k)
    # no sample would read as an upper bound of +inf
    for samples in (0, -3, 2.5, True):
        with pytest.raises(ValidationError):
            brute_force_oracle(np.eye(4, dtype=complex), 1, samples=samples)


def test_flip_operator_block_positive_but_not_2_positive():
    f = flip_operator(2)
    r1 = min_schmidt_k(f, 1, seed=0)
    assert r1.verdict == VERDICT_CERTIFIED
    assert r1.min_value > -1e-8
    r2 = min_schmidt_k(f, 2, seed=0)
    assert r2.verdict == VERDICT_VIOLATED
    assert abs(r2.min_value + 1.0) < 1e-10  # the antisymmetric state reaches -1
    assert r2.argmin.schmidt_rank() == 2
    # oracle confirmation on both sides
    assert brute_force_oracle(f, 1, samples=20_000, seed=1) > -1e-6
    assert brute_force_oracle(f, 2, samples=20_000, seed=1) < -0.5


def test_flip_operator_d3():
    f = flip_operator(3)
    assert min_schmidt_k(f, 1, restarts=20, iters=200, seed=0).min_value > -1e-8
    assert min_schmidt_k(f, 2, restarts=20, iters=200, seed=0).min_value < -0.99


def test_k_equals_d_matches_eigensolver(qubit_geam, qutrit_geam):
    rng = np.random.default_rng(0)
    witnesses = []
    for geam in (qubit_geam, qutrit_geam):
        rots = rotation_set(geam, 3)
        for kk in (1, geam.n_groups):
            witnesses.append(build_witness(geam, rots, geam.d, 1, kk).w)
    witnesses.append(flip_operator(2))
    for w in witnesses:
        d = int(round(np.sqrt(w.shape[0])))
        rep = min_schmidt_k(w, d, seed=2)
        eig_min = np.linalg.eigvalsh(w)[0]
        assert abs(rep.min_value - eig_min) < 1e-7


def test_all_subtracted_combination_is_block_positive(qubit_geam, qutrit_geam):
    # L = K = N: every frame subtracted, compensated only by the weighted
    # depolarizing part; still positive on product states
    for geam in (qubit_geam, qutrit_geam):
        n = geam.n_groups
        for seed in (0, 1):
            w = build_witness(geam, rotation_set(geam, seed), 1, n, n)
            rep = min_schmidt_k(w, 1, seed=seed)
            assert rep.verdict == VERDICT_CERTIFIED, (geam.d, seed, rep.min_value)
            assert brute_force_oracle(w, 1, samples=20_000, seed=seed) > -1e-7


def test_monotonicity_in_rank(qubit_geam):
    w = build_witness(qubit_geam, [I2, I2, I2], 2, 1, 3).w
    v1 = min_schmidt_k(w, 1, seed=4).min_value
    v2 = min_schmidt_k(w, 2, seed=4).min_value
    assert v2 <= v1 + 1e-9


def test_oracle_never_beats_seesaw(qubit_geam):
    for rots in ([I2, I2, I2], [SWAP, I2, I2]):
        w = build_witness(qubit_geam, rots, 2, 1, 3).w
        for k in (1, 2):
            see = min_schmidt_k(w, k, seed=0).min_value
            oracle = brute_force_oracle(w, k, samples=50_000, seed=0)
            assert oracle >= see - 1e-6


def test_violated_verdict_reproduces_quadratic_form(qubit_geam):
    # the k = 1 weight is d S = 2/9 below the k = 2 one, which lowers the
    # tight (minimum 0) identity-pattern corner by S = 1/9: at rank 2 the
    # k = 1 witness reaches its lowest eigenvalue -1/9
    w = build_witness(qubit_geam, [I2, I2, I2], 1, 1, 3)
    rep = min_schmidt_k(w, 2, seed=0)
    assert rep.verdict == VERDICT_VIOLATED
    assert abs(rep.min_value - (-1 / 9)) < 1e-9
    assert abs(rep.min_value - np.linalg.eigvalsh(w.w)[0]) < 1e-9
    v = rep.argmin.vector
    again = float((v.conj() @ w.w @ v).real)
    assert abs(again - rep.min_value) < 1e-10
    assert rep.argmin.schmidt_rank() <= 2


def test_local_unitary_invariance(qubit_geam):
    rng = np.random.default_rng(6)
    w = build_witness(qubit_geam, [I2, I2, I2], 2, 1, 3).w
    base = min_schmidt_k(w, 2, seed=1).min_value
    for _ in range(3):
        u, v = haar_unitary(2, rng), haar_unitary(2, rng)
        g = np.kron(u.conj(), v)
        rotated = g @ w @ g.conj().T
        assert abs(min_schmidt_k(rotated, 2, seed=1).min_value - base) < 1e-7


def test_restart_streams_are_reproducible(qubit_geam):
    w = build_witness(qubit_geam, rotation_set(qubit_geam, 1), 1, 1, 3)
    a = min_schmidt_k(w, 1, restarts=7, iters=60, seed=9)
    b = min_schmidt_k(w, 1, restarts=7, iters=60, seed=9)
    assert a.min_value == b.min_value
    assert np.array_equal(a.argmin.c, b.argmin.c)
    assert a.samples == 7 * 60


# ------------------------------------------------------------- purity ratios

def test_mehta_ratio_depolarizing():
    # extending the depolarizing map gives output (reduced state) (x) I/d,
    # whose purity ratio is the constant 1/(kd): 1/d^2 at the k = d corner
    for d in (2, 3):
        for k in range(1, d + 1):
            rep = mehta_ratio(phi_zero(d), k, samples=40, seed=0)
            assert abs(rep.max_ratio - 1 / (k * d)) < 1e-12
            assert rep.skipped == 0


def test_mehta_ratio_saturates_at_full_range(qubit_geam, qutrit_geam):
    """At K = N the ratio is the same number for every sampled projector,
    equal to 1/(kd) + S^2 (kd-1)/(kd T^2); with T = (kd-1) S that value is
    exactly the rank-k threshold 1/(kd-1) for every k."""
    from geamkit import a_coefficient

    for geam in (qubit_geam, qutrit_geam):
        d, n = geam.d, geam.n_groups
        s = geam.derived.s
        rots = rotation_set(geam, 5)
        for k in range(1, d + 1):
            phi = phi_k(geam, rots, k, 1, n)
            t = (a_coefficient(geam, k, 1, n)
                 + d * (geam.derived.mu(n) - 2 * geam.derived.mu(1)))
            predicted = 1 / (k * d) + s ** 2 * (k * d - 1) / (k * d * t ** 2)
            rep = mehta_ratio(phi, k, samples=200, seed=3)
            assert abs(rep.max_ratio - predicted) < 1e-10, (d, k)
            assert abs(rep.max_ratio - 1 / (k * d - 1)) < 1e-10, (d, k)
            assert rep.max_ratio <= 1 / (d - 1) + 1e-9


def test_mehta_ratio_bounded_by_output_dimension_threshold(qubit_geam, qutrit_geam):
    # for truncated ranges K < N the ratio stays below the saturation value
    for geam in (qubit_geam, qutrit_geam):
        d, n = geam.d, geam.n_groups
        rots = rotation_set(geam, 8)
        for k in range(1, d + 1):
            for kk in range(1, n):
                phi = phi_k(geam, rots, k, 1, kk)
                rep = mehta_ratio(phi, k, samples=200, seed=1)
                assert rep.max_ratio <= 1 / (d - 1) + 1e-9


def test_mehta_ratio_skips_zero_trace_maps(qubit_geam):
    rots = [I2, I2, I2]
    phi = phi_k(qubit_geam, rots, 1, 1, 3)
    zero = Superoperator(phi.matrix - phi.matrix, phi.d)
    rep = mehta_ratio(zero, 1, samples=10, seed=0)
    assert rep.max_ratio is None
    assert rep.skipped == 10


def _mehta_reference(phi, k, samples, seed):
    """The per-sample loop mehta_ratio replaced: (max_ratio, skipped)."""
    d = phi.d
    rng = np.random.default_rng(seed)
    max_ratio = None
    skipped = 0
    for _ in range(samples):
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        psi = np.zeros(d * d, dtype=complex)
        for m in range(k):
            psi += np.kron(u[:, m], v[:, m])
        psi /= np.sqrt(k)
        out = phi.apply_extended(np.outer(psi, psi.conj()))
        tr = np.trace(out).real
        if abs(tr) < 1e-12 * (1.0 + np.linalg.norm(out)):
            skipped += 1
            continue
        ratio = float(np.trace(out @ out).real / tr ** 2)
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
    return max_ratio, skipped


@pytest.mark.parametrize("fixture", ["qubit_geam", "qutrit_geam"])
def test_mehta_ratio_matches_per_sample_reference(fixture, request):
    # 120 samples cross the stack boundaries; 1 sample is a partial stack
    geam = request.getfixturevalue(fixture)
    d, n = geam.d, geam.n_groups
    ranges = [(l, kk) for l in range(1, n + 1) for kk in range(l, n + 1)]
    for rotation_seed, k, (l, kk) in itertools.product((0, 1), range(1, d + 1), ranges):
        phi = phi_k(geam, rotation_set(geam, rotation_seed), k, l, kk)
        for seed, samples in itertools.product((0, 3), (1, 120)):
            rep = mehta_ratio(phi, k, samples=samples, seed=seed)
            ref, skipped = _mehta_reference(phi, k, samples, seed)
            case = (rotation_seed, k, l, kk, seed, samples)
            assert rep.skipped == skipped, case
            assert abs(rep.max_ratio - ref) <= 1e-14 * abs(ref), case


def test_mehta_rejects_bad_rank(qubit_geam):
    phi = phi_k(qubit_geam, [I2, I2, I2], 1, 1, 3)
    for kwargs in ({"k": 3}, {"k": 0}, {"k": 1.5}, {"k": True}, {"k": 1, "samples": 0},
                   {"k": 1, "samples": -3}, {"k": 1, "samples": 2.5}):
        with pytest.raises(ValidationError):
            mehta_ratio(phi, **kwargs)


def test_superop_from_choi_round_trip_in_certification(qubit_geam):
    # the certify CLI reconstructs the map from the stored witness
    rots = rotation_set(qubit_geam, 2)
    phi = phi_k(qubit_geam, rots, 1, 1, 3)
    from geamkit import choi_witness

    w = choi_witness(phi)
    back = superop_from_choi(w.w, 2)
    assert np.abs(back.matrix - phi.matrix).max() < 1e-12


# ------------------------------------------------------------------ see-saw

def _draw_rotation(m, rng):
    """Haar orthogonal matrix on the complement of (1,..,1), identity on it."""
    ones = np.ones((m, 1)) / np.sqrt(m)
    q, _ = np.linalg.qr(np.hstack([ones, rng.standard_normal((m, m - 1))]))
    comp = q[:, 1:]
    z, r = np.linalg.qr(rng.standard_normal((m - 1, m - 1)))
    z = z * np.sign(np.diag(r))
    return np.full((m, m), 1.0 / m) + comp @ z @ comp.T


def test_k_equals_d_close_eigenvalues_exact(qutrit_geam):
    # the two lowest eigenvalues lie 8.5e-5 apart; a fixed 50 x 500
    # power iteration stops 2.2e-7 above lambda_min on this witness
    rng = np.random.default_rng(8)
    rots = [_draw_rotation(3, rng) for _ in range(4)]
    w = build_witness(qutrit_geam, rots, 3, 1, 4).w
    rep = min_schmidt_k(w, 3, seed=0)
    lam = np.linalg.eigvalsh(w)[0]
    assert abs(rep.min_value - lam) < 1e-12
    assert rep.lower_bound == rep.upper_bound == rep.min_value
    assert rep.convergence.method == "eigh"


def _fixture_witnesses(geam):
    d, n = geam.d, geam.n_groups
    rots = rotation_set(geam, 1)
    for k in range(1, d):
        for l, kk in ((1, n), (1, 1), (2, n)):
            yield k, build_witness(geam, rots, k, l, kk).w


def test_seesaw_bracket_rank_and_oracle(qubit_geam, qutrit_geam):
    for geam in (qubit_geam, qutrit_geam):
        for k, w in _fixture_witnesses(geam):
            rep = min_schmidt_k(w, k, seed=0)
            assert rep.lower_bound <= rep.min_value == rep.upper_bound
            assert abs(rep.lower_bound - np.linalg.eigvalsh(w)[0]) < 1e-12
            assert np.linalg.svd(rep.argmin.c, compute_uv=False)[k] <= 1e-10
            assert rep.min_value <= brute_force_oracle(w, k, 20_000, seed=0) + 1e-9
            conv = rep.convergence
            assert conv.method == "see-saw"
            assert 0 < conv.half_steps <= 2 * rep.iters
            assert 1 <= conv.restarts_near_best <= rep.restarts


def test_seesaw_values_never_rise(qubit_geam, qutrit_geam):
    from geamkit.certify import _seesaw

    for geam in (qubit_geam, qutrit_geam):
        d = geam.d
        for k, w in _fixture_witnesses(geam):
            values, states, history, half_steps, _ = _seesaw(
                w, d, k, random_rank_k_coefficients(d, k, np.random.default_rng(3), 20), 400)
            assert history.shape == (half_steps + 1, 20)
            assert np.diff(history, axis=0).max() <= 1e-12
            again = np.einsum("rx,xy,ry->r", states.conj(), w, states).real
            assert np.abs(again - values).max() < 1e-10


def _ququart_mub():
    """The GEAM of `geamkit build-geam --d 4 --layout mub --b 0.3`."""
    m = mub_layout(4)
    params = GeamParams(d=4, m=m, gamma=[0.2] * 5, b=[0.3] * 5, tau_sign=[1] * 5)
    return build_geam(gell_mann_hermitian_basis(4, m), params, auto_sign=True)


def test_seesaw_readme_ququart_case():
    # the README pipeline at d = 4 (k = 1, L = 1, K = 5, rotation seed 5,
    # certify seed 2): the plain see-saw takes 874 half-steps to 1.410356e-11
    geam = _ququart_mub()
    rep = min_schmidt_k(build_witness(geam, rotation_set(geam, 5), 1, 1, 5), 1, seed=2)
    assert rep.convergence.half_steps < 874
    assert rep.min_value <= 1.410355990859e-11 + 1e-12


def test_seesaw_slow_ququart_case_ends_before_cap():
    # k = 2, L = 2, K = 4: the plain see-saw reaches the 1000-half-step cap
    # at 0.001161568107799 while still improving
    geam = _ququart_mub()
    rng = np.random.default_rng(5)
    rots = [_draw_rotation(4, rng) for _ in range(5)]
    rep = min_schmidt_k(build_witness(geam, rots, 2, 2, 4), 2, seed=2)
    assert rep.convergence.half_steps < 2 * rep.iters
    assert rep.min_value <= 0.001161568107799 + 1e-12


def _hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def _supports(d, k, count, rng):
    g = rng.standard_normal((count, d, k)) + 1j * rng.standard_normal((count, d, k))
    return np.linalg.qr(g)[0]


def test_compression_matches_explicit_kron():
    from geamkit.certify import _compress, _frames

    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        w = _hermitian(d * d, rng)
        wrs = _frames(w, d)[1]
        for k in range(1, d):
            basis = _supports(d, k, 3, rng)
            for side in (0, 1):
                got = _compress(wrs[side], basis)
                for v, m in zip(basis, got):
                    if side == 0:
                        iso = np.kron(v, np.eye(d))
                        ref = iso.conj().T @ w @ iso
                    else:
                        # side 1 orders the compression's index as (q, m), not (m, q)
                        iso = np.kron(np.eye(d), v)
                        ref = iso.conj().T @ w @ iso
                        ref = ref.reshape(d, k, d, k).transpose(1, 0, 3, 2).reshape(k * d, -1)
                    assert np.abs(m - ref).max() <= 1e-14 * np.linalg.norm(w, 2)


def test_newton_derivatives_match_central_differences():
    # f(b) = lambda_min of the compression at qf(V + V_perp B), B = b[:n] + i b[n:]
    from geamkit.certify import _compress, _frames, _newton

    rng = np.random.default_rng(12)
    h = 1e-5
    for d in (3, 4):
        w = _hermitian(d * d, rng)
        ws, wrs = _frames(w, d)
        for k in range(1, d):
            n = (d - k) * k
            v = _supports(d, k, 1, rng)
            perp = np.linalg.qr(v[0], mode="complete")[0][:, k:]
            for side in (0, 1):
                evals, evecs = np.linalg.eigh(_compress(wrs[side], v))
                _, grad, hess = _newton(ws[side], v, evals, evecs)

                def f(b):
                    step = (b[:n] + 1j * b[n:]).reshape(d - k, k)
                    moved = np.linalg.qr(v[0] + perp @ step)[0]
                    return np.linalg.eigvalsh(_compress(wrs[side], moved[None]))[0, 0]

                e = h * np.eye(2 * n)
                fd_grad = [(f(p) - f(-p)) / (2 * h) for p in e]
                fd_hess = [[(f(p + q) - f(p - q) - f(q - p) + f(-p - q)) / (4 * h * h)
                            for q in e] for p in e]
                scale = np.abs(hess).max()
                assert np.abs(grad[0] - fd_grad).max() <= 1e-8 * scale
                assert np.abs(hess[0] - np.array(fd_hess)).max() <= 1e-4 * scale


def test_newton_step_finite_on_degenerate_compression():
    # W = A (x) I makes every side-0 compression (V^dag A V) (x) I, so lambda_0
    # is exactly d-fold degenerate there
    from geamkit.certify import _compress, _frames, _newton

    rng = np.random.default_rng(13)
    for d, k in ((3, 1), (4, 2)):
        w = np.kron(_hermitian(d, rng), np.eye(d))
        basis = _supports(d, k, 2, rng)
        evals, evecs = np.linalg.eigh(_compress(_frames(w, d)[1][0], basis))
        support, grad, hess = _newton(w, basis, evals, evecs)
        assert np.isfinite(hess).all()
        overlap = support.conj().transpose(0, 2, 1) @ support
        assert np.abs(overlap - np.eye(k)).max() < 1e-12


def test_seesaw_readme_ququart_case_reaches_zero():
    # with the Newton candidate the README case converges instead of stalling
    # at 8.3e-12 after 177 half-steps
    geam = _ququart_mub()
    rep = min_schmidt_k(build_witness(geam, rotation_set(geam, 5), 1, 1, 5), 1, seed=2)
    assert rep.convergence.half_steps <= 60
    assert abs(rep.min_value) <= 1e-13


@pytest.fixture(scope="module")
def tight_grid():
    """Reports on the ququart MUB layout at b = 0.3, rotation sets 0-2, k = 1, every L <= K."""
    geam = _ququart_mub()
    reports = []
    for seed in range(3):
        rots = rotation_set(geam, seed)
        for kk in range(1, 6):
            for l in range(1, kk + 1):
                reports.append(min_schmidt_k(build_witness(geam, rots, 1, l, kk), 1, seed=seed))
    return reports


def test_seesaw_tight_rows_reach_zero(tight_grid):
    # seven rows are tight at 0 (the rest lie above 1.6e-7); the stall rule
    # alone left them at 1.2e-13 to 5.6e-13
    tight = [r.min_value for r in tight_grid if r.min_value <= 1e-9]
    assert len(tight) == 7
    assert max(abs(v) for v in tight) <= 1e-13


def test_seesaw_tight_grid_half_step_total(tight_grid):
    # the Newton finish alone takes 981 half-steps on this grid; an Aitken
    # candidate tried beside it cost one more half-step per firing (1,184
    # from the earlier per-restart starts, where the Newton finish took 979)
    assert sum(r.convergence.half_steps for r in tight_grid) <= 1050


def test_seesaw_qubit_half_steps_unchanged(qubit_geam):
    # qubit rows stall within a few half-steps; the Newton candidate must not
    # add any (k = 1, L = 1, K = 3, rotation seed 0)
    geam = qubit_geam
    rep = min_schmidt_k(build_witness(geam, rotation_set(geam, 0), 1, 1, 3), 1, seed=0)
    assert rep.convergence.half_steps == 4
