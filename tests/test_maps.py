import itertools

import numpy as np
import pytest

import geamkit.maps
from geamkit import (ValidationError, a_coefficient, build_witness, check_rotation,
                     choi_matrix, choi_witness, frame_witness, haar_unitary,
                     phi_alpha, phi_k, phi_zero, qubit_two_group, qutrit_mub,
                     random_rotation, rotation_set, superop_from_choi)
from geamkit.linalg import min_eigenvalue, random_operator
from geamkit.maps import Superoperator, Witness, _ones_complement

from conftest import assert_close

I2 = np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


# ------------------------------------------------------------------ rotations

def test_rotation_m2_is_identity_or_swap():
    seen = set()
    for seed in range(20):
        o = random_rotation(2, seed)
        if np.abs(o - I2).max() < 1e-12:
            seen.add("identity")
        elif np.abs(o - SWAP).max() < 1e-12:
            seen.add("swap")
        else:
            raise AssertionError(f"unexpected 2x2 rotation:\n{o}")
    assert seen == {"identity", "swap"}


@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_rotation_invariants(m):
    for seed in range(5):
        o = random_rotation(m, seed)
        assert check_rotation(o) < 1e-10
        assert np.abs(o @ np.ones(m) - np.ones(m)).max() < 1e-12


def test_rotation_seeds_differ_and_repeat():
    a0 = random_rotation(3, 0)
    a1 = random_rotation(3, 1)
    assert np.abs(a0 - a1).max() > 1e-6
    assert np.array_equal(a0, random_rotation(3, 0))


def test_rotation_reaches_both_orthogonal_components():
    dets = {round(np.linalg.det(random_rotation(3, s))) for s in range(30)}
    assert dets == {-1, 1}


@pytest.mark.parametrize("m", range(2, 7))
def test_rotation_matches_high_precision_exponential(m):
    """Same draws as random_rotation (A, then the reflection coin), with exp(A)
    taken in 30-digit arithmetic: pins the distribution to 1e-13."""
    import mpmath

    q = _ones_complement(m)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m - 1, m - 1))
        a = a - a.T
        with mpmath.workdps(30):
            block = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
        if rng.random() < 0.5:
            block[0] = -block[0]
        core = np.eye(m)
        core[1:, 1:] = block
        assert_close(random_rotation(m, seed), q @ core @ q.T, 1e-13, f"m={m} seed={seed}")


def test_rotation_set_is_deterministic(qubit_geam):
    r1 = rotation_set(qubit_geam, 5)
    r2 = rotation_set(qubit_geam, 5)
    assert all(np.array_equal(a, b) for a, b in zip(r1, r2))
    assert len(r1) == 3


# ------------------------------------------------------------- depolarizing map

def test_phi_zero_behavior():
    phi = phi_zero(2)
    assert np.abs(phi.apply(np.array([[0, 1], [0, 0]], dtype=complex))).max() < 1e-15
    assert_close(phi.apply(np.eye(2)), np.eye(2), 1e-15, "unital")
    assert np.linalg.matrix_rank(phi.matrix) == 1
    assert_close(choi_matrix(phi), np.eye(4) / 2, 1e-15, "choi of depolarizing")


# ------------------------------------------------------------------ frame maps

def test_phi_alpha_identity_rotation_is_completely_positive(qubit_geam):
    for alpha in range(3):
        phi = phi_alpha(qubit_geam, alpha, I2)
        assert min_eigenvalue(choi_matrix(phi)) > -1e-12


def test_phi_alpha_trace_rescaling(qubit_geam):
    rng = np.random.default_rng(0)
    a_gamma = 1 / 9
    for alpha, o in enumerate((I2, SWAP, I2)):
        phi = phi_alpha(qubit_geam, alpha, o)
        assert_close(phi.apply(np.eye(2)), a_gamma * np.eye(2), 1e-12, "unit image")
        for _ in range(5):
            x = random_operator(2, rng)
            out = phi.apply(x)
            assert abs(np.trace(out) - a_gamma * np.trace(x)) < 1e-10


def test_phi_alpha_matrix_against_elementwise_loop(qubit_geam):
    """Independent assembly: apply the defining sum entry by entry."""
    grp = qubit_geam.ops[0]
    phi = phi_alpha(qubit_geam, 0, SWAP)
    mat = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        for n in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[m, n] = 1.0
            out = sum(SWAP[k, l] * grp[k] * np.trace(unit @ grp[l])
                      for k in range(2) for l in range(2))
            mat[:, 2 * m + n] = out.reshape(-1)
    assert_close(phi.matrix, mat, 1e-14, "column assembly")


def test_phi_alpha_rejects_bad_rotation(qubit_geam):
    with pytest.raises(ValidationError):
        phi_alpha(qubit_geam, 0, np.eye(3))
    with pytest.raises(ValidationError):
        phi_alpha(qubit_geam, 0, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_phi_alpha_rejects_nan_rotation(qubit_geam):
    with pytest.raises(ValidationError, match="rotation is not orthogonal"):
        phi_alpha(qubit_geam, 0, np.full((2, 2), np.nan))


def _check_rotation_reference(o):
    """The three separate maxima that check_rotation folds into one."""
    m = o.shape[0]
    dev = np.abs(o.T @ o - np.eye(m)).max()
    dev = max(dev, np.abs(o.sum(axis=0) - 1).max())
    dev = max(dev, np.abs(o.sum(axis=1) - 1).max())
    return float(dev)


@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_check_rotation_matches_three_maxima(m):
    rng = np.random.default_rng(m)
    for seed in range(10):
        o = random_rotation(m, seed)
        perturbed = o + rng.normal(scale=10.0 ** -rng.integers(4, 15), size=(m, m))
        for x in (o, perturbed, rng.standard_normal((m, m))):
            assert check_rotation(x) == _check_rotation_reference(x), (m, seed)


def test_check_rotation_rejects_non_square():
    for shape in ((2, 3), (3,), (2, 2, 2)):
        with pytest.raises(ValidationError, match=r"rotation shape .* is not square"):
            check_rotation(np.ones(shape))


# --------------------------------------------------------- closed-form weight

def test_a_coefficient_qubit_frozen_value(qubit_geam):
    # k=2, L=1, K=3 at d=2, M=2, gamma=1/3, b=1: a = d gamma/M = 1/3,
    # c = (M - d b)/(d (M-1)) = 0, S = a^2 (b - c) = 1/9, mu_l = l a gamma/d
    # = l/18, so A = -2 (1/6 - 2/18) + 3 S = 2/9 in high precision
    import mpmath

    with mpmath.workdps(40):
        d, k, m, gamma, b = 2, 2, 2, mpmath.mpf(1) / 3, 1
        a = d * gamma / m
        c = mpmath.mpf(m - d * b) / (d * (m - 1))
        s = a ** 2 * (b - c)
        mu_1, mu_3 = a * gamma / d, 3 * a * gamma / d
        expected = float(-d * (mu_3 - 2 * mu_1) + (k * d - 1) * s)
    got = a_coefficient(qubit_geam, 2, 1, 3)
    assert abs(got - expected) < 1e-12
    assert abs(got - 2 / 9) < 1e-12


def test_a_coefficient_k1_simplification(all_fixture_geams):
    # at L = K the k=1 weight reduces to d mu_K + (d-1) S
    for geam in all_fixture_geams.values():
        d, s = geam.d, geam.derived.s
        for l in range(1, geam.n_groups + 1):
            direct = a_coefficient(geam, 1, l, l)
            assert abs(direct - (d * geam.derived.mu(l) + (d - 1) * s)) < 1e-12


def test_a_coefficient_k_equals_d_form(all_fixture_geams):
    # the k = d weight is -d(mu_K - 2 mu_L) + (d^2 - 1) S
    for geam in all_fixture_geams.values():
        d, s = geam.d, geam.derived.s
        n = geam.n_groups
        for l, kk in itertools.combinations_with_replacement(range(1, n + 1), 2):
            mu_l, mu_k = geam.derived.mu(l), geam.derived.mu(kk)
            closed = -d * (mu_k - 2 * mu_l) + (d * d - 1) * s
            assert abs(a_coefficient(geam, d, l, kk) - closed) < 1e-12


def test_a_coefficient_requires_equidistant():
    with pytest.raises(ValidationError):
        a_coefficient(qubit_two_group(), 1, 1, 2)


def test_a_coefficient_range_checks(qubit_geam):
    with pytest.raises(ValidationError):
        a_coefficient(qubit_geam, 3, 1, 3)  # k > d
    with pytest.raises(ValidationError):
        a_coefficient(qubit_geam, 1, 2, 1)  # L > K


@pytest.mark.parametrize("k, l, kk", [(1.5, 1, 3), (1, 1.0, 3), (1, 1, True), (1, 1, "3")])
def test_weight_requires_integer_ranks(qubit_geam, k, l, kk):
    with pytest.raises(ValidationError, match="must be an integer"):
        a_coefficient(qubit_geam, k, l, kk)
    rots = rotation_set(qubit_geam, 0)
    for build in (phi_k, frame_witness, build_witness):
        with pytest.raises(ValidationError, match="must be an integer"):
            build(qubit_geam, rots, k, l, kk)


# ------------------------------------------------------------- assembled maps

def test_phi_k_trace_property(qubit_geam, qutrit_geam):
    rng = np.random.default_rng(3)
    for geam in (qubit_geam, qutrit_geam):
        rots = rotation_set(geam, 1)
        n = geam.n_groups
        for k, l, kk in [(1, 1, n), (geam.d, 1, n), (geam.d, 1, 1), (2, 2, n)]:
            phi = phi_k(geam, rots, k, l, kk)
            factor = (a_coefficient(geam, k, l, kk)
                      + geam.d * (geam.derived.mu(kk) - 2 * geam.derived.mu(l)))
            for _ in range(5):
                x = random_operator(geam.d, rng)
                assert abs(np.trace(phi.apply(x)) - factor * np.trace(x)) < 1e-9
            assert abs(np.trace(phi.apply(np.eye(geam.d))) - geam.d * factor) < 1e-9


def test_phi_k_needs_enough_rotations(qubit_geam):
    with pytest.raises(ValidationError):
        phi_k(qubit_geam, [I2], 1, 1, 3)


# ------------------------------------------------------ proof cross-identities

def _v_family(d, rng):
    v = haar_unitary(d, rng)
    return lambda m, n: np.outer(v[:, m], v[:, n].conj())


def test_pairwise_trace_identities(qubit_geam, qutrit_geam):
    """Products of map outputs on conjugated matrix units.

    These four exact identities drive the closed-form weight; each one is
    checked directly on random unitary conjugations.
    """
    rng = np.random.default_rng(21)
    for geam in (qubit_geam, qutrit_geam):
        d = geam.d
        s = geam.derived.s
        rots = rotation_set(geam, 4)
        phis = [phi_alpha(geam, al, rots[al]) for al in range(geam.n_groups)]
        p0 = phi_zero(d)
        units = _v_family(d, rng)
        for m in range(d):
            for n in range(d):
                vmn, vnm = units(m, n), units(n, m)
                delta = 1.0 if m == n else 0.0
                assert abs(np.trace(p0.apply(vmn) @ p0.apply(vnm)).real
                           - delta / d) < 1e-9
                for al, phi in enumerate(phis):
                    ag = geam.derived.a[al] * geam.params.gamma[al]
                    assert abs(np.trace(p0.apply(vmn) @ phi.apply(vnm)).real
                               - ag * delta / d) < 1e-9
                    same = np.trace(phi.apply(vmn) @ phi.apply(vnm)).real
                    corr = s * np.sum(np.abs(
                        np.einsum("kij,ji->k", geam.ops[al], vmn)) ** 2)
                    cexp = (geam.derived.a[al] ** 2 * geam.params.gamma[al] ** 2
                            * geam.derived.c[al])
                    assert abs(same - (cexp * delta + corr)) < 1e-9
                for al, be in itertools.combinations(range(geam.n_groups), 2):
                    cross = np.trace(phis[al].apply(vmn) @ phis[be].apply(vnm)).real
                    expect = (geam.derived.a[al] * geam.derived.a[be]
                              * geam.params.gamma[al] * geam.params.gamma[be]
                              * delta / d)
                    assert abs(cross - expect) < 1e-9


def test_combined_product_identity(qubit_geam, qutrit_geam):
    """Purity of assembled-map outputs decomposes into trace factor plus
    a coincidence-sum correction, exactly, for 50 random (V, m, n)."""
    rng = np.random.default_rng(33)
    for geam in (qubit_geam, qutrit_geam):
        d, n_g = geam.d, geam.n_groups
        s = geam.derived.s
        rots = rotation_set(geam, 9)
        for k, l, kk in [(1, 1, n_g), (d, 1, n_g), (d, 1, 2)]:
            phi = phi_k(geam, rots, k, l, kk)
            factor = (a_coefficient(geam, k, l, kk)
                      + d * (geam.derived.mu(kk) - 2 * geam.derived.mu(l)))
            mu_k = geam.derived.mu(kk)
            for _ in range(50):
                units = _v_family(d, rng)
                m, n = rng.integers(0, d, size=2)
                vmn, vnm = units(m, n), units(n, m)
                delta = 1.0 if m == n else 0.0
                lhs = np.trace(phi.apply(vmn) @ phi.apply(vnm)).real
                coin = sum(
                    np.sum(np.abs(np.einsum("kij,ji->k", geam.ops[al], vmn)) ** 2)
                    for al in range(kk))
                rhs = delta / d * factor ** 2 + s * (coin - mu_k * delta)
                assert abs(lhs - rhs) < 1e-8


def test_overlap_parameter_identity(all_fixture_geams):
    # c - f = -(b - c)/M, the relation that collapses the double sums
    for geam in all_fixture_geams.values():
        der = geam.derived
        for al, m in enumerate(geam.params.m):
            lhs = der.c[al] - der.f
            rhs = -(geam.params.b[al] - der.c[al]) / m
            assert abs(lhs - rhs) < 1e-12


# -------------------------------------------------------------- Choi and dual route

def test_choi_reshuffle_round_trip():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        mat = random_operator(d * d, rng)
        phi = Superoperator(matrix=mat, d=d)
        back = superop_from_choi(choi_matrix(phi), d)
        assert np.abs(back.matrix - mat).max() < 1e-15


def test_choi_witness_hermiticity_guard():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 1] = 1.0  # maps |0><1| to |0><0|: not Hermiticity-preserving
    with pytest.raises(ValidationError):
        choi_witness(Superoperator(matrix=mat, d=2))


def test_dual_route_witness_equality(all_fixture_geams):
    for name, geam in all_fixture_geams.items():
        n = geam.n_groups
        for seed in range(20):
            rots = rotation_set(geam, seed)
            for k, l, kk in [(1, 1, n), (geam.d, 1, n)]:
                phi = phi_k(geam, rots, k, l, kk)
                w1 = choi_witness(phi).w
                w2 = frame_witness(geam, rots, k, l, kk)
                assert np.abs(w1 - w2).max() < 1e-10, (name, seed, k)


def _frame_witness_reference(geam, rotations, k, l, kk):
    """The frame route as one einsum per group."""
    d = geam.d
    w = a_coefficient(geam, k, l, kk) / d * np.eye(d * d, dtype=complex)
    for alpha in range(kk):
        grp = geam.ops[alpha]
        j = np.einsum("kl,lab,kcd->acbd", np.asarray(rotations[alpha]), grp.conj(),
                      grp).reshape(d * d, d * d)
        w = w - j if alpha < l else w + j
    return w


def test_frame_witness_matches_einsum_reference(qubit_geam, qutrit_geam):
    for geam in (qubit_geam, qutrit_geam):
        d, n = geam.d, geam.n_groups
        for seed in (0, 1):
            rots = rotation_set(geam, seed)
            for k in range(1, d + 1):
                for kk in range(1, n + 1):
                    for l in range(1, kk + 1):
                        assert_close(frame_witness(geam, rots, k, l, kk),
                                     _frame_witness_reference(geam, rots, k, l, kk),
                                     1e-15, f"d={d} seed={seed} k={k} L={l} K={kk}")


def test_frame_witness_rejects_bad_rotations(qubit_geam):
    with pytest.raises(ValidationError, match="need rotations"):
        frame_witness(qubit_geam, [I2, SWAP], 1, 1, 3)
    with pytest.raises(ValidationError, match="rotation shape"):
        frame_witness(qubit_geam, [I2, np.eye(3), SWAP], 1, 1, 3)
    with pytest.raises(ValidationError, match="rotation is not orthogonal"):
        frame_witness(qubit_geam, [I2, np.array([[1.0, 0.1], [0.0, 1.0]]), SWAP], 1, 1, 3)


def test_choi_witness_guard_reports_the_witness_check():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 1] = 1.0
    phi = Superoperator(matrix=mat, d=2)
    with pytest.raises(ValidationError) as expected:
        Witness(w=choi_matrix(phi))
    with pytest.raises(ValidationError) as raised:
        choi_witness(phi)
    assert str(raised.value) == str(expected.value)


def test_build_witness_rejects_disagreeing_routes(qubit_geam, monkeypatch):
    original = geamkit.maps.frame_witness

    def shifted(*args):
        w = original(*args)
        w[0, 0] += 1e-9
        return w

    monkeypatch.setattr(geamkit.maps, "frame_witness", shifted)
    with pytest.raises(ValidationError, match="routes disagree"):
        build_witness(qubit_geam, rotation_set(qubit_geam, 0), 1, 1, 3)


# ------------------------------------------------------------ group block cache

def _cold_build(geam, rotations, k, l, kk):
    geamkit.maps._block_cache.clear()
    return build_witness(geam, rotations, k, l, kk)


def test_warm_builds_equal_cold_builds(all_fixture_geams):
    for name, geam in all_fixture_geams.items():
        d, n = geam.d, geam.n_groups
        for seed in range(3):
            rots = rotation_set(geam, seed)
            for k in range(1, d + 1):
                for kk in range(1, n + 1):
                    for l in range(1, kk + 1):
                        cold = _cold_build(geam, rots, k, l, kk)
                        warm = build_witness(geam, rots, k, l, kk)
                        assert warm.w.tobytes() == cold.w.tobytes(), (name, seed, k, l, kk)
                        assert warm.meta == cold.meta


def test_in_place_edits_reach_the_next_build():
    geam = qutrit_mub()  # a copy of its own: its operators are edited below
    rots = [o.copy() for o in rotation_set(geam, 0)]
    first = build_witness(geam, rots, 1, 1, 4).w.tobytes()
    rots[1][...] = rotation_set(geam, 1)[1]
    edited = build_witness(geam, rots, 1, 1, 4).w.tobytes()
    assert edited != first
    assert edited == _cold_build(geam, rots, 1, 1, 4).w.tobytes()
    grp = geam.ops[2]
    grp[...] = grp[::-1].copy()  # the same frame, its elements in reverse order
    reordered = build_witness(geam, rots, 1, 1, 4).w.tobytes()
    assert reordered != edited
    assert reordered == _cold_build(geam, rots, 1, 1, 4).w.tobytes()


def test_rejected_rotation_raises_on_every_call(qubit_geam):
    shear = np.array([[1.0, 0.1], [0.0, 1.0]])
    o = SWAP.copy()
    build_witness(qubit_geam, [I2, o, I2], 1, 1, 3)
    o[...] = shear  # the group's valid blocks are cached, the edited rotation is not
    for _ in range(2):
        for call in (lambda: build_witness(qubit_geam, [I2, o, I2], 1, 1, 3),
                     lambda: frame_witness(qubit_geam, [I2, o, I2], 1, 1, 3),
                     lambda: phi_k(qubit_geam, [I2, o, I2], 1, 1, 3),
                     lambda: phi_alpha(qubit_geam, 1, o)):
            with pytest.raises(ValidationError, match="rotation is not orthogonal"):
                call()


def test_returned_arrays_are_writable_and_not_shared(qubit_geam):
    rots = rotation_set(qubit_geam, 0)
    reference = _cold_build(qubit_geam, rots, 1, 1, 3).w.tobytes()
    for out in (phi_alpha(qubit_geam, 0, rots[0]).matrix,
                phi_k(qubit_geam, rots, 1, 1, 3).matrix,
                phi_k(qubit_geam, rots, 1, 1, 1).matrix,
                frame_witness(qubit_geam, rots, 1, 1, 3),
                build_witness(qubit_geam, rots, 1, 1, 3).w):
        assert out.flags.writeable
        out[...] = np.nan
    assert build_witness(qubit_geam, rots, 1, 1, 3).w.tobytes() == reference
    blocks = list(geamkit.maps._block_cache.values())
    assert blocks and not any(b.flags.writeable for pair in blocks for b in pair)


def test_block_cache_is_bounded(qutrit_geam):
    size = geamkit.maps.BLOCK_CACHE_SIZE
    for seed in range(size // qutrit_geam.n_groups + 2):
        build_witness(qutrit_geam, rotation_set(qutrit_geam, seed), 1, 1, 4)
    assert len(geamkit.maps._block_cache) == size


@pytest.mark.parametrize("meta", [{"k": 0}, {"k": 3}, {"l": 0}, {"kk": 0},
                                  {"l": 3, "kk": 2}])
def test_witness_meta_out_of_range(meta):
    with pytest.raises(ValidationError, match="witness meta"):
        Witness(w=np.eye(4), meta=meta)


def test_witness_meta_in_range():
    for meta in ({}, {"k": 1}, {"k": 2, "l": 1}, {"l": 2, "kk": 2}, {"kk": 1}):
        assert Witness(w=np.eye(4), meta=meta).meta == meta


def test_build_witness_metadata(qubit_geam):
    rots = rotation_set(qubit_geam, 2)
    w = build_witness(qubit_geam, rots, 2, 1, 3, geam_fingerprint="abc",
                      rotation_seed=2)
    assert np.abs(w.w - w.w.conj().T).max() < 1e-10
    assert w.meta["k"] == 2 and w.meta["l"] == 1 and w.meta["kk"] == 3
    assert w.meta["geam_fingerprint"] == "abc"
    assert abs(w.meta["a_k"] - a_coefficient(qubit_geam, 2, 1, 3)) < 1e-15
    assert w.d == 2


def test_extended_trace_on_entangled_projectors(qubit_geam, qutrit_geam):
    """Tr[(id (x) map) P] equals the trace factor on every Schmidt-rank-k
    maximally entangled projector, whatever the local unitaries."""
    rng = np.random.default_rng(12)
    for geam in (qubit_geam, qutrit_geam):
        d = geam.d
        rots = rotation_set(geam, 0)
        for k in range(1, d + 1):
            phi = phi_k(geam, rots, k, 1, geam.n_groups)
            factor = (a_coefficient(geam, k, 1, geam.n_groups)
                      + d * (geam.derived.mu(geam.n_groups)
                             - 2 * geam.derived.mu(1)))
            for _ in range(10):
                u, v = haar_unitary(d, rng), haar_unitary(d, rng)
                psi = np.zeros(d * d, dtype=complex)
                for m in range(k):
                    psi += np.kron(u[:, m], v[:, m])
                psi /= np.sqrt(k)
                p = np.outer(psi, psi.conj())
                assert abs(np.trace(phi.apply_extended(p)).real - factor) < 1e-10


# ----------------------------------------- complete-positivity corner, pinned

def test_qubit_k2_choi_spectrum_depends_on_rotation_parity(qubit_geam):
    """At d=2, k=2, L=1, K=3 the Choi matrix is PSD for every swap
    pattern: min eigenvalues are 1/9 for odd parity and exactly 0 (the
    weight is tight) for even parity."""
    psd_min = 1 / 9
    tight_min = 0.0
    for pattern in itertools.product((I2, SWAP), repeat=3):
        parity = sum(np.abs(o - SWAP).max() < 1e-12 for o in pattern) % 2
        w = build_witness(qubit_geam, list(pattern), 2, 1, 3)
        low = min_eigenvalue(w.w)
        expected = psd_min if parity == 1 else tight_min
        assert abs(low - expected) < 1e-12, f"parity={parity}"


def test_qubit_k2_psd_for_smaller_overlap_spread():
    """The identity-pattern corner is PSD and tight (minimum 0) whatever
    the common distance b."""
    from geamkit import GeamParams, build_geam
    from geamkit.basis import gell_mann_hermitian_basis

    for b in (5 / 7, 0.72, 1.0):
        params = GeamParams(d=2, m=(2, 2, 2), gamma=(1 / 3,) * 3, b=(b,) * 3,
                            tau_sign=(1, 1, 1))
        geam = build_geam(gell_mann_hermitian_basis(2, params.m), params)
        w = build_witness(geam, [I2, I2, I2], 2, 1, 3)
        low = min_eigenvalue(w.w)
        assert abs(low) < 1e-12, f"b={b}, min eig={low}"
