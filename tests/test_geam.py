import itertools

import numpy as np
import pytest

from geamkit import (GeamParams, PositivityError, ValidationError, analyze_geam,
                     build_geam, coincidence_bound, coincidence_index, conical_design_check,
                     equidistance, load_geam, qubit_mub, qubit_two_group,
                     qutrit_mub, qutrit_single_frame, save_geam, validate_geam)
from geamkit.basis import frame_operators, gell_mann_hermitian_basis as make_basis
from geamkit.geam import Geam
from geamkit.linalg import random_density_matrix, random_operator, \
    random_trace_one_operator

from conftest import assert_close

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------- parameters

def test_parameter_validation_errors():
    good = dict(d=2, m=(2, 2, 2), gamma=(1 / 3,) * 3, b=(1.0,) * 3,
                tau_sign=(1, 1, 1))
    GeamParams(**good)

    with pytest.raises(ValidationError):  # gamma does not sum to 1
        GeamParams(**{**good, "gamma": (0.5, 0.3, 0.3)})
    with pytest.raises(ValidationError):  # element count off
        GeamParams(**{**good, "m": (2, 2, 3)})
    with pytest.raises(ValidationError):  # b at the open lower endpoint
        GeamParams(**{**good, "b": (0.5, 1.0, 1.0)})
    with pytest.raises(ValidationError):  # b above min(d, M)/d
        GeamParams(**{**good, "b": (1.2, 1.0, 1.0)})
    with pytest.raises(ValidationError):  # degenerate group
        GeamParams(d=2, m=(1, 2, 2, 2), gamma=(0.25,) * 4, b=(1.0,) * 4,
                   tau_sign=(1,) * 4)
    with pytest.raises(ValidationError):  # bad sign
        GeamParams(**{**good, "tau_sign": (1, 0, 1)})
    with pytest.raises(ValidationError):  # a bool is not a sign
        GeamParams(**{**good, "tau_sign": (True, 1, 1)})
    with pytest.raises(ValidationError):  # a float is not a frame size
        GeamParams(**{**good, "m": (2, 2, 2.5)})
    with pytest.raises(ValidationError):  # a string is not a purity parameter
        GeamParams(**{**good, "b": ("1.0", 1.0, 1.0)})


def test_derived_parameters_qubit(qubit_geam):
    der = qubit_geam.derived
    assert_close(der.a, [1 / 3] * 3, 1e-15, "a")
    assert_close(der.c, [0.0] * 3, 1e-15, "c")
    assert der.f == 0.5
    assert_close(der.s_per_group, [1 / 9] * 3, 1e-15, "S")
    assert abs(der.s - 1 / 9) < 1e-15
    assert abs(der.mu(1) - 1 / 18) < 1e-15
    assert abs(der.mu(3) - 1 / 6) < 1e-15
    with pytest.raises(ValidationError):
        der.mu(4)


# -------------------------------------------------------------- construction

def test_qubit_fixture_is_rescaled_mub_projectors(qubit_geam):
    expected = []
    for sigma in (SX, SY, SZ):
        expected.append([(np.eye(2) - sigma) / 6, (np.eye(2) + sigma) / 6])
    for grp, exp in zip(qubit_geam.ops, expected):
        # match as sets: the tau sign only relabels elements within a group
        for op in grp:
            assert min(np.abs(op - e).max() for e in exp) < 1e-12


def test_build_rejects_mismatched_basis():
    basis = make_basis(2, [2, 2, 2])
    params = GeamParams(d=2, m=(4,), gamma=(1.0,), b=(0.8,), tau_sign=(1,))
    with pytest.raises(ValidationError):
        build_geam(basis, params)


def test_positivity_error_names_offender():
    params = GeamParams(d=3, m=(3, 3, 3, 3), gamma=(0.25,) * 4, b=(1.0,) * 4,
                        tau_sign=(1,) * 4)
    basis = make_basis(3, params.m)
    with pytest.raises(PositivityError) as exc:
        build_geam(basis, params)
    assert exc.value.min_eigenvalue < -1e-10
    assert 0 <= exc.value.group < 4


def test_auto_sign_recovers_when_flip_helps():
    # the diagonal qutrit group admits larger b with tau = +1 than -1
    params = GeamParams(d=3, m=(3, 3, 3, 3), gamma=(0.25,) * 4, b=(0.55,) * 4,
                        tau_sign=(-1,) * 4)
    basis = make_basis(3, params.m)
    with pytest.raises(PositivityError):
        build_geam(basis, params)
    geam = build_geam(basis, params, auto_sign=True)
    assert validate_geam(geam).passed
    assert any(s == 1 for s in geam.params.tau_sign)


def test_empirical_admissible_b_ranges():
    # pinned by scanning: the generic realization caps b well below the
    # algebraic upper bound min(d, M)/d
    mub = lambda b, auto=True: build_geam(
        make_basis(3, (3, 3, 3, 3)),
        GeamParams(d=3, m=(3, 3, 3, 3), gamma=(0.25,) * 4, b=(b,) * 4,
                   tau_sign=(1,) * 4),
        auto_sign=auto,
    )
    assert validate_geam(mub(0.55)).passed
    with pytest.raises(PositivityError):
        mub(0.56)

    single = lambda b: build_geam(
        make_basis(3, (9,)),
        GeamParams(d=3, m=(9,), gamma=(1.0,), b=(b,), tau_sign=(1,)),
        auto_sign=True,
    )
    assert validate_geam(single(0.52)).passed
    with pytest.raises(PositivityError):
        single(0.53)
    with pytest.raises(PositivityError):
        single(1.0)


# ---------------------------------------------------------------- validation

def test_validation_report_fixtures(all_fixture_geams):
    for name, geam in all_fixture_geams.items():
        report = validate_geam(geam)
        assert report.passed, f"{name}:\n{report.summary()}"
        assert report.max_deviation < 1e-12


def test_validation_positivity_deviation_is_plus_zero():
    # qubit_mub's smallest eigenvalue is +0.0; its negation must not be reported as -0.0
    check = next(c for c in validate_geam(qubit_mub()).checks if c.name.startswith("P >= 0"))
    assert check.deviation == 0.0 and not np.signbit(check.deviation)


def test_validation_flags_corruption(qubit_geam):
    ops = [grp.copy() for grp in qubit_geam.ops]
    ops[0][0] = np.eye(2) / 2  # wrong purity, right trace
    corrupted = Geam(params=qubit_geam.params, ops=tuple(ops),
                     basis_meta=qubit_geam.basis_meta)
    report = validate_geam(corrupted)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert any("Tr P^2" in name for name in failing)


def test_all_operators_sum_to_identity(all_fixture_geams):
    for name, geam in all_fixture_geams.items():
        total = geam.all_ops().sum(axis=0)
        assert_close(total, np.eye(geam.d), 1e-10, name)


# -------------------------------------------------------------- equidistance

def test_equidistance_qubit(qubit_geam):
    eq = equidistance(qubit_geam)
    assert eq.equidistant
    assert abs(eq.s - 1 / 9) < 1e-12
    assert_close(eq.s_per_group, [1 / 9] * 3, 1e-12, "S per group")
    # distances across frames are strictly smaller than S here: 1/18
    lo, hi = eq.cross_group_range
    assert abs(lo - 1 / 18) < 1e-12 and abs(hi - 1 / 18) < 1e-12


def test_equidistance_single_group(single_frame_geam):
    eq = equidistance(single_frame_geam)
    assert eq.equidistant
    assert eq.cross_group_range is None
    assert abs(eq.s - single_frame_geam.derived.s_per_group[0]) < 1e-12


def test_not_equidistant_two_group():
    geam = qubit_two_group(b1=0.8, b2=0.7)
    eq = equidistance(geam)
    assert not eq.equidistant
    assert eq.s is None
    assert_close(eq.s_per_group, [0.05, 0.1], 1e-12, "S1, S2")
    # matched parameters restore the common distance: S1 = S2 at b1 = 3 b2 - 1
    eq2 = equidistance(qubit_two_group(b1=0.8, b2=0.6))
    assert eq2.equidistant and abs(eq2.s - 0.05) < 1e-12


def _conjugated_qutrit():
    params = GeamParams(d=3, m=(3, 3, 3, 3), gamma=(0.25,) * 4, b=(0.5,) * 4,
                        tau_sign=(1, 1, 1, 1))
    return build_geam(make_basis(3, params.m, unitary_seed=5), params, auto_sign=True)


GRAM_CASES = {"qubit_mub": qubit_mub, "qutrit_mub": qutrit_mub,
              "qutrit_single_frame": qutrit_single_frame,
              "qubit_two_group": qubit_two_group, "qutrit_unitary_seed_5": _conjugated_qutrit}


@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_gram_matches_pairwise_reference(name):
    """Gram-matrix overlaps and distances against the per-pair formulas."""
    from geamkit.geam import _gram

    geam = GRAM_CASES[name]()
    p, der = geam.params, geam.derived
    ops = geam.all_ops()
    overlaps = np.einsum("kij,lji->kl", ops, ops).real
    assert_close(_gram(geam), overlaps, 1e-15, "Gram matrix")

    def dist(x, y):
        return 0.5 * np.trace((x - y) @ (x - y)).real

    per_group = [np.mean([dist(x, y) for x, y in itertools.combinations(grp, 2)])
                 for grp in geam.ops]
    cross = [dist(x, y) for al, be in itertools.combinations(range(p.n_groups), 2)
             for x in geam.ops[al] for y in geam.ops[be]]
    eq = equidistance(geam)
    assert_close(eq.s_per_group, per_group, 1e-15, "S per group")
    assert eq.equidistant == (max(per_group) - min(per_group) <= 1e-9)
    if eq.equidistant:
        assert abs(eq.s - np.mean(per_group)) <= 1e-15
    if cross:
        assert_close(eq.cross_group_range, [min(cross), max(cross)], 1e-15, "cross")
    else:
        assert eq.cross_group_range is None

    squares, within = [], []
    for al, grp in enumerate(geam.ops):
        g = np.einsum("kij,lji->kl", grp, grp).real
        squares.append(np.abs(np.diag(g) - p.b[al] * der.a[al] ** 2).max())
        off = g[~np.eye(len(grp), dtype=bool)]
        within.append(np.abs(off - der.c[al] * der.a[al] ** 2).max())
    want = {"Tr P^2 = b a^2": max(squares), "Tr P P' = c a^2 within a group": max(within)}
    if p.n_groups > 1:
        want["Tr P P' = f a a' across groups"] = max(
            np.abs(np.einsum("kij,lji->kl", geam.ops[al], geam.ops[be]).real
                   - der.f * der.a[al] * der.a[be]).max()
            for al, be in itertools.combinations(range(p.n_groups), 2))
    got = {c.name: c.deviation for c in validate_geam(geam).checks if c.name in want}
    assert got.keys() == want.keys()
    for check, value in want.items():
        assert abs(got[check] - value) <= 1e-15, check


# ------------------------------------------------------------ conical design

def test_conical_design_qubit(qubit_geam):
    res = conical_design_check(qubit_geam)
    assert abs(res.kappa_plus - 1 / 9) < 1e-12
    assert abs(res.kappa_minus - 1 / 9) < 1e-12
    assert res.residual < 1e-12


def test_conical_design_other_fixtures(qutrit_geam, single_frame_geam):
    for geam in (qutrit_geam, single_frame_geam):
        res = conical_design_check(geam)
        assert res.residual < 1e-10
        assert abs(res.kappa_minus - equidistance(geam).s) < 1e-12


def test_conical_design_rejects_non_equidistant():
    with pytest.raises(ValidationError):
        conical_design_check(qubit_two_group())


# -------------------------------------------------------- index of coincidence

def test_coincidence_maximally_mixed(all_fixture_geams):
    for name, geam in all_fixture_geams.items():
        n = geam.n_groups
        val = coincidence_index(geam, np.eye(geam.d) / geam.d, n)
        assert abs(val - geam.derived.mu(n)) < 1e-12, name


def test_coincidence_qubit_pure_state(qubit_geam):
    proj = np.diag([1.0, 0.0]).astype(complex)
    val = coincidence_index(qubit_geam, proj, 3)
    assert abs(val - 2 / 9) < 1e-12
    # cross-check against the closed-form bound at full range
    assert abs(val - coincidence_bound(qubit_geam, proj, 3)) < 1e-12


def test_coincidence_range_check(qubit_geam):
    with pytest.raises(ValidationError):
        coincidence_index(qubit_geam, np.eye(2) / 2, 0)
    with pytest.raises(ValidationError):
        coincidence_index(qubit_geam, np.eye(2) / 2, 4)


def test_purity_relation(all_fixture_geams):
    rng = np.random.default_rng(2024)
    for name, geam in all_fixture_geams.items():
        n = geam.n_groups
        s = geam.derived.s
        mu_n = geam.derived.mu(n)
        for i in range(200):
            rho = random_density_matrix(geam.d, rng, rank=1 if i % 2 else None)
            lhs = coincidence_index(geam, rho, n)
            rhs = s * (np.trace(rho @ rho).real - 1 / geam.d) + mu_n
            assert abs(lhs - rhs) < 1e-9, name


def test_partial_sum_bound_and_equality(all_fixture_geams):
    rng = np.random.default_rng(7)
    for name, geam in all_fixture_geams.items():
        n = geam.n_groups
        for _ in range(200):
            x = random_trace_one_operator(geam.d, rng)
            for l in range(1, n + 1):
                slack = coincidence_bound(geam, x, l) - coincidence_index(geam, x, l)
                assert slack >= -1e-9, f"{name} l={l}"
                if l == n:
                    assert abs(slack) < 1e-10, f"{name} equality at full range"


def test_partial_sum_strict_for_small_l(qubit_geam):
    rng = np.random.default_rng(11)
    strict = 0
    for _ in range(100):
        x = random_trace_one_operator(2, rng)
        gap = coincidence_bound(qubit_geam, x, 1) - coincidence_index(qubit_geam, x, 1)
        assert gap >= -1e-9
        if gap > 1e-6:
            strict += 1
    assert strict == 100  # generic operators never saturate the partial bound


def test_stacked_coincidence_matches_per_item_calls(all_fixture_geams):
    rng = np.random.default_rng(5)
    for name, geam in all_fixture_geams.items():
        xs = np.array([random_trace_one_operator(geam.d, rng) for _ in range(6)])
        for l in range(1, geam.n_groups + 1):
            for f in (coincidence_index, coincidence_bound):
                stacked = f(geam, xs.reshape(2, 3, geam.d, geam.d), l)
                assert stacked.shape == (2, 3)
                single = [f(geam, x, l) for x in xs]
                assert_close(stacked.reshape(-1), single, 1e-15, f"{name} {f.__name__} l={l}")


def _coincidence_cases(all_fixture_geams):
    p = qutrit_mub().params
    conjugated = build_geam(make_basis(3, p.m, unitary_seed=3), p)
    return {**all_fixture_geams, "qutrit_mub_conjugated": conjugated}


def test_coincidence_section_exact_on_fixtures(all_fixture_geams):
    for name, geam in _coincidence_cases(all_fixture_geams).items():
        sec = analyze_geam(geam)["coincidence"]
        assert set(sec) == {"margins", "full_range_residual", "passed"}, name
        assert len(sec["margins"]) == geam.n_groups, name
        assert min(sec["margins"]) >= -1e-12, name
        assert sec["full_range_residual"] <= 1e-12, name
        assert sec["passed"] is True, name


def test_coincidence_section_fails_on_broken_frame():
    geam = qutrit_mub()
    ops = [grp.copy() for grp in geam.ops]
    ops[0][0] += 1e-6 * np.diag([1.0, -1.0, 0.0])  # traceless: only the frame breaks
    broken = Geam(params=geam.params, ops=tuple(ops), basis_meta=geam.basis_meta)
    sec = analyze_geam(broken)["coincidence"]
    assert min(sec["margins"]) < -1e-9
    assert sec["passed"] is False


def test_full_range_residual_is_the_design_residual(all_fixture_geams):
    for name, geam in _coincidence_cases(all_fixture_geams).items():
        sec = analyze_geam(geam)["coincidence"]
        design = conical_design_check(geam).residual
        assert abs(sec["full_range_residual"] - design) <= 1e-15, name


def test_analyze_draws_no_random_numbers(qubit_geam, monkeypatch):
    expected = analyze_geam(qubit_geam)

    def refuse(*args, **kwargs):
        raise AssertionError("analyze_geam drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert analyze_geam(qubit_geam) == expected


def test_coincidence_margins_bound_sampled_slack(all_fixture_geams):
    """Bound minus index is x_t^dag (D_l - F_l) x_t for the traceless part x_t
    of a unit-trace X, so it is at least margin_l (||X||^2 - 1/d)."""
    rng = np.random.default_rng(31)
    for name, geam in _coincidence_cases(all_fixture_geams).items():
        margins = analyze_geam(geam)["coincidence"]["margins"]
        x = np.array([random_trace_one_operator(geam.d, rng) for _ in range(200)])
        traceless_norm = np.sum(np.abs(x) ** 2, axis=(1, 2)) - 1 / geam.d
        for l, margin in enumerate(margins, start=1):
            slack = coincidence_bound(geam, x, l) - coincidence_index(geam, x, l)
            assert (slack >= margin * traceless_norm - 1e-12).all(), f"{name} l={l}"


# --------------------------------------------- frame-expansion brute force

def _frame_expansion_coefficients(geam, frames, x):
    """Solve X = (Tr X / d) I + sum r_[alpha,k] H_[alpha,k] by least squares."""
    d = geam.d
    cols = [h.reshape(-1) for grp in frames for h in grp]
    a = np.array(cols).T
    rhs = (x - np.trace(x) / d * np.eye(d)).reshape(-1)
    r, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    rebuilt = (a @ r).reshape(d, d) + np.trace(x) / d * np.eye(d)
    assert np.abs(rebuilt - x).max() < 1e-10
    out = []
    i = 0
    for m in geam.params.m:
        out.append(r[i:i + m])
        i += m
    return out


@pytest.mark.parametrize("fixture_name", ["qubit_mub", "qutrit_mub",
                                          "qutrit_single_frame"])
def test_frame_expansion_oracle_matches_direct_sums(fixture_name, all_fixture_geams):
    """Independent route to the per-group coincidence sums.

    Expand X in the overcomplete frame, then evaluate each group's sum of
    |Tr(P X)|^2 from the expansion coefficients alone:
    M a^2 |t|^2 / d^2 + tau^2 (sqrt(M)+1)^4 M (M sum|r|^2 - |r_group|^2).
    The quantity is gauge invariant under the one-dimensional null space
    of the expansion, so least-squares coefficients are as good as any.
    """
    geam = all_fixture_geams[fixture_name]
    basis = make_basis(geam.d, geam.params.m,
                       unitary_seed=geam.basis_meta.get("unitary_seed"))
    frames = frame_operators(basis)
    rng = np.random.default_rng(99)
    der = geam.derived
    for _ in range(10):
        x = random_operator(geam.d, rng)
        t = np.trace(x)
        rs = _frame_expansion_coefficients(geam, frames, x)
        for al, m in enumerate(geam.params.m):
            r = rs[al]
            direct = float(np.sum(np.abs(
                np.einsum("kij,ji->k", geam.ops[al], x)) ** 2))
            tau2 = der.tau[al] ** 2
            scale = (np.sqrt(m) + 1) ** 4
            oracle = (m * der.a[al] ** 2 * abs(t) ** 2 / geam.d ** 2
                      + tau2 * scale * m * (m * np.sum(np.abs(r) ** 2)
                                            - abs(np.sum(r)) ** 2))
            assert abs(direct - oracle) < 1e-9


def test_hs_norm_from_frame_expansion(qutrit_geam):
    """Tr(X^dag X) recovered from the expansion coefficients."""
    basis = make_basis(3, qutrit_geam.params.m)
    frames = frame_operators(basis)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_operator(3, rng)
        t = np.trace(x)
        rs = _frame_expansion_coefficients(qutrit_geam, frames, x)
        total = abs(t) ** 2 / 3
        for al, m in enumerate(qutrit_geam.params.m):
            r = rs[al]
            total += (np.sqrt(m) + 1) ** 2 * (m * np.sum(np.abs(r) ** 2)
                                              - abs(np.sum(r)) ** 2)
        assert abs(total - np.trace(x.conj().T @ x).real) < 1e-9


# ------------------------------------------------------------- serialization

def test_geam_round_trip_bit_exact(tmp_path, qutrit_geam):
    path = tmp_path / "geam.json"
    save_geam(qutrit_geam, path)
    loaded = load_geam(path)
    for a, b in zip(qutrit_geam.ops, loaded.ops):
        assert np.array_equal(a, b)  # bit-exact, not merely close
    assert loaded.params == qutrit_geam.params
    assert validate_geam(loaded).passed


def test_geam_round_trip_conjugated_basis(tmp_path):
    geam = build_geam(
        make_basis(2, (2, 2, 2), unitary_seed=8),
        GeamParams(d=2, m=(2, 2, 2), gamma=(1 / 3,) * 3, b=(0.9,) * 3,
                   tau_sign=(1, 1, 1)),
    )
    path = tmp_path / "geam.json"
    save_geam(geam, path)
    loaded = load_geam(path)
    assert loaded.basis_meta["unitary_seed"] == 8
    for a, b in zip(geam.ops, loaded.ops):
        assert np.array_equal(a, b)
