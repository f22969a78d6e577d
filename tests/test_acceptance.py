"""Acceptance checklist for the package, one numbered check per test.

Every check prints a single PASS/FAIL line (run with `pytest -s` to see
the lines for passing checks too); a failing check lists the offending
grid points. Checks 05 and 06 test the k-positivity the depolarizing
weight is built to give: the Choi matrix is PSD at k = d, no rank-k
violation is found anywhere on the grid, and the sampled purity ratio of
extended-map outputs stays within Mehta's threshold 1/(kd - 1) for the
kd-dimensional output space of a Schmidt-rank-k projector.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from geamkit import (brute_force_oracle, build_witness, choi_witness,
                     coincidence_bound, coincidence_index, conical_design_check,
                     flip_operator, frame_witness, gell_mann_basis, mehta_ratio,
                     min_schmidt_k, phi_k, random_schmidt_mixture, rotation_set,
                     validate_geam)
from geamkit.basis import frame_operators, gell_mann_hermitian_basis
from geamkit.certify import VERDICT_VIOLATED
from geamkit.cli import main as cli_main
from geamkit.linalg import min_eigenvalue, random_hermitian, \
    random_trace_one_operator

ROTATION_SEEDS = range(5)


def _report(num: str, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] ACCEPTANCE {num}: {description}")
    for line in failures[:12]:
        print(f"         - {line}")
    if len(failures) > 12:
        print(f"         - ... and {len(failures) - 12} more")
    assert not failures, f"{len(failures)} failing point(s); first: {failures[0]}"


@pytest.fixture(scope="module")
def mub_fixtures(qubit_geam, qutrit_geam):
    return {"qubit_mub": qubit_geam, "qutrit_mub": qutrit_geam}


@dataclass(frozen=True)
class GridRow:
    fixture: str
    d: int
    k: int
    kk: int
    seed: int
    verdict: str
    min_value: float
    choi_min: float | None
    witness: object


@pytest.fixture(scope="module")
def positivity_grid(mub_fixtures):
    """min_schmidt_k over every fixture, k = 1..d, L = 1, K = 1..N, and five
    seeded rotation sets; Choi spectra recorded at k = d."""
    rows = []
    for name, geam in mub_fixtures.items():
        d, n = geam.d, geam.n_groups
        for seed in ROTATION_SEEDS:
            rots = rotation_set(geam, seed)
            for kk in range(1, n + 1):
                for k in range(1, d + 1):
                    w = build_witness(geam, rots, k, 1, kk)
                    rep = min_schmidt_k(w, k, seed=seed)
                    choi_min = min_eigenvalue(w.w) if k == d else None
                    rows.append(GridRow(name, d, k, kk, seed, rep.verdict,
                                        rep.min_value, choi_min, w))
    return rows


def test_c01_definition_conformance(mub_fixtures):
    failures = []
    for name, geam in mub_fixtures.items():
        report = validate_geam(geam)
        if not report.passed or report.max_deviation >= 1e-9:
            failures.append(f"{name}: max deviation {report.max_deviation:.3e}")
    _report("01", "trace conditions, tight-frame and count checks < 1e-9 "
                  "on both fixtures", failures)


def test_c02_conical_design(mub_fixtures):
    failures = []
    for name, geam in mub_fixtures.items():
        res = conical_design_check(geam)
        if res.residual >= 1e-9:
            failures.append(f"{name}: residual {res.residual:.3e}")
        if name == "qubit_mub":
            for label, got in (("kappa_plus", res.kappa_plus),
                               ("kappa_minus", res.kappa_minus)):
                if abs(got - 1 / 9) >= 1e-12:
                    failures.append(f"{name}: {label} = {got!r}, want 1/9")
    _report("02", "2-design residual < 1e-9; qubit kappas equal 1/9", failures)


def test_c03_coincidence_bound(mub_fixtures):
    rng = np.random.default_rng(314159)
    failures = []
    for name, geam in mub_fixtures.items():
        n = geam.n_groups
        for i in range(200):
            x = random_trace_one_operator(geam.d, rng)
            for l in range(1, n + 1):
                slack = coincidence_bound(geam, x, l) - coincidence_index(geam, x, l)
                if slack < -1e-9:
                    failures.append(f"{name}: sample {i} l={l} slack {slack:.3e}")
                if l == n and abs(slack) >= 1e-10:
                    failures.append(f"{name}: sample {i} full-range gap {slack:.3e}")
    _report("03", "partial coincidence bound holds for 200 operators, equality "
                  "at full range", failures)


def test_c04_frame_identities_and_reconstruction(all_fixture_geams):
    rng = np.random.default_rng(2718)
    failures = []
    for name, geam in all_fixture_geams.items():
        basis = gell_mann_hermitian_basis(geam.d, geam.params.m)
        frames = frame_operators(basis)
        for al, h in enumerate(frames):
            m = geam.params.m[al]
            scale = (np.sqrt(m) + 1) ** 2
            overlaps = np.einsum("kij,lji->kl", h, h).real
            expected = scale * (m * np.eye(m) - np.ones((m, m)))
            dev = np.abs(overlaps - expected).max()
            if dev >= 1e-9:
                failures.append(f"{name} group {al}: trace identity dev {dev:.3e}")
            if np.abs(h.sum(axis=0)).max() >= 1e-10:
                failures.append(f"{name} group {al}: frame does not sum to zero")
        for al, be in itertools.combinations(range(len(frames)), 2):
            cross = np.einsum("kij,lji->kl", frames[al], frames[be]).real
            if np.abs(cross).max() >= 1e-9:
                failures.append(f"{name}: cross-group overlap {al},{be}")
        g0 = np.eye(geam.d, dtype=complex) / np.sqrt(geam.d)
        flat = gell_mann_basis(geam.d)
        for i in range(5):
            x = random_hermitian(geam.d, rng)
            rebuilt = np.trace(x @ g0) * g0 + sum(np.trace(x @ g) * g for g in flat)
            if np.abs(rebuilt - x).max() >= 1e-10:
                failures.append(f"{name}: reconstruction sample {i}")
    _report("04", "frame trace identities < 1e-9 and basis reconstruction "
                  "< 1e-10 on every fixture", failures)


def test_c05_complete_positivity_corner(positivity_grid):
    failures = []
    for row in positivity_grid:
        if row.k == row.d and row.choi_min is not None and row.choi_min < -1e-9:
            failures.append(
                f"{row.fixture} k={row.k} L=1 K={row.kk} rotation seed "
                f"{row.seed}: Choi min eigenvalue {row.choi_min:+.6f}"
            )
    _report("05", "Choi matrix PSD at k = d over 5 rotation seeds and "
                  "K = 1..N (L = 1)", failures)


def test_c06_k_positivity_and_purity_ratio(mub_fixtures, positivity_grid):
    failures = []
    for row in positivity_grid:
        if row.verdict == VERDICT_VIOLATED or row.min_value < -1e-7:
            failures.append(
                f"{row.fixture} k={row.k} L=1 K={row.kk} rotation seed "
                f"{row.seed}: verdict {row.verdict}, min {row.min_value:+.6f}"
            )
    for name, geam in mub_fixtures.items():
        d, n = geam.d, geam.n_groups
        rots = rotation_set(geam, 0)
        for kk in range(1, n + 1):
            for k in range(1, d + 1):
                threshold = 1 / (k * d - 1)
                phi = phi_k(geam, rots, k, 1, kk)
                rep = mehta_ratio(phi, k, samples=500, seed=7)
                if rep.max_ratio > threshold + 1e-9:
                    failures.append(
                        f"{name} k={k} L=1 K={kk}: max purity ratio "
                        f"{rep.max_ratio:.6f} > 1/(kd-1) = {threshold:.6f}"
                    )
    _report("06", "no rank-k violation on the grid; purity ratio within the "
                  "rank-k threshold 1/(kd-1)", failures)


def test_c07_dual_route_witness_equality(mub_fixtures):
    failures = []
    for name, geam in mub_fixtures.items():
        d, n = geam.d, geam.n_groups
        for seed in range(20):
            rots = rotation_set(geam, 100 + seed)
            for k, kk in [(1, n), (d, n), (d, 1)]:
                phi = phi_k(geam, rots, k, 1, kk)
                gap = np.abs(choi_witness(phi).w
                             - frame_witness(geam, rots, k, 1, kk)).max()
                if gap >= 1e-10:
                    failures.append(f"{name} seed {seed} k={k} K={kk}: gap {gap:.3e}")
    _report("07", "Choi-route and frame-route witnesses agree entrywise "
                  "< 1e-10 for 20 rotation sets per fixture", failures)


def test_c08_verifier_soundness(mub_fixtures):
    failures = []
    for name, geam in mub_fixtures.items():
        rots = rotation_set(geam, 1)
        w = build_witness(geam, rots, geam.d, 1, geam.n_groups).w
        rep = min_schmidt_k(w, geam.d, seed=3)
        gap = abs(rep.min_value - min_eigenvalue(w))
        if gap >= 1e-7:
            failures.append(f"{name}: k=d eigensolver gap {gap:.3e}")
    flip = flip_operator(2)
    r1 = min_schmidt_k(flip, 1, seed=0)
    r2 = min_schmidt_k(flip, 2, seed=0)
    if r1.min_value < -1e-8:
        failures.append(f"flip k=1 minimum {r1.min_value:.3e} < 0")
    if not (r2.verdict == VERDICT_VIOLATED and r2.min_value < -0.5):
        failures.append(f"flip k=2 not violated: {r2.verdict} {r2.min_value:.3e}")
    if brute_force_oracle(flip, 1, samples=100_000, seed=1) < 0:
        failures.append("oracle found negativity of the flip on product states")
    if brute_force_oracle(flip, 2, samples=100_000, seed=1) >= 0:
        failures.append("oracle missed the flip negativity at rank 2")
    _report("08", "k=d minimum matches the eigensolver within 1e-7; flip "
                  "operator split between k=1 and k=2, oracle-confirmed", failures)


def test_c09_detection_soundness(positivity_grid):
    rng = np.random.default_rng(60221023)
    batches = {}
    failures = []
    certified = [r for r in positivity_grid if r.verdict != VERDICT_VIOLATED]
    for row in certified:
        key = (row.d, row.k)
        if key not in batches:
            batches[key] = np.array([
                random_schmidt_mixture(row.d, row.k, rng) for _ in range(500)
            ])
        vals = np.einsum("xy,nyx->n", row.witness.w, batches[key]).real
        worst = float(vals.min())
        if worst < -1e-7:
            failures.append(
                f"{row.fixture} k={row.k} K={row.kk} seed {row.seed}: "
                f"certified witness scored {worst:.3e} on a rank-{row.k} mixture"
            )
    assert certified, "no certified witnesses on the grid"
    _report("09", f"500 Schmidt-rank-bounded mixtures nonnegative on each of "
                  f"the {len(certified)} certified witnesses", failures)


def test_c10_cli_determinism(tmp_path):
    failures = []
    outputs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        g, w, c, det, an = (base / n for n in
                            ("g.json", "w.json", "cert.json", "det.csv", "an.json"))
        steps = [
            ["build-geam", "--d", "2", "--layout", "mub", "--b", "1",
             "--out", str(g), "--no-timestamp"],
            ["analyze", "--geam", str(g), "--seed", "11", "--samples", "25",
             "--out", str(an), "--no-timestamp"],
            ["witness", "--geam", str(g), "--k", "1", "--l", "1", "--kk", "3",
             "--rotation-seed", "5", "--out", str(w), "--no-timestamp"],
            ["certify", "--witness", str(w), "--seed", "2", "--restarts", "10",
             "--iters", "100", "--mehta-samples", "20", "--out", str(c),
             "--no-timestamp"],
            ["detect", "--witness", str(w), "--steps", "21", "--seed", "0",
             "--out", str(det)],
        ]
        for argv in steps:
            code = cli_main(argv)
            if code != 0:
                failures.append(f"{tag}: {' '.join(argv[:1])} exited {code}")
        outputs[tag] = [p.read_bytes() for p in (g, an, w, c, det)]
    if outputs["first"] != outputs["second"]:
        failures.append("artifacts differ between identical runs")
    _report("10", "repeated CLI runs with fixed seeds produce byte-identical "
                  "artifacts", failures)
