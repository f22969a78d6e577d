"""Numerical certification of k-positivity through the Choi matrix.

A map is k-positive exactly when its Choi matrix has a nonnegative
expectation value on every pure state of Schmidt rank at most k. Below
k = d the minimizer is a two-sided see-saw: with a k-dimensional support
fixed on one side, the best state is the lowest eigenvector of a (kd) x
(kd) compression of the witness, and the supports alternate between the
two sides until the value stops falling. At k = d the minimum is the
lowest eigenvalue. Restarts are independent and the verdict is
intentionally labelled "numerically certified", never proved; the report
brackets the true minimum between lambda_min(W) and the value found.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import haar_unitary, random_rank_k_coefficients
from .maps import Superoperator, as_witness

CERTIFY_TOL = 1e-8
REEVAL_TOL = 1e-10
# see-saw stopping rule: a restart (and the whole run, for the best value)
# stops after STALL_STEPS half-steps in a row that each gain <= STALL_TOL
STALL_TOL = 1e-13
STALL_STEPS = 3
NEAR_BEST_TOL = 1e-9

VERDICT_CERTIFIED = "certified-k-positive-numerically"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SchmidtStateSample:
    """Coefficient matrix of a bipartite pure state sum C_mn |m>|n>."""

    c: np.ndarray

    @property
    def vector(self) -> np.ndarray:
        return self.c.reshape(-1)

    def schmidt_coefficients(self) -> np.ndarray:
        return np.linalg.svd(self.c, compute_uv=False)

    def schmidt_rank(self, tol: float = 1e-12) -> int:
        return int(np.sum(self.schmidt_coefficients() > tol))


class ConvergenceSummary(NamedTuple):
    """How the minimizer stopped.

    method is "see-saw" for k < d and "eigh" for the exact k = d path,
    which runs no half-steps. restarts_near_best counts the restarts that
    ended within NEAR_BEST_TOL of the best value, and last_improvement is
    how much the best value fell on the final half-step.
    """

    method: str
    half_steps: int
    restarts_near_best: int
    last_improvement: float


@dataclass(frozen=True)
class CertificationReport:
    """Verdict plus the bracket lower_bound <= true minimum <= upper_bound.

    lower_bound is lambda_min(W), valid at every k; upper_bound is
    min_value, reached by the rank-k state argmin. At k = d both are the
    eigensolver minimum, so the gap is exactly 0. samples is the budget
    restarts x iters, not the work done: the see-saw usually stops far
    earlier (see convergence).
    """

    verdict: str
    min_value: float
    argmin: SchmidtStateSample
    k: int
    samples: int
    restarts: int
    iters: int
    seed: int
    tolerance: float
    lower_bound: float
    convergence: ConvergenceSummary

    @property
    def upper_bound(self) -> float:
        return self.min_value


def _matrix_and_d(witness, k: int) -> tuple[np.ndarray, int]:
    """The checked witness matrix and its d, for a rank 1 <= k <= d."""
    witness = as_witness(witness)
    if not 1 <= k <= witness.d:
        raise ValidationError(f"need 1 <= k <= d, got k={k}, d={witness.d}")
    return witness.w, witness.d


def _starts(d: int, k: int, restarts: int, seed: int) -> np.ndarray:
    """Rank-k starting coefficient matrices, one PRNG stream per restart."""
    init = np.empty((restarts, d, d), dtype=complex)
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        init[r] = random_rank_k_coefficients(d, k, rng)
    return init


def _lift(basis: np.ndarray, d: int, side: int) -> np.ndarray:
    """Batched isometries kron(V, I) (side 0) or kron(I, V) (side 1).

    basis holds d x k matrices V with orthonormal columns. The range of
    kron(V, I) is every state whose coefficient matrix has its column
    space in span(V); that of kron(I, V), every state whose row space
    (rows taken as they are, not conjugated) lies in span(V).
    """
    a, _, k = basis.shape
    eye = np.eye(d)
    if side == 0:
        iso = basis[:, :, None, :, None] * eye[None, None, :, None, :]
    else:
        iso = eye[None, :, None, :, None] * basis[:, None, :, None, :]
    return iso.reshape(a, d * d, k * d)


def _seesaw(w: np.ndarray, d: int, k: int, c0: np.ndarray, max_half_steps: int):
    """Alternating minimization over Schmidt-rank-k states, batched over restarts.

    Each half-step fixes a k-dimensional support V on one side and takes
    the lowest eigenpair of the compression kron(V, I)^dag W kron(V, I)
    (or kron(I, V) on the other side); the new k x d (or d x k)
    coefficient block gives the other side's support by QR. The current
    state lies in every compression's range, so each restart's value never
    rises. A restart leaves the batch after STALL_STEPS half-steps in a
    row that each gain at most STALL_TOL; the run ends when the best value
    stalls the same way, when no restart is left, or after max_half_steps.

    Returns (values, states, history, half_steps, last_improvement):
    final values and unit state vectors per restart, and the per-restart
    values after each half-step (row 0 holds the starting values).
    """
    restarts = c0.shape[0]
    states = c0.reshape(restarts, d * d).copy()
    values = np.einsum("rx,xy,ry->r", states.conj(), w, states).real
    history = [values.copy()]
    stall = np.zeros(restarts, dtype=int)
    active = np.arange(restarts)
    basis = np.linalg.svd(c0)[0][:, :, :k]
    side = 0
    best = float(values.min())
    best_stall = 0
    last_improvement = 0.0
    half_steps = 0
    while half_steps < max_half_steps and active.size:
        iso = _lift(basis, d, side)
        comp = iso.conj().transpose(0, 2, 1) @ (w @ iso)
        evals, evecs = np.linalg.eigh(comp)
        x = evecs[:, :, 0]
        gain = values[active] - evals[:, 0]
        values[active] = evals[:, 0]
        states[active] = (iso @ x[:, :, None])[:, :, 0]
        stall[active] = np.where(gain <= STALL_TOL, stall[active] + 1, 0)
        history.append(values.copy())
        half_steps += 1

        new_best = float(values.min())
        last_improvement = best - new_best
        best_stall = best_stall + 1 if last_improvement <= STALL_TOL else 0
        best = min(best, new_best)
        if best_stall >= STALL_STEPS:
            break

        keep = stall[active] < STALL_STEPS
        active = active[keep]
        if side == 0:
            block = x[keep].reshape(-1, k, d).transpose(0, 2, 1)
        else:
            block = x[keep].reshape(-1, d, k)
        basis = np.linalg.qr(block)[0]
        side = 1 - side
    return values, states, np.array(history), half_steps, last_improvement


def min_schmidt_k(witness, k: int, restarts: int = 50, iters: int = 500,
                  seed: int = 0, tol: float = CERTIFY_TOL) -> CertificationReport:
    """Minimize <psi| W |psi> over Schmidt-rank-k pure states.

    For k < d a two-sided see-saw (see _seesaw) runs from `restarts`
    rank-k starts, each drawn from a PRNG stream derived from (seed,
    restart index); iters caps the see-saw rounds of two half-steps. At
    k = d the minimum is lambda_min(W), taken from one eigh. samples in
    the report is the budget restarts x iters, not the work done.
    The verdict is violated only when the minimum is below -tol and a
    direct re-evaluation of the quadratic form at the minimizer agrees
    with the tracked value.
    """
    w, d = _matrix_and_d(witness, k)

    if k == d:
        evals, evecs = np.linalg.eigh(w)
        best_value = lower_bound = float(evals[0])
        best_c = evecs[:, 0].reshape(d, d)
        convergence = ConvergenceSummary("eigh", 0, 0, 0.0)
    else:
        init = _starts(d, k, restarts, seed)
        values, states, _, half_steps, last = _seesaw(w, d, k, init, 2 * iters)
        r_min = int(np.argmin(values))
        best_value = float(values[r_min])
        best_c = states[r_min].reshape(d, d)
        lower_bound = float(np.linalg.eigvalsh(w)[0])
        near = int(np.sum(values <= best_value + NEAR_BEST_TOL))
        convergence = ConvergenceSummary("see-saw", half_steps, near, last)

    argmin = SchmidtStateSample(c=best_c)
    recheck = float((argmin.vector.conj() @ w @ argmin.vector).real)
    if best_value >= -tol:
        verdict = VERDICT_CERTIFIED
    elif abs(recheck - best_value) <= REEVAL_TOL:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_INCONCLUSIVE
    min_value = best_value if k == d else recheck
    return CertificationReport(
        verdict=verdict,
        min_value=min_value,
        argmin=argmin,
        k=k,
        samples=restarts * iters,
        restarts=restarts,
        iters=iters,
        seed=seed,
        tolerance=tol,
        # where the rank-k minimum reaches lambda_min(W), rounding can put
        # the eigensolver's value a few ulps above the quadratic form
        lower_bound=min(lower_bound, min_value),
        convergence=convergence,
    )


def brute_force_oracle(witness, k: int, samples: int = 100_000,
                       seed: int = 0) -> float:
    """Pure random search over rank-k states, the independent cross-check.

    Returns the smallest expectation value seen. Intended for d <= 4; used
    in tests to bound the see-saw result from above.
    """
    w, d = _matrix_and_d(witness, k)
    rng = np.random.default_rng(seed)
    best = np.inf
    batch = 20_000
    done = 0
    while done < samples:
        n = min(batch, samples - done)
        a = rng.standard_normal((n, d, k)) + 1j * rng.standard_normal((n, d, k))
        bm = rng.standard_normal((n, k, d)) + 1j * rng.standard_normal((n, k, d))
        c = a @ bm
        v = c.reshape(n, d * d)
        v /= np.linalg.norm(v, axis=1)[:, None]
        vals = np.einsum("nx,xy,ny->n", v.conj(), w, v).real
        best = min(best, float(vals.min()))
        done += n
    return best


@dataclass(frozen=True)
class MehtaReport:
    """Largest purity ratio Tr(A^2)/(Tr A)^2 of extended-map outputs.

    A Hermitian operator with positive trace on an n-dimensional space
    is PSD when its ratio is at most 1/(n - 1) (Mehta's criterion). The
    output of the extended map on a Schmidt-rank-k projector lives on a
    kd-dimensional subspace, so the threshold for rank k is 1/(kd - 1):
    1/(d - 1) at k = 1 and 1/(d^2 - 1) at k = d.
    """

    max_ratio: float | None
    samples: int
    used: int
    skipped: int
    seed: int


def mehta_ratio(phi: Superoperator, k: int, samples: int = 500,
                seed: int = 0) -> MehtaReport:
    """Sample the purity ratio of (id (x) map) on random rank-k projectors.

    Projectors are built from the canonical Schmidt-rank-k maximally
    entangled vector rotated by independent Haar unitaries on the two
    factors. Samples whose output trace is numerically zero are skipped
    and counted. A maximum of at most 1/(kd - 1) is the Mehta certificate
    that every sampled output is PSD (see MehtaReport).
    """
    d = phi.d
    if not 1 <= k <= d:
        raise ValidationError(f"need 1 <= k <= d, got k={k}, d={d}")
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
        p = np.outer(psi, psi.conj())
        out = phi.apply_extended(p)
        tr = np.trace(out).real
        scale = np.linalg.norm(out)
        if abs(tr) < 1e-12 * (1.0 + scale):
            skipped += 1
            continue
        ratio = float(np.trace(out @ out).real / tr ** 2)
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
    return MehtaReport(max_ratio=max_ratio, samples=samples,
                       used=samples - skipped, skipped=skipped, seed=seed)
