"""Numerical certification of k-positivity through the Choi matrix.

A map is k-positive exactly when its Choi matrix has a nonnegative
expectation value on every pure state of Schmidt rank at most k. Below
k = d the minimizer is a two-sided see-saw: with a k-dimensional support
fixed on one side, the best state is the lowest eigenvector of a (kd) x
(kd) compression of the witness; the supports alternate between the two
sides until the value stops falling. Restarts that gain little per round
also try a Newton support on Gr(k, d), kept only if lower. At k = d the
minimum is the lowest eigenvalue. Restarts are independent and the
verdict is labelled "numerically certified", never proved; the report
brackets the true minimum between lambda_min(W) and the value found.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import as_count, as_rank, haar_unitary, random_rank_k_coefficients
from .maps import Superoperator, as_witness

CERTIFY_TOL = 1e-8
REEVAL_TOL = 1e-10
# see-saw stopping rule: a restart (and the whole run, for the best value)
# stops after STALL_STEPS rounds in a row that each gain <= STALL_TOL
STALL_TOL = 1e-13
STALL_STEPS = 3
NEAR_BEST_TOL = 1e-9
NEWTON_GATE = 1e-6  # largest round gain at which a restart tries a Newton step

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

    def schmidt_rank(self) -> int:
        return int(np.sum(self.schmidt_coefficients() > 1e-12))


class ConvergenceSummary(NamedTuple):
    """How the minimizer stopped.

    method is "see-saw" for k < d and "eigh" for the exact k = d path,
    which runs no half-steps. restarts_near_best counts the restarts that
    ended within NEAR_BEST_TOL of the best value, and last_improvement is
    how much the best value fell in the final see-saw round.
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
    as_rank(k, witness.d)
    return witness.w, witness.d


def _frames(w: np.ndarray, d: int):
    """W as each side reads it, and each of those in the (d^3, d) form that _compress takes.

    Side 1 reads W with its factors swapped: its state X V^T is (V X^T)^T.
    """
    ws = [w, w.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)]
    return ws, [f.reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(-1, d) for f in ws]


def _compress(wr: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Batched compressions kron(V, I)^dag W kron(V, I) for the d x k isometries V in basis.

    wr is as _frames gives it. The eigenvector x is the state V x.reshape(k, d).
    """
    a, d, k = basis.shape
    t = basis.conj().transpose(0, 2, 1) @ (wr @ basis).reshape(a, d, -1)
    return t.reshape(a, k, d, d, k).transpose(0, 1, 2, 4, 3).reshape(a, k * d, k * d)


def _newton(w: np.ndarray, basis: np.ndarray, evals: np.ndarray, evecs: np.ndarray):
    """Newton step on Gr(k, d) for f(V) = lambda_min of the compression of w at V.

    evals, evecs: that compression's eigenpairs; X_j is the j-th eigenvector as a
    k x d matrix. Coordinates: b in R^{2n}, n = k(d-k), and V(b) = qf(V + V_perp B)
    with B = b[:n] + i b[n:] as a (d-k) x k matrix, V_perp from V's complete QR.
    With psi = V X_0, u_p = V_perp E_p X_0 (E_p: B at b = e_p) and c_jp =
    <V X_j, W u_p> + <V_perp E_p X_j, W psi>, the gradient is c_0p = 2 Re u_p^dag
    W psi and the Hessian 2 Re u_p^dag (W - lambda_0) u_q + 2 Re sum_{j>0}
    conj(c_jp) c_jq / (lambda_0 - lambda_j). Returns V(b) at the Newton step for
    the Hessian shifted to be positive definite, the gradients and the Hessians.
    """
    a, d, k = basis.shape
    x = evecs.reshape(a, k, d, -1)
    perp = np.linalg.qr(basis, mode="complete")[0][:, :, k:]
    phi = np.einsum("amp,apnj->ajmn", basis, x).reshape(a, k * d, d * d)
    y = phi[:, 0] @ w.T
    u = np.einsum("s,ami,aqn->asiqmn", [1, 1j], perp, x[..., 0]).reshape(a, -1, d * d)
    wu = u @ w.T
    perp_y = perp.conj().transpose(0, 2, 1) @ y.reshape(a, d, d)
    t = np.einsum("s,aqnj,ain->ajsiq", [1, -1j], x.conj(), perp_y).reshape(a, k * d, -1)
    c = phi.conj() @ wu.transpose(0, 2, 1) + t
    grad = c[:, 0].real
    lam, tiny = evals[:, :1, None], np.finfo(float).tiny
    # an exactly degenerate lambda_0 gets the gap eigh can resolve, not a division by 0
    floor = 1e-14 * np.abs(evals).max(axis=1)[:, None, None] + tiny
    gap = np.maximum(evals[:, 1:, None] - lam, floor)
    hess = 2 * (u.conj() @ (wu - lam * u).transpose(0, 2, 1)
                - (c[:, 1:].conj() / gap).transpose(0, 2, 1) @ c[:, 1:]).real
    mu = np.linalg.eigvalsh(hess)
    shift = np.maximum(-2 * mu[:, 0], 0) + 1e-9 * np.abs(mu).max(axis=1) + tiny
    b = np.linalg.solve(hess + shift[:, None, None] * np.eye(hess.shape[1]), -grad[..., None])
    step = (np.array([1, 1j]) @ b.reshape(a, 2, -1)).reshape(a, d - k, k)
    return np.linalg.qr(basis + perp @ step)[0], grad, hess


def _seesaw(w: np.ndarray, d: int, k: int, c0: np.ndarray, max_half_steps: int):
    """Alternating minimization over Schmidt-rank-k states, batched over restarts.

    Each half-step fixes a k-dimensional support V on one side and takes
    the lowest eigenpair of the compression kron(V, I)^dag W kron(V, I)
    (or kron(I, V) on the other side); the new k x d (or d x k)
    coefficient block gives the other side's support by QR. The current
    state lies in every compression's range, so each restart's value never
    rises. A restart leaves the batch after STALL_STEPS rounds in a row
    that each gain at most STALL_TOL; the run ends when the best value
    stalls the same way, when no restart is left, or after max_half_steps.

    A restart whose last two rounds each gained in (STALL_TOL, NEWTON_GATE], or whose
    last Newton step gained more than STALL_TOL, also tries the Newton support
    (_newton): one more half-step, kept only when strictly lower.

    Returns (values, states, history, half_steps, last_improvement):
    final values and unit state vectors per restart, and the per-restart
    values after each half-step (row 0 holds the starting values).
    """
    restarts = c0.shape[0]
    ws, wrs = _frames(w, d)
    states = c0.reshape(restarts, d * d).copy()
    values = np.einsum("rx,xy,ry->r", states.conj(), w, states).real
    history = [values.copy()]
    stall = np.zeros(restarts, dtype=int)
    last = np.full(restarts, np.inf)  # each restart's gain in its last round
    chain = np.zeros(restarts, dtype=bool)  # its last Newton step gained > STALL_TOL
    active = np.arange(restarts)
    basis = np.linalg.svd(c0)[0][:, :, :k]
    side = 0
    best = float(values.min())
    best_stall = 0
    last_improvement = 0.0
    half_steps = 0
    while half_steps < max_half_steps and active.size:
        before = values[active]
        evals, evecs = np.linalg.eigh(_compress(wrs[side], basis))
        gains = np.stack([before - evals[:, 0], last[active]])
        near = np.flatnonzero(((gains > STALL_TOL) & (gains <= NEWTON_GATE)).all(axis=0)
                              | chain[active])
        newton_gain = np.zeros(active.size)
        if near.size and half_steps + 2 <= max_half_steps:
            values[active] = evals[:, 0]
            history.append(values.copy())
            half_steps += 1
            basis_n = _newton(ws[side], basis[near], evals[near], evecs[near])[0]
            evals_n, evecs_n = np.linalg.eigh(_compress(wrs[side], basis_n))
            newton_gain[near] = evals[near, 0] - evals_n[:, 0]
            take = newton_gain[near] > 0
            near = near[take]
            basis[near], evals[near], evecs[near] = basis_n[take], evals_n[take], evecs_n[take]
        chain[active] = newton_gain > STALL_TOL
        x = evecs[:, :, 0].reshape(-1, k, d)
        values[active] = evals[:, 0]
        c = basis @ x
        states[active] = (c if side == 0 else c.transpose(0, 2, 1)).reshape(-1, d * d)
        last[active] = before - values[active]
        stall[active] = np.where(last[active] <= STALL_TOL, stall[active] + 1, 0)
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
        basis = np.linalg.qr(x[keep].transpose(0, 2, 1))[0]
        side = 1 - side
    return values, states, np.array(history), half_steps, last_improvement


def min_schmidt_k(witness, k: int, restarts: int = 50, iters: int = 500,
                  seed: int = 0) -> CertificationReport:
    """Minimize <psi| W |psi> over Schmidt-rank-k pure states.

    For k < d a two-sided see-saw (see _seesaw) runs from `restarts`
    rank-k starts, drawn as one random_rank_k_coefficients stack from
    default_rng(seed); it stops by 2 x iters half-steps at the latest. At
    k = d the minimum is lambda_min(W), taken from one eigh. samples in
    the report is the budget restarts x iters, not the work done.
    The verdict is violated only when the minimum is below -CERTIFY_TOL
    and a direct re-evaluation of the quadratic form at the minimizer
    agrees with the tracked value.
    """
    w, d = _matrix_and_d(witness, k)
    restarts, iters = as_count(restarts, "restarts"), as_count(iters, "iters")

    if k == d:
        evals, evecs = np.linalg.eigh(w)
        best_value = lower_bound = float(evals[0])
        best_c = evecs[:, 0].reshape(d, d)
        convergence = ConvergenceSummary("eigh", 0, 0, 0.0)
    else:
        init = random_rank_k_coefficients(d, k, np.random.default_rng(seed), restarts)
        values, states, _, half_steps, last = _seesaw(w, d, k, init, 2 * iters)
        r_min = int(np.argmin(values))
        best_value = float(values[r_min])
        best_c = states[r_min].reshape(d, d)
        lower_bound = float(np.linalg.eigvalsh(w)[0])
        near = int(np.sum(values <= best_value + NEAR_BEST_TOL))
        convergence = ConvergenceSummary("see-saw", half_steps, near, last)

    argmin = SchmidtStateSample(c=best_c)
    recheck = float((argmin.vector.conj() @ w @ argmin.vector).real)
    if best_value >= -CERTIFY_TOL:
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
        tolerance=CERTIFY_TOL,
        # where the rank-k minimum reaches lambda_min(W), rounding can put
        # the eigensolver's value a few ulps above the quadratic form
        lower_bound=min(lower_bound, min_value),
        convergence=convergence,
    )


def brute_force_oracle(witness, k: int, samples: int = 100_000,
                       seed: int = 0) -> float:
    """Pure random search over rank-k states, the independent cross-check.

    Returns the smallest expectation value seen on random_rank_k_coefficients
    stacks. Intended for d <= 4; tests bound the see-saw result by it from above.
    """
    w, d = _matrix_and_d(witness, k)
    samples, rng = as_count(samples, "samples"), np.random.default_rng(seed)
    best, batch = np.inf, 20_000
    for done in range(0, samples, batch):
        v = random_rank_k_coefficients(d, k, rng, min(batch, samples - done)).reshape(-1, d * d)
        best = min(best, float(np.einsum("nx,xy,ny->n", v.conj(), w, v).real.min()))
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
    skipped: int
    seed: int


def mehta_ratio(phi: Superoperator, k: int, samples: int = 500,
                seed: int = 0) -> MehtaReport:
    """Sample the purity ratio of (id (x) map) on random rank-k projectors.

    Projectors are built from the canonical Schmidt-rank-k maximally entangled
    vector rotated by independent Haar unitaries (u, v) on the two factors,
    drawn pair by pair and evaluated in stacks. Samples whose output trace is
    numerically zero are skipped and counted. A maximum of at most 1/(kd - 1)
    is the Mehta certificate that every sampled output is PSD (see MehtaReport).
    """
    d, k, samples = phi.d, as_rank(k, phi.d), as_count(samples, "samples")
    rng = np.random.default_rng(seed)
    best = -np.inf
    skipped = 0
    batch = 50
    for done in range(0, samples, batch):
        n = min(batch, samples - done)
        uv = haar_unitary(d, rng, 2 * n)[:, :, :k].reshape(n, 2, d, k)
        psi = np.einsum("nam,nbm->nab", uv[:, 0], uv[:, 1]).reshape(n, d * d) / np.sqrt(k)
        out = phi.apply_extended(psi[:, :, None] * psi[:, None, :].conj())
        tr = np.trace(out, axis1=1, axis2=2).real
        skip = np.abs(tr) < 1e-12 * (1.0 + np.linalg.norm(out, axis=(1, 2)))
        skipped += int(skip.sum())
        out, tr = out[~skip], tr[~skip]
        best = np.max(np.einsum("nij,nji->n", out, out).real / tr ** 2, initial=best)
    return MehtaReport(max_ratio=float(best) if skipped < samples else None,
                       samples=samples, skipped=skipped, seed=seed)
