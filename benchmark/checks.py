"""Output checks computed apart from geamkit.

Nothing here imports geamkit. Every reference value is recomputed with
numpy from the layout parameters (d, M, gamma, b) or from the matrices
under test, and every tolerance is the one the acceptance suite uses.
Each check raises CheckError naming the first property that fails.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

CERTIFIED = "certified-k-positive-numerically"


class CheckError(Exception):
    """An output of the program failed an independent check."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Reference:
    """Layout parameters and the quantities the paper derives from them."""

    d: int
    m: tuple
    gamma: tuple
    b: tuple

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def a(self) -> np.ndarray:
        return self.d * np.array(self.gamma) / np.array(self.m)

    @property
    def c(self) -> np.ndarray:
        m, b = np.array(self.m, float), np.array(self.b)
        return (m - self.d * b) / (self.d * (m - 1))

    @property
    def s(self) -> float:
        s = self.a ** 2 * (np.array(self.b) - self.c)
        require(np.ptp(s) <= 1e-12, f"layout is not equidistant: S per group {s}")
        return float(s[0])

    def mu(self, l: int) -> float:
        return float(np.sum(self.a[:l] * np.array(self.gamma[:l])) / self.d)

    def a_k(self, k: int, l: int, kk: int) -> float:
        """Depolarizing weight -d (mu_K - 2 mu_L) + (k d - 1) S."""
        return -self.d * (self.mu(kk) - 2 * self.mu(l)) + (k * self.d - 1) * self.s


def mub_reference(d: int, b: float) -> Reference:
    n = d + 1
    return Reference(d=d, m=(d,) * n, gamma=(1.0 / n,) * n, b=(b,) * n)


# ---------------------------------------------------------------- reference math

def flip(d: int) -> np.ndarray:
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def isotropic(d: int, p: float) -> np.ndarray:
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    return p * np.outer(phi, phi) + (1 - p) * np.eye(d * d) / (d * d)


def fidelity(d: int, p: float) -> float:
    """Overlap of the isotropic state with the maximally entangled state."""
    return p + (1 - p) / (d * d)


def random_states(d: int, count: int, rng) -> np.ndarray:
    """Density matrices: even indices full rank, odd indices pure."""
    out = np.empty((count, d, d), dtype=complex)
    for i in range(count):
        r = 1 if i % 2 else d
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        rho = g @ g.conj().T
        out[i] = rho / np.trace(rho).real
    return out


def rank_k_pool(d: int, k: int, count: int, rng) -> np.ndarray:
    """Unit vectors of Schmidt rank <= k: vec(A B) with A d x k and B k x d."""
    a = rng.standard_normal((count, d, k)) + 1j * rng.standard_normal((count, d, k))
    b = rng.standard_normal((count, k, d)) + 1j * rng.standard_normal((count, k, d))
    v = (a @ b).reshape(count, d * d)
    return v / np.linalg.norm(v, axis=1)[:, None]


def draw_rotation(m: int, rng) -> np.ndarray:
    """Haar orthogonal matrix on the complement of (1,..,1), identity on it."""
    ones = np.ones((m, 1)) / np.sqrt(m)
    q, _ = np.linalg.qr(np.hstack([ones, rng.standard_normal((m, m - 1))]))
    comp = q[:, 1:]
    z, r = np.linalg.qr(rng.standard_normal((m - 1, m - 1)))
    z = z * np.sign(np.diag(r))
    return np.full((m, m), 1.0 / m) + comp @ z @ comp.T


def defined_witness(ref: Reference, groups, rotations, k: int, l: int, kk: int):
    """(a_k/d) I (x) I + sum_{L<alpha<=K} J_alpha - sum_{alpha<=L} J_alpha,
    with J_alpha = sum_{k,l} O_kl conj(P_l) (x) P_k."""
    d = ref.d
    w = ref.a_k(k, l, kk) / d * np.eye(d * d, dtype=complex)
    for alpha in range(kk):
        grp, o = groups[alpha], np.asarray(rotations[alpha])
        j = sum(np.kron(sum(o[i, jj] * grp[jj].conj() for jj in range(len(grp))), grp[i])
                for i in range(len(grp)))
        w = w - j if alpha < l else w + j
    return w


# ---------------------------------------------------------------- artifact reading

def pairs_to_array(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def geam_from_document(doc: dict):
    """Reference parameters and per-group operator stacks of a GEAM document."""
    ref = Reference(d=int(doc["d"]), m=tuple(doc["m"]), gamma=tuple(doc["gamma"]),
                    b=tuple(doc["b"]))
    flat = pairs_to_array(doc["operators"])
    groups, i = [], 0
    for m in ref.m:
        groups.append(flat[i:i + m])
        i += m
    require(i == len(flat), f"{len(flat)} operators for layout {ref.m}")
    return ref, groups


def read_detection_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"p": float(r["parameter"]), "expectation": float(r["expectation"]),
             "detected": r["detected"] == "1", "k": int(r["k"]), "l": int(r["L"]),
             "kk": int(r["K"])} for r in rows]


# ---------------------------------------------------------------- checks

def check_geam(ref: Reference, groups):
    d, a, c = ref.d, ref.a, ref.c
    count = sum(len(g) for g in groups)
    require(count == d * d + ref.n - 1, f"{count} operators, want d^2 + N - 1")
    for al, grp in enumerate(groups):
        tr = np.einsum("kii->k", grp).real
        require(np.abs(tr - a[al]).max() <= 1e-9, f"group {al}: Tr P != a")
        dev = np.abs(grp.sum(axis=0) - ref.gamma[al] * np.eye(d)).max()
        require(dev <= 1e-10, f"group {al}: sum P - gamma I = {dev:.3e}")
    flat = np.concatenate(groups)
    gram = np.einsum("kij,lji->kl", flat, flat).real
    target = np.empty_like(gram)
    owner = np.repeat(np.arange(ref.n), ref.m)
    for i in range(len(flat)):
        for j in range(len(flat)):
            ai, aj = owner[i], owner[j]
            if i == j:
                target[i, j] = ref.b[ai] * a[ai] ** 2
            elif ai == aj:
                target[i, j] = c[ai] * a[ai] ** 2
            else:
                target[i, j] = a[ai] * a[aj] / d
    dev = np.abs(gram - target).max()
    require(dev <= 1e-9, f"Tr P P' conditions off by {dev:.3e}")
    lam = np.linalg.eigvalsh(flat)[:, 0].min()
    require(lam >= -1e-10, f"operator not PSD: lambda_min {lam:.3e}")


def check_analysis(doc: dict, ref: Reference, groups, states):
    d, s, mu_n = ref.d, ref.s, ref.mu(ref.n)
    require(doc["validation"]["passed"], "analysis reports a failed validation")
    eq = doc["equidistance"]
    require(eq["equidistant"], "analysis reports a non-equidistant GEAM")
    require(abs(eq["s"] - s) <= 1e-12, f"S = {eq['s']!r}, want a^2 (b - c) = {s!r}")
    design = doc["conical_design"]
    require(abs(design["kappa_minus"] - s) <= 1e-12, "kappa_- != S")
    require(abs(design["kappa_plus"] - (mu_n - s / d)) <= 1e-12, "kappa_+ != mu_N - S/d")
    require(doc["coincidence"]["passed"], "analysis reports a failed coincidence check")
    flat = np.concatenate(groups)
    total = sum(np.kron(p, p) for p in flat)
    dev = np.abs(total - (mu_n - s / d) * np.eye(d * d) - s * flip(d)).max()
    require(dev <= 1e-9, f"sum P (x) P off the conical design by {dev:.3e}")
    for rho in states:
        index = float(np.sum(np.abs(np.einsum("kij,ji->k", flat, rho)) ** 2))
        line = s * (np.trace(rho @ rho).real - 1 / d) + mu_n
        require(abs(index - line) <= 1e-10, f"purity line off by {abs(index - line):.3e}")


def partial_traces(w: np.ndarray, d: int):
    w4 = w.reshape(d, d, d, d)
    return np.einsum("abac->bc", w4), np.einsum("abcb->ac", w4)


def check_witness(w: np.ndarray, ref: Reference, k: int, *, meta=None, definition=None):
    """definition: (groups, rotations, l, kk) for witnesses built in-library."""
    d = ref.d
    require(w.shape == (d * d, d * d), f"witness shape {w.shape}")
    require(np.abs(w - w.conj().T).max() <= 1e-12, "witness is not Hermitian")
    target = np.trace(w) / d * np.eye(d)
    for side, pt in zip("AB", partial_traces(w, d)):
        dev = np.abs(pt - target).max()
        require(dev <= 1e-12, f"Tr_{side} W != (Tr W / d) I by {dev:.3e}")
    if k == d:
        lam = np.linalg.eigvalsh(w)[0]
        require(lam >= -1e-9, f"k = d witness not PSD: lambda_min {lam:.3e}")
    if meta is not None:
        want = ref.a_k(k, meta["l"], meta["kk"])
        require(abs(meta["a_k"] - want) <= 1e-12, f"a_k = {meta['a_k']!r}, want {want!r}")
    if definition is not None:
        groups, rotations, l, kk = definition
        dev = np.abs(w - defined_witness(ref, groups, rotations, k, l, kk)).max()
        require(dev <= 1e-10, f"witness differs from its definition by {dev:.3e}")


def check_certification(w: np.ndarray, k: int, verdict: str, min_value: float,
                        argmin: np.ndarray, pool: np.ndarray):
    """pool: unit vectors of Schmidt rank <= k drawn by the benchmark."""
    d = argmin.shape[0]
    require(verdict == CERTIFIED, f"verdict {verdict!r}")
    require(abs(np.linalg.norm(argmin) - 1) <= 1e-10, "minimiser is not a unit vector")
    sv = np.linalg.svd(argmin, compute_uv=False)
    require(k == d or sv[k] <= 1e-10, f"minimiser has Schmidt rank > {k}")
    lam = float(np.linalg.eigvalsh(w)[0])
    require(min_value >= lam - 1e-9, f"min_value {min_value!r} below lambda_min {lam!r}")
    psi = argmin.reshape(-1)
    value = (psi.conj() @ w @ psi).real
    require(abs(value - min_value) <= 1e-10,
            f"<psi|W|psi> = {value!r} but min_value = {min_value!r}")
    sampled = np.einsum("nx,xy,ny->n", pool.conj(), w, pool).real.min()
    require(min_value <= sampled + 1e-9,
            f"min_value {min_value!r} above a sampled rank-{k} value {sampled!r}")
    if k == d:
        require(min_value - lam <= 1e-7, f"k = d minimum {min_value!r} != lambda_min {lam!r}")


def check_mehta(max_ratio: float, d: int, k: int, samples: int, skipped: int,
                requested: int):
    """The certificate records samples and skipped; the used count is their difference."""
    require(samples == requested and 0 <= skipped <= samples,
            f"Mehta block reports {samples} samples, {skipped} skipped; asked {requested}")
    require(max_ratio is not None and max_ratio <= 1 / (k * d - 1) + 1e-9,
            f"Mehta ratio {max_ratio!r} above 1/(kd - 1)")


def check_detection(w: np.ndarray, d: int, k: int, rows, p_star):
    """rows: dicts with p, expectation, detected (as read from the sweep)."""
    def expectation(p):
        return np.einsum("ij,ji->", w, isotropic(d, p)).real

    for r in rows:
        own = expectation(r["p"])
        require(abs(r["expectation"] - own) <= 1e-10,
                f"expectation at p = {r['p']!r} off by {abs(r['expectation'] - own):.3e}")
        require(not r["detected"] or fidelity(d, r["p"]) > k / d,
                f"detected at p = {r['p']!r} with F <= k/d")
    # The expectation is affine in p. It crosses 0 on [0, 1] only if its ends
    # have opposite signs, each beyond the 1e-10 the sweep treats as zero.
    f0, f1 = expectation(0.0), expectation(1.0)
    crossing = f0 * f1 < 0 and min(abs(f0), abs(f1)) > 1e-10
    if p_star is None:
        require(not crossing, f"no threshold, but Tr(W rho(p)) goes from {f0:.3e} to {f1:.3e}")
        return
    require(crossing, f"threshold p* = {p_star!r}, but Tr(W rho(p)) goes from {f0:.3e} "
                      f"at p = 0 to {f1:.3e} at p = 1: no sign change beyond 1e-10")
    # The expectation is 0 at p*, not negative, so an optimal witness puts
    # p* on F = k/d itself; only F(p*) < k/d contradicts Schmidt number <= k.
    require(fidelity(d, p_star) >= k / d - 1e-12, f"threshold p* = {p_star!r} has F < k/d")
    own = expectation(p_star)
    require(abs(own) <= 1e-10, f"Tr(W rho(p*)) = {own:.3e}, not 0")
