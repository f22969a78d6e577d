"""Linear maps built from a GEAM and their Choi-matrix witnesses.

Superoperators are stored as dense d^2 x d^2 matrices acting on
row-major vectorized operators: column index (m, n) is the input matrix
unit |m><n|, row index (i, j) the output entry. The map family consists
of the depolarizing map X -> Tr(X) I/d, one frame map per group built
from an orthogonal rotation that fixes the all-ones vector, and signed
combinations of these that are k-positive for a suitable scalar weight
on the depolarizing part.
"""

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geam import Geam, common_s
from .linalg import as_count, as_int, as_rank, as_rng, vec

HERMITICITY_PRESERVING_TOL = 1e-10
ROTATION_TOL = 1e-10
DUAL_ROUTE_TOL = 1e-10
BLOCK_CACHE_SIZE = 64
_block_cache = {}


def _ones_complement(m: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of (1, ..., 1)."""
    cols = [np.ones(m) / np.sqrt(m)]
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        for u in cols:
            v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            cols.append(v / norm)
        if len(cols) == m:
            break
    return np.array(cols).T


def random_rotation(m: int, seed) -> np.ndarray:
    """Random m x m orthogonal matrix fixing the all-ones vector.

    Drawn as exp(A) on the orthogonal complement of (1, ..., 1), with A a
    random antisymmetric matrix, composed half the time with a reflection
    of the first complement direction so both orthogonal components are
    reachable. For m = 2 the only two solutions are the identity and the
    swap, and a seeded draw returns one of them. Deterministic per seed.
    """
    m = as_int(m, "rotation size")
    if m < 2:
        raise ValidationError(f"rotation size must be >= 2, got {m}")
    rng = as_rng(seed)
    q = _ones_complement(m)
    r = m - 1
    a = rng.standard_normal((r, r))
    a = a - a.T
    # iA is Hermitian, so exp(A) = V exp(-i lam) V^dag from one eigensolve
    lam, v = np.linalg.eigh(1j * a)
    block = ((v * np.exp(-1j * lam)) @ v.conj().T).real
    if rng.random() < 0.5:
        block = np.diag([-1.0] + [1.0] * (r - 1)) @ block
    core = np.zeros((m, m))
    core[0, 0] = 1.0
    core[1:, 1:] = block
    return q @ core @ q.T


def check_rotation(o: np.ndarray) -> float:
    """Max deviation from orthogonality and from fixing the ones vector."""
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise ValidationError(f"rotation shape {o.shape} is not square")
    res = (o.T @ o - np.eye(o.shape[0])).ravel(), o.sum(axis=0) - 1, o.sum(axis=1) - 1
    return float(np.abs(np.concatenate(res)).max())


def rotation_set(geam: Geam, seed) -> tuple:
    """One independent random rotation per group, split off a single seed."""
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(geam.n_groups)
    return tuple(random_rotation(m, np.random.default_rng(child))
                 for m, child in zip(geam.params.m, children))


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix of a linear map on d x d operators."""

    matrix: np.ndarray
    d: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (self.matrix @ vec(x)).reshape(self.d, self.d)

    def apply_extended(self, r: np.ndarray) -> np.ndarray:
        """Apply identity (x) map to operators on C^d (x) C^d, over any leading axes."""
        d, lead = self.d, r.shape[:-2]
        blocks = r.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)
        out = blocks @ self.matrix.T
        return out.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(r.shape)


@functools.lru_cache(maxsize=8)
def _depolarizing_matrix(d: int) -> np.ndarray:
    """Read-only matrix of X -> Tr(X) I/d, built once per d."""
    mat = np.outer(vec(np.eye(d) / d), vec(np.eye(d))).astype(complex)
    mat.setflags(write=False)
    return mat


def phi_zero(d: int) -> Superoperator:
    """Completely depolarizing map X -> Tr(X) I/d."""
    d = as_int(d, "dimension")
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    return Superoperator(matrix=_depolarizing_matrix(d).copy(), d=d)


def _group_blocks(geam: Geam, alpha: int, o) -> tuple:
    """Read-only (phi_alpha matrix, J_alpha) of one group and a checked rotation.

    Kept in a least-recently-used cache of BLOCK_CACHE_SIZE entries, keyed
    by the shape and bytes of the group's operators and of the float64
    rotation, so an array edited in place is looked up afresh. A rotation
    that fails the check is never stored, so it raises on every call.
    """
    grp = geam.ops[alpha]
    m = len(grp)
    o = np.ascontiguousarray(o, dtype=float)
    if o.shape != (m, m):
        raise ValidationError(f"rotation shape {o.shape} does not match M = {m}")
    key = (grp.shape, grp.dtype.str, grp.tobytes(), o.tobytes())
    blocks = _block_cache.pop(key, None)
    if blocks is None:
        if not check_rotation(o) <= ROTATION_TOL:
            raise ValidationError("rotation is not orthogonal or does not fix (1,..,1)")
        d = geam.d
        outs = grp.reshape(m, -1)
        ins = grp.conj().reshape(m, -1)
        # the two routes contract the rotation on opposite sides
        phi = np.einsum("kl,kx,ly->xy", o, outs, ins)
        j = (ins.T @ (o.T @ outs)).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        blocks = (phi, j.reshape(d * d, d * d))
        for block in blocks:
            block.setflags(write=False)
        if len(_block_cache) >= BLOCK_CACHE_SIZE:
            del _block_cache[next(iter(_block_cache))]
    _block_cache[key] = blocks
    return blocks


def phi_alpha(geam: Geam, alpha: int, o: np.ndarray) -> Superoperator:
    """Frame map of one group: X -> sum_{k,l} O_kl P_k Tr(X P_l).

    The rotation must be orthogonal and fix the all-ones vector; its
    row and column sums being 1 gives the trace rescaling
    Tr(map[X]) = a_alpha gamma_alpha Tr(X) and map[I] = a gamma I.
    The identity rotation yields a measure-and-prepare map.
    """
    if not 0 <= as_int(alpha, "group index") < geam.n_groups:
        raise ValidationError(f"group index {alpha} out of range")
    return Superoperator(matrix=_group_blocks(geam, alpha, o)[0].copy(), d=geam.d)


def a_coefficient(geam: Geam, k: int, l: int, kk: int) -> float:
    """Depolarizing weight that makes the signed frame combination k-positive.

    Closed form: A = -d (mu_K - 2 mu_L) + (k d - 1) S.

    The combination multiplies traces by T = A + d (mu_K - 2 mu_L). Let
    P be a Schmidt-rank-k maximally entangled projector with Schmidt
    vectors u_m (x) v_m. The output (id (x) map)(P) lives on the
    kd-dimensional space span(u_m) (x) C^d, has trace T, and by the
    product identity Tr(map[V_mn] map[V_nm]) = T^2 delta_mn/d +
    S (coincidence_K(V_mn) - mu_K delta_mn) together with the partial
    coincidence bound its purity ratio is at most
    1/(kd) + S^2 (kd - 1)/(kd T^2), with equality at K = N. Mehta's
    criterion (Tr B^2 <= (Tr B)^2/(n - 1) on an n-dimensional space
    forces B >= 0) with n = kd holds exactly when T >= (kd - 1) S; this
    weight takes the equality. Every Schmidt-rank-k vector is
    (X (x) I) applied to such a maximally entangled vector, so the map is
    k-positive. At k = 1, T = (d - 1) S; for every k, T > 0, so the trace
    factor is always positive.

    S is the analytic geam.derived.s, so the weight is O(1) arithmetic on
    the parameters; raises when the GEAM is not equidistant.
    """
    d, k, l, kk = geam.d, as_rank(k, geam.d), as_int(l, "L"), as_int(kk, "K")
    if not 1 <= l <= kk <= geam.n_groups:
        raise ValidationError(f"need 1 <= L <= K <= N, got L={l}, K={kk}")
    s = common_s(geam)
    mu_l, mu_k = geam.derived.mu(l), geam.derived.mu(kk)
    return float(-d * (mu_k - 2 * mu_l) + (k * d - 1) * s)


def _route_sums(geam: Geam, rotations, k: int, l: int, kk: int) -> tuple:
    """(a_k, superoperator sum of phi_k, frame sum of frame_witness), reading a_k
    and each group's blocks once and summing each route in its own order."""
    a_k = a_coefficient(geam, k, l, kk)
    if len(rotations) < kk:
        raise ValidationError(f"need rotations for groups 1..{kk}, got {len(rotations)}")
    d, blocks = geam.d, [_group_blocks(geam, alpha, rotations[alpha]) for alpha in range(kk)]
    phi = sum((phi_a for phi_a, _ in blocks[l:]), a_k * _depolarizing_matrix(d))
    for phi_a, _ in blocks[:l]:
        phi = phi - phi_a
    frame = a_k / d * np.eye(d * d, dtype=complex)
    for alpha, (_, j) in enumerate(blocks):
        frame = frame - j if alpha < l else frame + j
    return a_k, phi, frame


def phi_k(geam: Geam, rotations, k: int, l: int, kk: int) -> Superoperator:
    """Signed combination A Phi_0 + sum_{L<alpha<=K} Phi_alpha - sum_{alpha<=L} Phi_alpha."""
    return Superoperator(matrix=_route_sums(geam, rotations, k, l, kk)[1], d=geam.d)


@dataclass(frozen=True)
class Witness:
    """Choi matrix plus construction metadata; the one check of a witness: a finite,
    Hermitian d^2 x d^2 matrix (HERMITICITY_PRESERVING_TOL) and integer meta k, l, kk
    with, where present, 1 <= k <= d and 1 <= l <= kk. The meta is stored as a copy
    with k, l and kk as Python ints."""

    w: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.w)
        object.__setattr__(self, "w", w)
        n = w.shape[0] if w.ndim == 2 else 0
        if w.shape != (n, n) or n == 0 or math.isqrt(n) ** 2 != n:
            raise ValidationError(f"witness matrix must be d^2 x d^2, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValidationError("witness matrix has non-finite entries")
        defect = np.abs(w - w.conj().T).max()
        if defect > HERMITICITY_PRESERVING_TOL:
            raise ValidationError(f"witness matrix is not Hermitian (defect {defect:.3e})")
        meta = dict(self.meta)
        for key in ("k", "l", "kk"):
            if key in meta:
                meta[key] = as_int(meta[key], f"witness meta {key!r}")
        object.__setattr__(self, "meta", meta)
        if "k" in meta and not 1 <= meta["k"] <= self.d:
            raise ValidationError(f"witness meta k = {meta['k']} outside 1..d = {self.d}")
        chain = [1] + [meta[key] for key in ("l", "kk") if key in meta]
        if chain != sorted(chain):
            raise ValidationError(f"witness meta needs 1 <= l <= kk, got "
                                  f"l = {meta.get('l')}, kk = {meta.get('kk')}")

    @property
    def d(self) -> int:
        return math.isqrt(self.w.shape[0])


def as_witness(x) -> Witness:
    """A Witness unchanged; a bare matrix wrapped, which checks it."""
    return x if isinstance(x, Witness) else Witness(w=x)


def choi_matrix(phi: Superoperator) -> np.ndarray:
    """Choi matrix sum_{mn} |m><n| (x) map[|m><n|] of a superoperator."""
    d = phi.d
    s4 = phi.matrix.reshape(d, d, d, d)
    return np.ascontiguousarray(s4.transpose(2, 0, 3, 1).reshape(d * d, d * d))


def superop_from_choi(w: np.ndarray, d: int) -> Superoperator:
    """Inverse of choi_matrix."""
    d, w = as_count(d, "d"), np.asarray(w)
    if w.shape != (d * d, d * d):
        raise ValidationError(f"Choi matrix shape {w.shape} does not match d = {d}")
    w4 = w.reshape(d, d, d, d)
    return Superoperator(
        matrix=np.ascontiguousarray(w4.transpose(1, 3, 0, 2).reshape(d * d, d * d)),
        d=d,
    )


def choi_witness(phi: Superoperator, meta: dict | None = None) -> Witness:
    """Wrap the Choi matrix of a Hermiticity-preserving map as a witness."""
    w = choi_matrix(phi)
    if not np.abs(w - w.conj().T).max() <= HERMITICITY_PRESERVING_TOL:
        Witness(w=w)  # raises with the witness check's own message
    return Witness(w=(w + w.conj().T) / 2, meta=meta or {})


def frame_witness(geam: Geam, rotations, k: int, l: int, kk: int) -> np.ndarray:
    """Witness assembled directly from the frames, bypassing the superoperator.

    Computes (A/d) I (x) I + sum_{L<alpha<=K} J_alpha - sum_{alpha<=L} J_alpha
    with J_alpha = sum_{k,l} O_kl conj(P_l) (x) P_k. Used as the second,
    independent route against the Choi construction: it contracts the
    rotation with the output operators P_k first, so it shares no
    intermediate with phi_alpha.
    """
    return _route_sums(geam, rotations, k, l, kk)[2]


def rotation_fingerprint(rotations) -> str:
    h = hashlib.sha256()
    for o in rotations:
        h.update(np.ascontiguousarray(o, dtype=float).tobytes())
    return h.hexdigest()[:16]


def build_witness(geam: Geam, rotations, k: int, l: int, kk: int, *,
                  geam_fingerprint: str | None = None,
                  rotation_seed=None) -> Witness:
    """Construct the Schmidt-number witness for given (k, L, K) and rotations.

    Both construction routes are evaluated and must agree entrywise within
    1e-10; the returned matrix is the Choi route. Metadata records the
    closed-form depolarizing weight and fingerprints of the ingredients.
    """
    a_k, phi, frame = _route_sums(geam, rotations, k, l, kk)
    meta = {
        "k": k,
        "l": l,
        "kk": kk,
        "a_k": a_k,
        "rotation_fingerprint": rotation_fingerprint(rotations),
    }
    if geam_fingerprint is not None:
        meta["geam_fingerprint"] = geam_fingerprint
    if rotation_seed is not None:
        seed = rotation_seed
        meta["rotation_seed"] = int(seed) if isinstance(seed, np.integer) else seed
    witness = choi_witness(Superoperator(matrix=phi, d=geam.d), meta)
    gap = np.abs(witness.w - frame).max()
    if gap > DUAL_ROUTE_TOL:
        raise ValidationError(
            f"witness construction routes disagree by {gap:.3e}; "
            "conjugation convention violated"
        )
    return witness
