"""Hermitian orthonormal operator bases and the per-group frame operators.

A basis here is the traceless part of an orthonormal Hermitian operator
basis of C^{d x d}: d^2 - 1 traceless Hermitian matrices G with
Tr(G_i G_j) = delta_ij, split into N groups of sizes M_alpha - 1. The
identity element I/sqrt(d) completes the basis but is kept implicit.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import as_int, as_rng, haar_unitary

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
ORTHO_TOL = 1e-10


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices for dimension d, orthonormalized.

    Returns the d^2 - 1 traceless Hermitian matrices with
    Tr(G_i G_j) = delta_ij, in a deterministic order: symmetric pairs in
    lexicographic (m, n) order, then antisymmetric pairs, then the
    diagonal family. For d = 2 this is sigma_x/sqrt(2), sigma_y/sqrt(2),
    sigma_z/sqrt(2).
    """
    if d < 2:
        raise ValidationError(f"dimension must be at least 2, got {d}")
    mats = []
    for m in range(d):
        for n in range(m + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[m, n] = 1.0
            g[n, m] = 1.0
            mats.append(g / np.sqrt(2))
    for m in range(d):
        for n in range(m + 1, d):
            g = np.zeros((d, d), dtype=complex)
            g[m, n] = -1j
            g[n, m] = 1j
            mats.append(g / np.sqrt(2))
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -float(l)
        mats.append(np.diag(v).astype(complex) / np.sqrt(l * (l + 1)))
    return mats


def conjugate_basis(flat: list[np.ndarray], unitary: np.ndarray) -> list[np.ndarray]:
    """Conjugate every basis element by a fixed unitary, U G U^dag."""
    u = np.asarray(unitary)
    return [u @ g @ u.conj().T for g in flat]


@dataclass(frozen=True)
class HermitianBasis:
    """Traceless orthonormal Hermitian operators partitioned into groups.

    groups[alpha] is an array of shape (M_alpha - 1, d, d). The implicit
    identity element I/sqrt(d) is never stored in a group. meta records
    how the basis was realized, for serialization.
    """

    d: int
    groups: tuple
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def m_sizes(self) -> tuple:
        return tuple(g.shape[0] + 1 for g in self.groups)

    def flat(self) -> list[np.ndarray]:
        return [g for grp in self.groups for g in grp]


def _check_flat(flat, d):
    for i, g in enumerate(flat):
        if g.shape != (d, d):
            raise ValidationError(f"basis element {i} has shape {g.shape}, want ({d}, {d})")
        if np.abs(g - g.conj().T).max() > HERMITICITY_TOL:
            raise ValidationError(f"basis element {i} is not Hermitian")
        if abs(np.trace(g)) > TRACE_TOL:
            raise ValidationError(f"basis element {i} is not traceless")
    n = len(flat)
    stack = np.array(flat).reshape(n, -1)
    gram = (stack.conj() @ stack.T).real
    if np.abs(gram - np.eye(n)).max() > ORTHO_TOL:
        raise ValidationError("basis elements are not orthonormal")


def partition_basis(flat: list[np.ndarray], m_sizes, *, meta=None) -> HermitianBasis:
    """Group a flat traceless basis into N groups of sizes M_alpha - 1.

    Requires sum(M_alpha - 1) = d^2 - 1 and every M_alpha >= 2, so the
    groups exhaust the traceless sector.
    """
    m_sizes = tuple(as_int(m, "group size") for m in m_sizes)
    if len(flat) == 0:
        raise ValidationError("empty basis")
    d = flat[0].shape[0]
    if any(m < 2 for m in m_sizes):
        raise ValidationError(f"every group size must be >= 2, got {m_sizes}")
    need = d * d - 1
    have = sum(m - 1 for m in m_sizes)
    if have != need or len(flat) != need:
        raise ValidationError(
            f"partition mismatch: sum(M_alpha - 1) = {have}, basis has "
            f"{len(flat)} elements, traceless sector needs {need}"
        )
    _check_flat(flat, d)
    groups = []
    i = 0
    for m in m_sizes:
        groups.append(np.array(flat[i:i + m - 1]))
        i += m - 1
    return HermitianBasis(d=d, groups=tuple(groups),
                          meta=dict(meta) if meta else {"kind": "custom"})


def gell_mann_hermitian_basis(d: int, m_sizes, unitary_seed=None) -> HermitianBasis:
    """Canonical basis realization: Gell-Mann matrices, optionally rotated.

    When unitary_seed is given, every element is conjugated by one
    Haar-random unitary drawn from that seed, which preserves all basis
    invariants while changing the concrete matrices.
    """
    flat = gell_mann_basis(d)
    meta = {"kind": "gell_mann", "unitary_seed": unitary_seed}
    if unitary_seed is not None:
        flat = conjugate_basis(flat, haar_unitary(d, as_rng(unitary_seed)))
    return partition_basis(flat, m_sizes, meta=meta)


def frame_operators(basis: HermitianBasis) -> tuple:
    """Per-group traceless frame operators H, one array per group.

    Entry alpha has shape (M_alpha, d, d); the first M_alpha - 1 entries
    are G_alpha - sqrt(M)(1 + sqrt(M)) G_{alpha,k} and the last one is
    (1 + sqrt(M)) G_alpha, with G_alpha the sum of the group's basis
    elements. Each group of frame operators sums to zero.
    """
    hs = []
    for grp in basis.groups:
        m = grp.shape[0] + 1
        g_sum = grp.sum(axis=0)
        scale = np.sqrt(m) * (1 + np.sqrt(m))
        h = np.empty((m, basis.d, basis.d), dtype=complex)
        h[:m - 1] = g_sum[None, :, :] - scale * grp
        h[m - 1] = (1 + np.sqrt(m)) * g_sum
        hs.append(h)
    return tuple(hs)
