"""Applying witnesses to states: a negative expectation on a certified
k-positive witness certifies Schmidt number greater than k."""

import functools
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import as_count, as_real, as_rng, is_hermitian, max_entangled_projector, \
    random_rank_k_coefficients
from .maps import Witness, as_witness

DETECTION_TOL = 1e-10


@dataclass(frozen=True)
class IsotropicState:
    """Mixture p * P_max_entangled + (1 - p) * I/d^2 on C^d (x) C^d, 0 <= p <= 1."""

    d: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "d", as_count(self.d, "d"))
        object.__setattr__(self, "p", as_real(self.p, "p"))
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"need 0 <= p <= 1, got p={self.p}")

    def matrix(self) -> np.ndarray:
        d = self.d
        return (self.p * max_entangled_projector(d, d)
                + (1.0 - self.p) * np.eye(d * d) / (d * d))


def _check_density(rho: np.ndarray):
    if not is_hermitian(rho):
        raise ValidationError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValidationError(f"state trace is {np.trace(rho).real!r}, not 1")
    if np.linalg.eigvalsh(rho)[0] < -1e-10:
        raise ValidationError("state is not positive semidefinite")


def witness_expectation(witness, rho: np.ndarray) -> float:
    """Real expectation value Tr(W rho) of a witness on a density matrix."""
    w = as_witness(witness).w
    rho = np.asarray(rho)
    if rho.shape != w.shape:
        raise ValidationError(f"state shape {rho.shape} does not match witness {w.shape}")
    _check_density(rho)
    return _expectations(w, rho[None])[0]


def _expectations(w: np.ndarray, rhos: np.ndarray) -> list[float]:
    """Tr(W rho) of a checked witness matrix for each checked state of a stack."""
    vals = (w @ rhos).trace(axis1=1, axis2=2).tolist()
    imag = max(abs(val.imag) for val in vals)
    if imag > 1e-10:
        raise ValidationError(f"expectation has imaginary part {imag:.3e}")
    return [val.real for val in vals]


@functools.lru_cache(maxsize=8)
def _isotropic_end_states(d: int) -> np.ndarray:
    """Read-only stack of rho(0) = I/d^2 and rho(1) = |Phi><Phi|, checked once per d."""
    ends = np.stack([IsotropicState(d, p).matrix() for p in (0.0, 1.0)])
    for rho in ends:
        _check_density(rho)
    ends.setflags(write=False)
    return ends


def _isotropic_ends(witness) -> list[float]:
    """f(0), f(1) of the isotropic curve f(p) = Tr(W rho(p)) = (1 - p) f(0) + p f(1)."""
    witness = as_witness(witness)
    return _expectations(witness.w, _isotropic_end_states(witness.d))


def detection_threshold(witness) -> float | None:
    """Parameter where the witness expectation crosses zero on isotropic states.

    The expectation is affine in the mixing parameter, so when a sign
    change exists on [0, 1] the root is exact: p* = -f(0)/(f(1) - f(0)).
    Returns None without a sign change.
    """
    f0, f1 = _isotropic_ends(witness)
    if f0 * f1 >= 0:
        return None
    return float(-f0 / (f1 - f0))


def random_schmidt_mixture(d: int, k: int, rng) -> np.ndarray:
    """Random state of Schmidt number <= k, certified by construction.

    A Dirichlet-weighted mixture of 2d random Schmidt-rank-<=k pure states.
    """
    rng = as_rng(rng)
    weights = rng.dirichlet(np.ones(2 * d))
    v = random_rank_k_coefficients(d, k, rng, 2 * d).reshape(2 * d, d * d)
    return (weights[:, None] * v).T @ v.conj()


class DetectionRecord(NamedTuple):
    family: str
    parameter: float
    k: int
    l: int
    kk: int
    expectation: float
    detected: bool


@functools.lru_cache(maxsize=8)
def _sweep_grid(steps: int) -> tuple:
    """Read-only uniform grid on [0, 1], and its points as Python floats."""
    grid = np.linspace(0.0, 1.0, steps)
    grid.setflags(write=False)
    return grid, tuple(grid.tolist())


def sweep_isotropic(witness: Witness, steps: int = 101) -> list[DetectionRecord]:
    """The isotropic curve on a uniform grid from its two end expectations, as C-built records."""
    witness, steps = as_witness(witness), as_count(steps, "steps")
    f0, f1 = _isotropic_ends(witness)
    grid, params = _sweep_grid(steps)
    vals = ((1.0 - grid) * f0 + grid * f1).tolist()
    meta = (repeat(witness.meta.get(key, 0)) for key in ("k", "l", "kk"))
    fields = zip(repeat("isotropic"), params, *meta, vals, map((-DETECTION_TOL).__gt__, vals))
    return list(map(tuple.__new__, repeat(DetectionRecord), fields))
