"""Applying witnesses to states: a negative expectation on a certified
k-positive witness certifies Schmidt number greater than k."""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import as_count, as_rng, is_hermitian, max_entangled_projector, \
    random_rank_k_coefficients
from .maps import Witness, as_witness

DETECTION_TOL = 1e-10


@dataclass(frozen=True)
class IsotropicState:
    """Mixture p * P_max_entangled + (1 - p) * I/d^2 on C^d (x) C^d."""

    d: int
    p: float

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
    return _expectation(w, rho)


def _expectation(w: np.ndarray, rho: np.ndarray) -> float:
    """Tr(W rho) of a checked witness matrix and a checked state of its shape."""
    val = np.trace(w @ rho)
    if abs(val.imag) > 1e-10:
        raise ValidationError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


@functools.lru_cache(maxsize=8)
def _isotropic_end_states(d: int) -> tuple:
    """rho(0) = I/d^2 and rho(1) = |Phi><Phi|, built and checked once per d, read-only."""
    ends = tuple(IsotropicState(d, p).matrix() for p in (0.0, 1.0))
    for rho in ends:
        _check_density(rho)
        rho.setflags(write=False)
    return ends


def _isotropic_ends(witness) -> tuple[float, float]:
    """f(0), f(1) of the isotropic curve f(p) = Tr(W rho(p)) = (1 - p) f(0) + p f(1)."""
    witness = as_witness(witness)
    return tuple(_expectation(witness.w, rho) for rho in _isotropic_end_states(witness.d))


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


def sweep_isotropic(witness: Witness, steps: int = 101) -> list[DetectionRecord]:
    """The isotropic curve on a uniform grid, read off its two end expectations."""
    witness, steps = as_witness(witness), as_count(steps, "steps")
    f0, f1 = _isotropic_ends(witness)
    grid = np.linspace(0.0, 1.0, steps)
    k, l, kk = (witness.meta.get(key, 0) for key in ("k", "l", "kk"))
    return [DetectionRecord("isotropic", p, k, l, kk, val, val < -DETECTION_TOL)
            for p, val in zip(grid.tolist(), ((1.0 - grid) * f0 + grid * f1).tolist())]
