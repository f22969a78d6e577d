"""Applying witnesses to states: a negative expectation on a certified
k-positive witness certifies Schmidt number greater than k."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import as_rng, is_hermitian, max_entangled_projector, \
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
    if not is_hermitian(rho, tol=1e-10):
        raise ValidationError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValidationError(f"state trace is {np.trace(rho).real!r}, not 1")
    if np.linalg.eigvalsh(rho)[0] < -1e-10:
        raise ValidationError("state is not positive semidefinite")


def witness_expectation(witness, rho: np.ndarray) -> float:
    """Real expectation value Tr(W rho) of a witness on a density matrix."""
    w = as_witness(witness).w
    _check_density(rho)
    val = np.trace(w @ rho)
    if abs(val.imag) > 1e-10:
        raise ValidationError(f"expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def _isotropic_ends(witness) -> tuple[float, float]:
    """f(0), f(1) of the isotropic curve f(p) = Tr(W rho(p)) = (1 - p) f(0) + p f(1)."""
    witness = as_witness(witness)
    return tuple(witness_expectation(witness, IsotropicState(witness.d, p).matrix())
                 for p in (0.0, 1.0))


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


def random_schmidt_mixture(d: int, k: int, rng, n_states: int | None = None) -> np.ndarray:
    """Random state of Schmidt number <= k, certified by construction.

    A Dirichlet-weighted mixture of random Schmidt-rank-<=k pure states;
    2d components by default.
    """
    rng = as_rng(rng)
    n = 2 * d if n_states is None else n_states
    weights = rng.dirichlet(np.ones(n))
    rho = np.zeros((d * d, d * d), dtype=complex)
    for w_i in weights:
        v = random_rank_k_coefficients(d, k, rng).reshape(-1)
        rho += w_i * np.outer(v, v.conj())
    return rho


@dataclass(frozen=True)
class DetectionRecord:
    family: str
    parameter: float
    k: int
    l: int
    kk: int
    expectation: float
    detected: bool


def sweep_isotropic(witness: Witness, steps: int = 101) -> list[DetectionRecord]:
    """The isotropic curve on a uniform grid, read off its two end expectations."""
    meta = witness.meta
    f0, f1 = _isotropic_ends(witness)
    records = []
    for p in np.linspace(0.0, 1.0, steps):
        val = float((1.0 - p) * f0 + p * f1)
        records.append(DetectionRecord(
            family="isotropic",
            parameter=float(p),
            k=int(meta.get("k", 0)),
            l=int(meta.get("l", 0)),
            kk=int(meta.get("kk", 0)),
            expectation=val,
            detected=bool(val < -DETECTION_TOL),
        ))
    return records
