"""Dense linear-algebra helpers shared across the package.

Conventions used everywhere: operators are complex numpy arrays, and a
bipartite operator on C^d (x) C^d is a d^2 x d^2 array with row-major
composite indices, so the product basis vector |m> (x) |n> sits at
position m*d + n.
"""

import numpy as np

from .errors import ValidationError


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a matrix."""
    return np.asarray(a).reshape(-1)


def is_hermitian(a: np.ndarray) -> bool:
    return bool(np.abs(a - a.conj().T).max() <= 1e-10)


def min_eigenvalue(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a)[0])


def as_int(x, name: str) -> int:
    """x as a Python int; raises ValidationError for a bool or a non-integer."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {x!r}")
    return int(x)


def as_real(x, name: str) -> float:
    """x as a Python float; raises ValidationError for a bool or a non-number."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {x!r}")
    return float(x)


def as_rng(seed) -> np.random.Generator:
    """Pass numpy Generators through, build a fresh one from anything else."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_unitary(d: int, rng, n: int | None = None) -> np.ndarray:
    """Haar-random d x d unitary via QR of a Ginibre matrix with phase fix; with a
    count n, an (n, d, d) stack drawn from the same stream as n single calls."""
    g = as_rng(rng).standard_normal((1 if n is None else n, 2, d, d))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    u = q * (diag / np.abs(diag))[:, None, :]
    return u[0] if n is None else u


def random_operator(d: int, rng) -> np.ndarray:
    """Complex Ginibre matrix, the generic linear operator on C^d."""
    rng = as_rng(rng)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(d: int, rng) -> np.ndarray:
    g = random_operator(d, rng)
    return (g + dag(g)) / 2


def random_trace_one_operator(d: int, rng) -> np.ndarray:
    """Ginibre matrix rescaled to unit trace.

    Draws with |Tr| below 0.1 are rejected so the rescaling cannot blow
    up the norm, which keeps round-off in trace identities bounded.
    """
    rng = as_rng(rng)
    while True:
        x = random_operator(d, rng)
        t = np.trace(x)
        if abs(t) >= 0.1:
            return x / t


def random_density_matrix(d: int, rng, rank: int | None = None) -> np.ndarray:
    """Normalized Wishart-type density matrix; rank=1 gives a Haar pure state."""
    rng = as_rng(rng)
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def flip_operator(d: int) -> np.ndarray:
    """Swap of the two tensor factors of C^d (x) C^d."""
    f = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            f[m * d + n, n * d + m] = 1.0
    return f


def max_entangled_projector(d: int, k: int) -> np.ndarray:
    """Projector onto (1/sqrt(k)) sum_{m<k} |mm>, embedded in C^d (x) C^d."""
    if not 1 <= k <= d:
        raise ValidationError(f"need 1 <= k <= d, got k={k}, d={d}")
    psi = np.zeros(d * d, dtype=complex)
    for m in range(k):
        psi[m * d + m] = 1.0
    psi /= np.sqrt(k)
    return np.outer(psi, psi.conj())


def random_rank_k_coefficients(d: int, k: int, rng) -> np.ndarray:
    """Random d x d coefficient matrix of rank <= k with unit Frobenius norm.

    Interpreted as the state sum_{mn} C_{mn} |m>|n>, whose Schmidt rank is
    the rank of C.
    """
    rng = as_rng(rng)
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    b = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    c = a @ b
    return c / np.linalg.norm(c)
