"""Built-in GEAM fixtures used across tests, demos, and the CLI."""

from .basis import gell_mann_hermitian_basis
from .geam import Geam, GeamParams, build_geam


def mub_layout(d: int) -> list[int]:
    """d + 1 frames of d elements each, the layout of a full MUB family."""
    return [d] * (d + 1)


def qubit_mub() -> Geam:
    """d=2, three frames of two rescaled projectors each.

    With the Pauli basis realization and b = 1 the operators come out as
    (1/3)(I +- sigma_i)/2, the full set of qubit MUB projectors rescaled
    by 1/3. S = 1/9.
    """
    params = GeamParams(d=2, m=(2, 2, 2), gamma=(1 / 3,) * 3, b=(1.0,) * 3,
                        tau_sign=(1, 1, 1))
    return build_geam(gell_mann_hermitian_basis(2, params.m), params)


def qutrit_mub(b: float = 0.5) -> Geam:
    """d=3, four frames of three elements (MUB-type layout).

    The generic Gell-Mann realization does not reach the projective value
    b = 1; positivity holds for b up to roughly 0.554 with tau = +1
    (found numerically, pinned in the tests). The default 0.5 has a
    comfortable margin. S = (3b - 1)/96 at gamma = 1/4.
    """
    params = GeamParams(d=3, m=(3, 3, 3, 3), gamma=(0.25,) * 4, b=(b,) * 4,
                        tau_sign=(1, 1, 1, 1))
    return build_geam(gell_mann_hermitian_basis(3, params.m), params)


def qutrit_single_frame(b: float = 0.4) -> Geam:
    """d=3, one informationally complete frame of nine elements.

    The single-frame analogue of a SIC measurement; with the Gell-Mann
    realization positivity holds for b up to roughly 0.525 with tau = +1
    (found numerically, pinned in the tests).
    """
    params = GeamParams(d=3, m=(9,), gamma=(1.0,), b=(b,), tau_sign=(1,))
    return build_geam(gell_mann_hermitian_basis(3, params.m), params)


def qubit_two_group(b1: float = 0.8, b2: float = 0.7) -> Geam:
    """d=2 layout with unequal frames, M = (3, 2).

    Useful for exercising the non-equidistant branch: with gamma = 1/2
    each, S1 = (2 b1 - 1)/12 and S2 = (2 b2 - 1)/4, so the frames share a
    common S exactly when b1 = 3 b2 - 1. The defaults are not equidistant.
    """
    params = GeamParams(d=2, m=(3, 2), gamma=(0.5, 0.5), b=(b1, b2),
                        tau_sign=(1, 1))
    return build_geam(gell_mann_hermitian_basis(2, params.m), params)
