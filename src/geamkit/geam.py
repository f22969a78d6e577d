"""Construction and analysis of generalized equiangular measurements.

A GEAM is a union of N generalized equiangular tight frames, one frame per
group: group alpha holds M_alpha positive semidefinite operators that sum
to gamma_alpha * I, with all pairwise Hilbert-Schmidt overlaps fixed by
the symmetry parameters (a_alpha, b_alpha, c_alpha, f). The operators are
built from a Hermitian orthonormal basis through the group frame
operators as P = (a/d) I + tau * H.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .basis import HermitianBasis, frame_operators
from .errors import PositivityError, ValidationError
from .linalg import (as_int, as_real, flip_operator, random_density_matrix,
                     random_trace_one_operator)

PSD_TOL = 1e-10
TRACE_COND_TOL = 1e-9
EQUIDISTANT_TOL = 1e-9


@dataclass(frozen=True)
class DerivedParams:
    """Parameters determined by (d, m, gamma, b).

    a: per-group operator traces, a = d * gamma / M.
    c: within-group overlap parameters, c = (M - d b) / (d (M - 1)).
    f: cross-group overlap parameter, always 1/d.
    s_per_group: squared within-frame distances S = a^2 (b - c).
    tau: signed frame coefficients, tau = sign * sqrt(S / (M (sqrt(M)+1)^2)).
    s: the common S when all groups agree within 1e-10, else None.

    s is the one S every formula reads (2-design constants, coincidence
    bound, a_k), because it is exact in the parameters. equidistance()
    measures S from the operators as a check, which analyze reports.
    """

    a: tuple
    c: tuple
    f: float
    s_per_group: tuple
    tau: tuple
    s: float | None
    _weights: tuple

    def mu(self, l: int) -> float:
        """Cumulative weight (1/d) sum_{alpha <= l} a_alpha gamma_alpha."""
        if not 1 <= l <= len(self.a):
            raise ValidationError(f"group count l = {l} out of range 1..{len(self.a)}")
        return sum(self._weights[:l])


@dataclass(frozen=True)
class GeamParams:
    """Symmetry parameters of a GEAM, checked when made.

    d: Hilbert space dimension.
    m: frame sizes M_alpha (each >= 2, sum = d^2 + N - 1).
    gamma: positive frame weights summing to 1.
    b: per-group purity parameters, 1/d < b_alpha <= min(d, M_alpha)/d.
    tau_sign: +1 or -1 per group, selecting the frame-operator sign.
    derived: the DerivedParams of these parameters.

    d, m and tau_sign hold integers and gamma and b reals, none a bool; a
    mistyped or out-of-range set raises ValidationError.
    """

    d: int
    m: tuple
    gamma: tuple
    b: tuple
    tau_sign: tuple
    derived: DerivedParams = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d", as_int(self.d, "d"))
        for name, cast in (("m", as_int), ("gamma", as_real), ("b", as_real),
                           ("tau_sign", as_int)):
            label = f"{name} entry"
            object.__setattr__(self, name, tuple(cast(x, label) for x in getattr(self, name)))

        d, n = self.d, self.n_groups
        if d < 2:
            raise ValidationError(f"dimension must be >= 2, got {d}")
        if not (len(self.gamma) == len(self.b) == len(self.tau_sign) == n):
            raise ValidationError("m, gamma, b, tau_sign must have equal length")
        if any(m < 2 for m in self.m):
            raise ValidationError(f"every M_alpha must be >= 2, got {self.m}")
        if sum(self.m) != d * d + n - 1:
            raise ValidationError(
                f"sum(M_alpha) = {sum(self.m)} but a GEAM needs d^2 + N - 1 "
                f"= {d * d + n - 1} elements"
            )
        if not all(g > 0 for g in self.gamma):
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if not abs(sum(self.gamma) - 1.0) <= 1e-12:
            raise ValidationError(f"gamma must sum to 1, got sum = {sum(self.gamma)!r}")
        for alpha, (m, b) in enumerate(zip(self.m, self.b)):
            hi = min(d, m) / d
            if not (1.0 / d < b <= hi + 1e-15):
                raise ValidationError(
                    f"b[{alpha}] = {b} outside the admissible interval "
                    f"(1/d, min(d, M)/d] = ({1.0 / d}, {hi}]"
                )
        if any(s not in (-1, 1) for s in self.tau_sign):
            raise ValidationError(f"tau_sign entries must be +-1, got {self.tau_sign}")

        a = tuple(d * g / m for g, m in zip(self.gamma, self.m))
        c = tuple((m - d * b) / (d * (m - 1)) for m, b in zip(self.m, self.b))
        s = tuple(aa * aa * (bb - cc) for aa, bb, cc in zip(a, self.b, c))
        if any(x <= 0 for x in s):
            raise ValidationError(f"S_alpha must be positive, got {s}")
        tau = tuple(
            sign * np.sqrt(ss / (m * (np.sqrt(m) + 1) ** 2))
            for sign, ss, m in zip(self.tau_sign, s, self.m)
        )
        common = s[0] if max(s) - min(s) <= 1e-10 else None
        weights = tuple(aa * g / d for aa, g in zip(a, self.gamma))
        object.__setattr__(self, "derived", DerivedParams(
            a=a, c=c, f=1.0 / d, s_per_group=s, tau=tau, s=common, _weights=weights))

    @property
    def n_groups(self) -> int:
        return len(self.m)


@dataclass(frozen=True)
class Geam:
    """A concrete GEAM: parameters plus the measurement operators.

    ops[alpha] has shape (M_alpha, d, d); every operator is Hermitian PSD.
    basis_meta records the basis realization for serialization.
    """

    params: GeamParams
    ops: tuple
    basis_meta: dict

    @property
    def derived(self) -> DerivedParams:
        """a, c, S, tau and mu_l of params, derived once when params was made."""
        return self.params.derived

    @property
    def d(self) -> int:
        return self.params.d

    @property
    def n_groups(self) -> int:
        return self.params.n_groups

    def all_ops(self) -> np.ndarray:
        """All operators stacked into one (sum(M), d, d) array."""
        return np.concatenate(self.ops, axis=0)


def _group_ops(a, d, tau, h):
    return a / d * np.eye(d, dtype=complex)[None, :, :] + tau * h


def build_geam(basis: HermitianBasis, params: GeamParams, *,
               auto_sign: bool = False) -> Geam:
    """Assemble the measurement operators P = (a/d) I + tau H for a layout.

    With auto_sign=True the given tau_sign is tried first for each group
    and flipped if positivity fails; the signs actually used are recorded
    in the returned parameters. Construction fails rather than clamps when
    neither sign yields PSD operators.
    """
    if basis.m_sizes != params.m:
        raise ValidationError(
            f"basis layout {basis.m_sizes} does not match parameters {params.m}"
        )
    derived = params.derived
    frames = frame_operators(basis)
    groups = []
    signs = []
    for alpha, (a, tau, h) in enumerate(zip(derived.a, derived.tau, frames)):
        for sign in (1, -1) if auto_sign else (1,):
            ops = _group_ops(a, params.d, sign * tau, h)
            low = np.linalg.eigvalsh(ops)[:, 0]
            if not low.min() < -PSD_TOL:
                break
        else:
            worst = int(np.argmin(low))
            raise PositivityError(alpha, worst, float(low[worst]))
        signs.append(sign * params.tau_sign[alpha])
        groups.append(ops)
    return Geam(params=replace(params, tau_sign=tuple(signs)), ops=tuple(groups),
                basis_meta=dict(basis.meta))


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "deviation", float(self.deviation))

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.tolerance)


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max(c.deviation for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            flag = "pass" if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.name}: max deviation {c.deviation:.3e} "
                         f"(tol {c.tolerance:.1e})")
        return "\n".join(lines)


def _gram(geam: Geam) -> np.ndarray:
    """Overlaps Tr(P_k P_l^dag) of all_ops(): Tr(P_k P_l) for Hermitian P."""
    flat = geam.all_ops().reshape(-1, geam.d ** 2)
    return (flat @ flat.conj().T).real


def validate_geam(geam: Geam) -> ValidationReport:
    """Check the defining conditions of a GEAM numerically.

    Covers the tight-frame condition per group, the element count, all
    four trace conditions, Hermiticity and positivity. The overlap checks
    read the Gram matrix, which holds Tr(P P') only for Hermitian P: a
    failed Hermiticity check voids them. Failures are reported, not
    raised.
    """
    p, der = geam.params, geam.derived
    d = p.d
    ops = geam.all_ops()
    group = np.repeat(np.arange(p.n_groups), p.m)
    a, b, c = (np.asarray(v)[group] for v in (der.a, p.b, der.c))
    checks = []

    dev = max(np.abs(grp.sum(axis=0) - g * np.eye(d)).max()
              for grp, g in zip(geam.ops, p.gamma))
    checks.append(CheckResult("tight frame: sum_k P = gamma I per group", dev, PSD_TOL))

    count_dev = abs(sum(p.m) - (d * d + p.n_groups - 1))
    checks.append(CheckResult("element count = d^2 + N - 1", float(count_dev), 0.5))

    dev = np.abs(np.trace(ops, axis1=1, axis2=2).real - a).max()
    checks.append(CheckResult("Tr P = a", dev, TRACE_COND_TOL))

    same = group[:, None] == group[None, :]
    diag = np.eye(len(group), dtype=bool)
    target = np.where(same, (c * a ** 2)[:, None], der.f * np.outer(a, a))
    target[diag] = b * a ** 2
    dev = np.abs(_gram(geam) - target)
    checks.append(CheckResult("Tr P^2 = b a^2", dev[diag].max(), TRACE_COND_TOL))
    checks.append(CheckResult("Tr P P' = c a^2 within a group",
                              dev[same & ~diag].max(), TRACE_COND_TOL))
    if p.n_groups > 1:
        checks.append(CheckResult("Tr P P' = f a a' across groups",
                                  dev[~same].max(), TRACE_COND_TOL))

    dev = np.abs(ops - ops.conj().transpose(0, 2, 1)).max()
    checks.append(CheckResult("P = P^dag", dev, PSD_TOL))

    dev = -min(np.linalg.eigvalsh(grp)[:, 0].min() for grp in geam.ops)
    # 0.0 first: max(-0.0, 0.0) is -0.0, the sign a +0.0 eigenvalue leaves
    checks.append(CheckResult("P >= 0 (negated min eigenvalue)", max(0.0, dev), PSD_TOL))

    return ValidationReport(checks=tuple(checks))


@dataclass(frozen=True)
class EquidistanceResult:
    """Within-frame squared Frobenius distances, group by group.

    Elements of one frame are pairwise equidistant by construction; the
    measurement is called equidistant when that distance is the same
    number S for every frame. Distances between elements of different
    frames are generally smaller and are reported separately.
    """

    s_per_group: tuple
    equidistant: bool
    s: float | None
    cross_group_range: tuple | None


def equidistance(geam: Geam) -> EquidistanceResult:
    """Measure all pairwise distances (1/2) Tr[(P - P')^2] = (G_kk + G_ll)/2 - G_kl."""
    g = _gram(geam)
    dist = (g.diagonal()[:, None] + g.diagonal()[None, :]) / 2 - g
    m_sizes = geam.params.m
    group = np.repeat(np.arange(geam.n_groups), m_sizes)
    per_group = []
    for start, m in zip(np.cumsum((0,) + m_sizes[:-1]), m_sizes):
        dists = dist[start:start + m, start:start + m][np.triu_indices(m, 1)]
        if dists.max() - dists.min() > EQUIDISTANT_TOL:
            raise ValidationError("within-frame distances disagree; not a valid GEAM")
        per_group.append(float(np.mean(dists)))
    cross = None
    if geam.n_groups > 1:
        vals = dist[group[:, None] < group[None, :]]
        cross = (float(vals.min()), float(vals.max()))
    flag = max(per_group) - min(per_group) <= EQUIDISTANT_TOL
    return EquidistanceResult(
        s_per_group=tuple(per_group),
        equidistant=flag,
        s=float(np.mean(per_group)) if flag else None,
        cross_group_range=cross,
    )


@dataclass(frozen=True)
class DesignCheckResult:
    kappa_plus: float
    kappa_minus: float
    residual: float


def common_s(geam: Geam) -> float:
    """The common S = geam.derived.s; raises when the frames do not share one."""
    s = geam.derived.s
    if s is None:
        raise ValidationError(
            f"needs an equidistant GEAM, got S per group {geam.derived.s_per_group}"
        )
    return s


def conical_design_check(geam: Geam) -> DesignCheckResult:
    """Verify sum_P P (x) P = kappa_+ I (x) I + kappa_- F for equidistant GEAMs.

    kappa_+ = mu_N - S/d and kappa_- = S, with F the flip operator and S
    the analytic geam.derived.s; the residual measures the operators
    against these constants. Raises when the input is not equidistant.
    """
    d = geam.d
    s = common_s(geam)
    mu_n = geam.derived.mu(geam.n_groups)
    kp, km = mu_n - s / d, s
    ops = geam.all_ops()
    total = np.einsum("kij,kab->iajb", ops, ops).reshape(d * d, d * d)
    resid = np.abs(total - kp * np.eye(d * d) - km * flip_operator(d)).max()
    return DesignCheckResult(kappa_plus=float(kp), kappa_minus=float(km),
                             residual=float(resid))


def coincidence_index(geam: Geam, x: np.ndarray, l: int):
    """Partial index of coincidence sum_{alpha<=l} sum_k |Tr(P_{alpha,k} X)|^2,
    over the leading axes of x (..., d, d)."""
    if not 1 <= l <= geam.n_groups:
        raise ValidationError(f"l = {l} out of range 1..{geam.n_groups}")
    ops = geam.all_ops()[:sum(geam.params.m[:l])]
    overlaps = np.einsum("kij,...ji->...k", ops, x)
    return np.sum(np.abs(overlaps) ** 2, axis=-1)


def coincidence_bound(geam: Geam, x: np.ndarray, l: int):
    """Upper bound S [Tr(X^dag X) - 1/d] + mu_l for the partial coincidence index.

    Valid for unit-trace X (the convention under which the bound is an
    equality at l = N); general X obey the same bound with |Tr X|^2
    weights, which reduces to this form at Tr X = 1. S is the analytic
    geam.derived.s; raises when the GEAM is not equidistant. x is as in coincidence_index.
    """
    if not 1 <= l <= geam.n_groups:
        raise ValidationError(f"l = {l} out of range 1..{geam.n_groups}")
    s = common_s(geam)
    hs_norm = np.sum(np.abs(x) ** 2, axis=(-2, -1))
    return s * (hs_norm - 1.0 / geam.d) + geam.derived.mu(l)


def analyze_geam(geam: Geam, seed, samples: int) -> dict:
    """The analysis sections: validation, equidistance and, for an
    equidistant GEAM, conical_design and coincidence. A section with a
    "passed" key is a verdict. The coincidence checks draw `samples`
    density matrices, then `samples` unit-trace operators, from
    default_rng(seed), and evaluate each check over the whole stack."""
    report = validate_geam(geam)
    eq = equidistance(geam)
    doc = {
        "validation": {
            "passed": report.passed,
            "max_deviation": report.max_deviation,
            "checks": [{**asdict(c), "passed": c.passed} for c in report.checks],
        },
        "equidistance": asdict(eq),
    }
    if geam.derived.s is None:
        return doc
    design = conical_design_check(geam)
    doc["conical_design"] = {**asdict(design), "passed": design.residual <= 1e-9}
    rng = np.random.default_rng(seed)
    d, n = geam.d, geam.n_groups
    rho = np.array([random_density_matrix(d, rng, rank=1 if i % 2 else None)
                    for i in range(samples)]).reshape(samples, d, d)
    x = np.array([random_trace_one_operator(d, rng) for _ in range(samples)]).reshape(rho.shape)
    resid = np.abs(coincidence_bound(geam, rho, n) - coincidence_index(geam, rho, n))
    slack = np.array([coincidence_bound(geam, x, l) - coincidence_index(geam, x, l)
                      for l in range(1, n + 1)])
    purity_resid, worst_slack = resid.max(initial=0.0), slack.min(initial=np.inf)
    gap_n = np.abs(slack[-1]).max(initial=0.0)
    doc["coincidence"] = {
        "purity_relation_residual": float(purity_resid),
        "worst_bound_slack": float(worst_slack),
        "max_gap_at_full_range": float(gap_n),
        "passed": bool(purity_resid <= 1e-9 and worst_slack >= -1e-9 and gap_n <= 1e-10),
    }
    return doc
