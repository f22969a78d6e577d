"""Command-line interface: build, analyze, witness, certify, detect.

Every stochastic subcommand requires an explicit seed, outputs embed the
fingerprints of their inputs, and repeated runs with the same
configuration produce byte-identical files once timestamps are disabled.
Exit codes: 0 success, 2 validation failure, 3 numerical-certification
violation, 4 I/O error.
"""

import argparse
import sys

import numpy as np

from .basis import gell_mann_hermitian_basis
from .certify import VERDICT_VIOLATED, mehta_ratio, min_schmidt_k
from .detect import detection_threshold, sweep_isotropic
from .errors import GeamError, ValidationError
from .geam import GeamParams, build_geam, coincidence_bound, coincidence_index, \
    conical_design_check, equidistance, validate_geam
from .linalg import random_density_matrix, random_trace_one_operator
from .maps import build_witness, rotation_set, superop_from_choi
from .serialize import ANALYSIS_FORMAT, certification_document, fingerprint, \
    geam_document, load_geam, load_witness, read_json, save_geam, save_witness, \
    write_detection_csv, write_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4


def _parse_layout(text: str, d: int) -> list[int]:
    if text.strip().lower() == "mub":
        return [d] * (d + 1)
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse layout {text!r}")


def _parse_floats(text: str, n: int, name: str) -> list[float]:
    toks = text.split(",")
    try:
        vals = [float(t) for t in toks]
    except ValueError:
        raise ValidationError(f"cannot parse {name} {text!r}")
    if len(vals) == 1:
        return vals * n
    if len(vals) != n:
        raise ValidationError(f"{name} needs 1 or {n} values, got {len(vals)}")
    return vals


def cmd_build_geam(args) -> int:
    m = _parse_layout(args.layout, args.d)
    n = len(m)
    if args.gamma.strip().lower() == "uniform":
        gamma = [1.0 / n] * n
    else:
        gamma = _parse_floats(args.gamma, n, "gamma")
    b = _parse_floats(args.b, n, "b")
    auto = args.tau.strip().lower() == "auto"
    if auto:
        tau_sign = [1] * n
    else:
        tau_sign = [int(t) for t in args.tau.split(",")]
        if len(tau_sign) == 1:
            tau_sign = tau_sign * n
    params = GeamParams(d=args.d, m=m, gamma=gamma, b=b, tau_sign=tau_sign)
    basis = gell_mann_hermitian_basis(args.d, m, unitary_seed=args.unitary_seed)
    geam = build_geam(basis, params, auto_sign=auto)
    report = validate_geam(geam)
    save_geam(geam, args.out, timestamp=not args.no_timestamp)
    print(report.summary())
    print(f"wrote {args.out} (fingerprint {fingerprint(geam_document(geam))})")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_analyze(args) -> int:
    geam = load_geam(args.geam)
    in_fp = fingerprint(read_json(args.geam))
    report = validate_geam(geam)
    eq = equidistance(geam)
    s = geam.derived.s
    doc = {
        "format": ANALYSIS_FORMAT,
        "input_fingerprint": in_fp,
        "seed": args.seed,
        "samples": args.samples,
        "validation": {
            "passed": report.passed,
            "max_deviation": report.max_deviation,
            "checks": [{"name": c.name, "deviation": c.deviation,
                        "tolerance": c.tolerance, "passed": c.passed}
                       for c in report.checks],
        },
        "equidistance": {
            "equidistant": eq.equidistant,
            "s_per_group": list(eq.s_per_group),
            "s": eq.s,
            "cross_group_range": list(eq.cross_group_range) if eq.cross_group_range else None,
        },
    }
    ok = report.passed
    if s is not None:
        design = conical_design_check(geam)
        doc["conical_design"] = {
            "kappa_plus": design.kappa_plus,
            "kappa_minus": design.kappa_minus,
            "residual": design.residual,
            "passed": design.residual <= 1e-9,
        }
        ok = ok and design.residual <= 1e-9

        rng = np.random.default_rng(args.seed)
        d, n = geam.d, geam.n_groups
        purity_resid = 0.0
        for i in range(args.samples):
            rho = random_density_matrix(d, rng, rank=1 if i % 2 else None)
            c_n = coincidence_index(geam, rho, n)
            predicted = s * (np.trace(rho @ rho).real - 1.0 / d) + geam.derived.mu(n)
            purity_resid = max(purity_resid, abs(c_n - predicted))
        worst_slack = np.inf
        gap_n = 0.0
        for _ in range(args.samples):
            x = random_trace_one_operator(d, rng)
            for l in range(1, n + 1):
                slack = coincidence_bound(geam, x, l) - coincidence_index(geam, x, l)
                worst_slack = min(worst_slack, slack)
                if l == n:
                    gap_n = max(gap_n, abs(slack))
        doc["coincidence"] = {
            "purity_relation_residual": float(purity_resid),
            "worst_bound_slack": float(worst_slack),
            "max_gap_at_full_range": float(gap_n),
            "passed": bool(purity_resid <= 1e-9 and worst_slack >= -1e-9
                           and gap_n <= 1e-10),
        }
        ok = ok and doc["coincidence"]["passed"]
    write_json(doc, args.out, timestamp=not args.no_timestamp)
    print(f"validation {'passed' if report.passed else 'FAILED'}; "
          f"equidistant={eq.equidistant}; wrote {args.out}")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_witness(args) -> int:
    geam = load_geam(args.geam)
    in_fp = fingerprint(read_json(args.geam))
    rotations = rotation_set(geam, args.rotation_seed)
    witness = build_witness(geam, rotations, args.k, args.l, args.kk,
                            geam_fingerprint=in_fp, rotation_seed=args.rotation_seed)
    save_witness(witness, args.out, timestamp=not args.no_timestamp)
    print(f"witness k={args.k} L={args.l} K={args.kk} "
          f"a_k={witness.meta['a_k']:.6f}; wrote {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    witness = load_witness(args.witness)
    in_fp = fingerprint(read_json(args.witness))
    k = args.k if args.k is not None else witness.meta.get("k")
    if k is None:
        raise ValidationError("witness metadata has no k; pass --k explicitly")
    k = int(k)
    report = min_schmidt_k(witness, k, restarts=args.restarts, iters=args.iters,
                           seed=args.seed)
    phi = superop_from_choi(witness.w, witness.d)
    mehta = mehta_ratio(phi, k, samples=args.mehta_samples, seed=args.seed)
    d = witness.d
    doc = certification_document(
        report,
        witness_fingerprint=in_fp,
        mehta={
            "max_ratio": mehta.max_ratio,
            "samples": mehta.samples,
            "skipped": mehta.skipped,
            "threshold_output_dimension": 1.0 / (d - 1),
            "threshold_extended_dimension": 1.0 / (k * d - 1),
        },
    )
    write_json(doc, args.out, timestamp=not args.no_timestamp)
    print(f"verdict: {report.verdict} (min value {report.min_value:.3e}); "
          f"max purity ratio {mehta.max_ratio}; wrote {args.out}")
    return EXIT_CERTIFICATION if report.verdict == VERDICT_VIOLATED else EXIT_OK


def cmd_detect(args) -> int:
    witness = load_witness(args.witness)
    if args.family != "isotropic":
        raise ValidationError(f"unknown family {args.family!r}")
    records = sweep_isotropic(witness, steps=args.steps)
    write_detection_csv(records, args.out)
    threshold = detection_threshold(witness)
    n_detected = sum(r.detected for r in records)
    print(f"{n_detected}/{len(records)} grid points detected; "
          f"threshold p* = {threshold}; wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geamkit",
        description="Generalized equiangular measurements, the associated "
                    "linear maps, and Schmidt number witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-geam", help="construct and validate a GEAM")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--layout", required=True,
                   help="'mub' or comma-separated frame sizes, e.g. '3,3,3,3' or '9'")
    p.add_argument("--gamma", default="uniform",
                   help="'uniform' or comma-separated weights")
    p.add_argument("--b", required=True, help="one value or comma-separated per group")
    p.add_argument("--tau", default="auto", help="'auto' or comma-separated +-1")
    p.add_argument("--unitary-seed", type=int, default=None,
                   help="conjugate the basis by a seeded Haar unitary")
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_build_geam)

    p = sub.add_parser("analyze", help="equidistance, 2-design, coincidence checks")
    p.add_argument("--geam", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("witness", help="build a Schmidt-number witness")
    p.add_argument("--geam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kk", type=int, required=True)
    p.add_argument("--rotation-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("certify", help="numerically certify k-positivity")
    p.add_argument("--witness", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--iters", type=int, default=500,
                   help="cap on see-saw rounds of two half-steps per restart")
    p.add_argument("--mehta-samples", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("detect", help="sweep a witness over a state family")
    p.add_argument("--witness", required=True)
    p.add_argument("--family", default="isotropic", choices=["isotropic"])
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--seed", type=int, default=None,
                   help="unused: the sweep is deterministic; accepted so that "
                        "existing invocations keep working")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
