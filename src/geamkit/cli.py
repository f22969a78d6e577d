"""Command-line interface: build, analyze, witness, certify, detect.

Every stochastic subcommand requires an explicit seed, outputs embed the
fingerprints of their inputs, and repeated runs with the same
configuration produce byte-identical files once timestamps are disabled.
Exit codes: 0 success, 2 validation failure, 3 numerical-certification
violation, 4 I/O error.
"""

import argparse
import sys

from .basis import gell_mann_hermitian_basis
from .certify import VERDICT_VIOLATED, mehta_ratio, min_schmidt_k
from .detect import detection_threshold, sweep_isotropic
from .errors import GeamError, ValidationError
from .fixtures import mub_layout
from .geam import GeamParams, analyze_geam, build_geam, validate_geam
from .maps import build_witness, rotation_set, superop_from_choi
from .serialize import ANALYSIS_FORMAT, certification_document, fingerprint, \
    load_geam, load_witness, read_json, save_geam, save_witness, \
    write_detection_csv, write_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4


def _parse_list(text: str, name: str, kind, n: int | None = None) -> list:
    """Comma-separated values of one kind; with n, one value is repeated n times."""
    try:
        vals = [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse {name} {text!r}") from None
    if n is None:
        return vals
    if len(vals) == 1:
        return vals * n
    if len(vals) != n:
        raise ValidationError(f"{name} needs 1 or {n} values, got {len(vals)}")
    return vals


def _int_at_least(low: int):
    """argparse type: an int >= low (seeds >= 0, counts >= 1)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def cmd_build_geam(args) -> int:
    if args.layout.strip().lower() == "mub":
        m = mub_layout(args.d)
    else:
        m = _parse_list(args.layout, "layout", int)
    n = len(m)
    if args.gamma.strip().lower() == "uniform":
        gamma = [1.0 / n] * n
    else:
        gamma = _parse_list(args.gamma, "gamma", float, n)
    b = _parse_list(args.b, "b", float, n)
    auto = args.tau.strip().lower() == "auto"
    tau_sign = [1] * n if auto else _parse_list(args.tau, "tau", int, n)
    params = GeamParams(d=args.d, m=m, gamma=gamma, b=b, tau_sign=tau_sign)
    basis = gell_mann_hermitian_basis(args.d, m, unitary_seed=args.unitary_seed)
    geam = build_geam(basis, params, auto_sign=auto)
    report = validate_geam(geam)
    fp = save_geam(geam, args.out, timestamp=not args.no_timestamp)
    print(report.summary())
    print(f"wrote {args.out} (fingerprint {fp})")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_analyze(args) -> int:
    geam = load_geam(args.geam)
    sections = analyze_geam(geam)
    doc = {"format": ANALYSIS_FORMAT, "input_fingerprint": fingerprint(read_json(args.geam)),
           **sections}
    write_json(doc, args.out, timestamp=not args.no_timestamp)
    print(f"validation {'passed' if sections['validation']['passed'] else 'FAILED'}; "
          f"equidistant={sections['equidistance']['equidistant']}; wrote {args.out}")
    ok = all(sec.get("passed", True) for sec in sections.values())
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
    report = min_schmidt_k(witness, k, restarts=args.restarts, iters=args.iters,
                           seed=args.seed)
    phi = superop_from_choi(witness.w, witness.d)
    mehta = mehta_ratio(phi, k, samples=args.mehta_samples, seed=args.seed)
    doc = certification_document(report, mehta, in_fp)
    write_json(doc, args.out, timestamp=not args.no_timestamp)
    print(f"verdict: {report.verdict} (min value {report.min_value:.3e}); "
          f"max purity ratio {mehta.max_ratio}; wrote {args.out}")
    return EXIT_CERTIFICATION if report.verdict == VERDICT_VIOLATED else EXIT_OK


def cmd_detect(args) -> int:
    witness = load_witness(args.witness)
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
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--layout", required=True,
                   help="'mub' or comma-separated frame sizes, e.g. '3,3,3,3' or '9'")
    p.add_argument("--gamma", default="uniform",
                   help="'uniform' or comma-separated weights")
    p.add_argument("--b", required=True, help="one value or comma-separated per group")
    p.add_argument("--tau", default="auto", help="'auto' or comma-separated +-1")
    p.add_argument("--unitary-seed", type=_int_at_least(0), default=None,
                   help="conjugate the basis by a seeded Haar unitary")
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_build_geam)

    p = sub.add_parser("analyze", help="equidistance, 2-design, coincidence checks")
    p.add_argument("--geam", required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True,
                   help="unused: the analysis is exact; accepted so that existing "
                        "invocations keep working")
    p.add_argument("--samples", type=_int_at_least(1), default=200, help="unused, as --seed")
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("witness", help="build a Schmidt-number witness")
    p.add_argument("--geam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--kk", type=int, required=True)
    p.add_argument("--rotation-seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("certify", help="numerically certify k-positivity")
    p.add_argument("--witness", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--restarts", type=_int_at_least(1), default=50)
    p.add_argument("--iters", type=_int_at_least(1), default=500,
                   help="cap on see-saw rounds of two half-steps per restart")
    p.add_argument("--mehta-samples", type=_int_at_least(1), default=500)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("detect", help="sweep a witness over a state family")
    p.add_argument("--witness", required=True)
    p.add_argument("--steps", type=_int_at_least(1), default=101)
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
