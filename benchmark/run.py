"""geamkit benchmark: one workload per run, closed loop, one caller.

    python3 benchmark/run.py --workload cli-pipeline --seed 1 --seconds 20 --trace 0

The run imports geamkit from the checkout's src/, builds the workload's
inputs from --seed, then repeats whole rounds of the same operations
until --seconds have passed (at least one round). Every output is checked
against values the benchmark computes itself (checks.py). The last line
of standard output is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0 and per layer with --trace 1. A result
file with provenance goes to benchmark/results/, and with --trace 1 the
spans go beside it as JSONL.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("cli-pipeline", "certify-grid", "witness-sweep")
DIMS = (2, 3, 4)
SETUP_REPEATS = 5

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("d2_op_ms", "ms"), ("d3_op_ms", "ms"),
              ("d4_op_ms", "ms"), ("peak_rss_mib", "MiB")]
LAYER_FUNCTIONS = [
    "basis.gell_mann_hermitian_basis", "basis.frame_operators", "geam.build_geam",
    "geam.validate_geam", "geam.equidistance", "geam.coincidence_bound",
    "geam.coincidence_index", "geam.conical_design_check", "maps.build_witness",
    "maps.phi_k", "maps.frame_witness", "maps.a_coefficient", "certify.min_schmidt_k",
    "certify.min_schmidt_k_kd", "certify.mehta_ratio", "detect.detection_threshold",
    "detect.sweep_isotropic", "serialize.save_geam", "serialize.load_geam",
    "serialize.save_witness", "serialize.load_witness", "cli.build-geam", "cli.analyze",
    "cli.witness", "cli.certify", "cli.detect",
]
PER_LAYER = ([(f"{f}.d{d}.ms", "ms") for f in LAYER_FUNCTIONS for d in DIMS]
             + [(f"serialize.{kind}_bytes.d{d}", "bytes")
                for kind in ("geam", "witness") for d in DIMS]
             + [("trace.overhead_s", "s")])


def import_geamkit():
    """Import geamkit from this checkout, afresh: its own modules are dropped
    from sys.modules first. Only the first call imports numpy and scipy too."""
    src = ROOT / "src"
    if not (src / "geamkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no geamkit package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "geamkit" or m.startswith("geamkit.")]:
        del sys.modules[name]
    start = perf_counter()
    gk = importlib.import_module("geamkit")
    importlib.import_module("geamkit.cli")
    seconds = perf_counter() - start
    if Path(gk.__file__).resolve().parent != src / "geamkit":
        raise SystemExit(f"error: geamkit imported from {gk.__file__}, not from {src}")
    return gk, seconds


class Rounds:
    """Outcome of whole rounds of operations run back to back."""

    def __init__(self):
        self.round_s = []  # summed operation time per round
        self.op_ms = {d: [] for d in DIMS}  # operations that returned, checked or not
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_rounds(ops, seconds: float, tracer) -> Rounds:
    """Repeat whole rounds until `seconds` have passed, at least one."""
    out = Rounds()
    start = perf_counter()
    while True:
        total = 0.0
        for op in ops:
            out.attempted += 1
            tracer.op = out.attempted
            t0 = perf_counter()
            try:
                with tracer.span("op", op.d):
                    outputs = op.run(tracer)
            except Exception as exc:  # a failing operation is counted, the run goes on
                total += perf_counter() - t0
                out.failed += 1
                out.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            total += dt
            out.op_ms[op.d].append(dt * 1e3)
            try:
                op.check(outputs)
            except Exception as exc:  # a malformed artifact is rejected too
                out.failed += 1
                out.errors.append(f"{op.label}: check rejected: {exc!r}")
        out.round_s.append(total)
        if perf_counter() - start >= seconds:
            return out


def tail(samples):
    """Highest percentile with at least ten samples beyond it (None below 40)."""
    n = len(samples)
    if n < 40:
        return None
    p = math.floor(100 * (1 - 10 / n))
    ordered = sorted(samples)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int):
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    origin = perf_counter()
    gk, first_import_s = import_geamkit()
    import checks
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.enabled = bool(args.trace)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="tmp-") as tmp:
        # The first import is mostly numpy and scipy and swings with the file
        # cache, so set-up is timed on fresh imports of geamkit's own modules.
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            gk, _ = import_geamkit()
            wl = workloads.setup(gk, args.workload, args.seed, tracer)
            setup_runs.append(perf_counter() - t0)
        setup_s = statistics.median(setup_runs)
        refdata = workloads.reference_data(args.seed)
        input_problem = None
        try:
            workloads.check_inputs(wl)
        except checks.CheckError as exc:
            input_problem = str(exc)
        workloads.build_ops(gk, wl, refdata, tmp)

        tracer.enabled = False
        try:  # warm lazy imports and caches; the rounds count this operation again
            wl.ops[0].run(tracer)
        except Exception:
            pass
        tracer.enabled = bool(args.trace)
        before = len(tracer.spans)
        result = run_rounds(wl.ops, args.seconds, tracer)
        probe_rejected = []
        if args.trace:
            round_spans = (len(tracer.spans) - before) / len(result.round_s)
            probe_rejected = workloads.probe(gk, wl, refdata, tmp, tracer)
            metrics = {}
            for f in LAYER_FUNCTIONS:
                for d in DIMS:
                    if f == "certify.min_schmidt_k_kd":
                        value = tracer.median_ms("certify.min_schmidt_k", d, k=d)
                    else:
                        value = tracer.median_ms(f, d)
                    metrics[f"{f}.d{d}.ms"] = value
            for (kind, d), size in sorted(wl.sizes.items()):
                metrics[f"serialize.{kind}_bytes.d{d}"] = size
            metrics["trace.overhead_s"] = round_spans * spans.cost_s()
            units = dict(PER_LAYER)
        else:
            metrics = {"setup_s": setup_s, "run_s": statistics.fmean(result.round_s)}
            for d in DIMS:
                if not result.op_ms[d]:
                    raise SystemExit(f"error: every operation at d = {d} raised: "
                                     f"{result.errors[:3]}")
                metrics[f"d{d}_op_ms"] = statistics.median(result.op_ms[d])
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)

    # An operation whose output a check rejects is counted in failed; correct
    # speaks of the inputs and of the operations that did not fail.
    correct = input_problem is None
    for line in result.errors[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in probe_rejected:
        print(f"direct call {line}", file=sys.stderr)
    if input_problem:
        print(f"input check failed: {input_problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    detail = {}
    if not args.trace:
        for d in DIMS:
            samples = result.op_ms[d]
            t = tail(samples)
            detail[f"d{d}_op_ms"] = {"n": len(samples), "tail_percentile": t and t[0],
                                     "tail_value": t and t[1]}
            extra = f"p{t[0]} {t[1]:.6g} ms" if t else "no tail (fewer than 40 samples)"
            print(f"  d{d}_op_ms: {len(samples)} operations; {extra}")
    detail["first_import_s"] = first_import_s
    detail["setup_runs_s"] = setup_runs
    detail["round_s"] = result.round_s
    detail["run_s"] = statistics.fmean(result.round_s)
    if args.trace:
        detail["spans_per_round"] = round_spans
        detail["direct_call_rejections"] = probe_rejected
    print(f"attempted {result.attempted}, failed {result.failed}, correct {correct}")

    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed),
              "correct": correct, "attempted": result.attempted, "failed": result.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "detail": detail, "errors": result.errors[:50]}
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_jsonl(RESULTS_DIR / f"{stem}.spans.jsonl", origin)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
