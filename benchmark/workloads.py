"""Inputs, operations and output checks of the three workloads.

The program's inputs are derived from the workload seed (the rotation
sets, the (k, L, K) of each CLI pass and the --seed and --rotation-seed
values handed to the CLI), with three fixed exceptions, the same in every
run, so that each run fails the same share of its operations:

- the k = d rows of certify-grid run on rotation sets from the constant
  stream KD_STREAM with min_schmidt_k seed 0. On some inputs
  min_schmidt_k misses lambda_min(W) by more than the 1e-7 the check
  allows; drawn from the workload seed, those inputs would come on some
  seeds only. KD_STREAM is the stream of the known miss at d = 3 (first
  set, L = 1, K = 4), which therefore fails in every round;
- witness-sweep uses all eight rotation sets that exist at d = 2. There
  detection_threshold reports a crossing from rounding noise for every
  witness whose expectation at p = 1 is exactly 0, which depends on the set;
- the d = 2 CLI pass runs the witness k = 1, L = 1, K = 3 with
  --rotation-seed 0, on which detect reports such a crossing every time.

The random states the checks use come from a second stream of the same
seed and never reach the program.
"""

import contextlib
import io
import itertools
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

LAYOUTS = {2: 1.0, 3: 0.5, 4: 0.3}  # d -> b of the MUB layout, uniform gamma
# Rotation sets per d. certify-grid has only 12 operations per set at d = 2,
# so it takes four sets there to give d2_op_ms a few dozen samples per run.
# witness-sweep takes all eight sets at d = 2 (qubit_rotation_sets).
ROTATION_SETS = {"cli-pipeline": {2: 1, 3: 1, 4: 1}, "certify-grid": {2: 4, 3: 1, 4: 1},
                 "witness-sweep": {2: 8, 3: 4, 4: 4}}
KD_STREAM = 8  # rotation sets of the certify-grid k = d rows, the same in every run
CLI_FIXED = {2: {"k": 1, "l": 1, "kk": 3, "rotation": 0}}  # detect: p* from rounding noise
SWEEP_STEPS = 101
MEHTA_SAMPLES = 500  # the CLI default, checked against the certificate
POOL_SIZE = 400  # random rank-k states bounding each certified minimum from above
STATE_COUNT = 8  # random states for the purity-line check of the analysis
PROBE_REPS = 3


class OpFailed(Exception):
    """A CLI command exited with a non-zero code."""


@dataclass
class Op:
    d: int
    label: str
    run: Callable  # run(tracer) -> outputs; only this part is timed
    check: Callable  # check(outputs) raises checks.CheckError


@dataclass
class Layer:
    """The inputs of one dimension."""

    ref: checks.Reference
    basis: object
    geam: object
    report: object
    rotations: list  # rotation sets, one orthogonal matrix per group
    kd_rotations: list  # fixed rotation sets of the k = d certifications
    certify_seeds: list  # one min_schmidt_k seed per rotation set and k < d grid entry
    cli: dict  # k, l, kk and the seeds of the CLI pass
    probe_x: np.ndarray  # unit-trace operator for the direct coincidence calls


@dataclass
class Workload:
    name: str
    layers: dict
    ops: list = field(default_factory=list)
    cli_ops: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def grid(d: int, ks) -> list:
    """Every k of ks and every 1 <= L <= K <= N of the MUB layout."""
    n = d + 1
    return [(k, l, kk) for k in ks for kk in range(1, n + 1) for l in range(1, kk + 1)]


def qubit_rotation_sets() -> list:
    """All eight rotation sets at d = 2: a rotation of a two-element group
    that fixes (1, 1) is the identity or the swap."""
    one, swap = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    return [list(s) for s in itertools.product((one, swap), repeat=3)]


def kd_rotation_sets(ref, sets: int) -> list:
    rng = np.random.default_rng(KD_STREAM)
    return [[checks.draw_rotation(m, rng) for m in ref.m] for _ in range(sets)]


def _streams(seed: int):
    inputs, reference = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(inputs), np.random.default_rng(reference)


def _seed(rng) -> int:
    return int(rng.integers(2 ** 31))


def setup(gk, name: str, seed: int, tracer) -> Workload:
    """Build the GEAMs through the library and draw the program's inputs."""
    rng, _ = _streams(seed)
    layers = {}
    for d, b in LAYOUTS.items():
        ref = checks.mub_reference(d, b)
        params = gk.GeamParams(d=d, m=ref.m, gamma=ref.gamma, b=ref.b,
                               tau_sign=(1,) * ref.n)
        with tracer.span("basis.gell_mann_hermitian_basis", d):
            basis = gk.gell_mann_hermitian_basis(d, ref.m)
        with tracer.span("geam.build_geam", d):
            geam = gk.build_geam(basis, params, auto_sign=True)
        with tracer.span("geam.validate_geam", d):
            report = gk.validate_geam(geam)
        sets = ROTATION_SETS[name][d]
        if name == "witness-sweep" and d == 2:
            rotations = qubit_rotation_sets()
        else:
            rotations = [[checks.draw_rotation(m, rng) for m in ref.m] for _ in range(sets)]
        certify_seeds = [_seed(rng) for _ in range(sets * len(grid(d, range(1, d))))]
        # k = d certifications of a seed-drawn witness are not drawn for the CLI pass:
        # their failures would vary with the seed (see the module docstring).
        k_grid = grid(d, range(1, d))
        k, l, kk = k_grid[rng.integers(len(k_grid))]
        cli = {"k": k, "l": l, "kk": kk, "analyze": _seed(rng), "rotation": _seed(rng),
               "certify": _seed(rng), "detect": _seed(rng)}
        cli.update(CLI_FIXED.get(d, {}))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x / np.trace(x)
        layers[d] = Layer(ref, basis, geam, report, rotations,
                          kd_rotation_sets(ref, ROTATION_SETS["certify-grid"][d]),
                          certify_seeds, cli, x)
    return Workload(name, layers)


def reference_data(seed: int) -> dict:
    """Random states the checks evaluate; the program never sees them."""
    _, rng = _streams(seed)
    return {d: {"states": checks.random_states(d, STATE_COUNT, rng),
                "pools": {k: checks.rank_k_pool(d, k, POOL_SIZE, rng)
                          for k in range(1, d + 1)}}
            for d in LAYOUTS}


def check_inputs(wl: Workload):
    """The library GEAMs the workloads start from are checked directly."""
    for layer in wl.layers.values():
        checks.require(layer.report.passed, f"validate_geam failed at d = {layer.ref.d}")
        checks.check_geam(layer.ref, layer.geam.ops)


def build_ops(gk, wl: Workload, refdata: dict, tmp):
    for d, layer in wl.layers.items():
        wl.cli_ops[d] = _cli_op(gk, layer, refdata[d], tmp)
    if wl.name == "cli-pipeline":
        wl.ops = [wl.cli_ops[d] for d in LAYOUTS]
        return
    placed = []
    for d, layer in wl.layers.items():
        if wl.name == "certify-grid":
            seeds = iter(layer.certify_seeds)
            ops = [_certify_op(gk, layer, rots, k, l, kk, next(seeds), refdata[d])
                   for rots in layer.rotations for k, l, kk in grid(d, range(1, d))]
            ops += [_certify_op(gk, layer, rots, d, l, kk, 0, refdata[d], f"fixed set {i}")
                    for i, rots in enumerate(layer.kd_rotations)
                    for _, l, kk in grid(d, [d])]
        else:
            ops = [_sweep_op(gk, layer, rots, k, l, kk, refdata[d])
                   for rots in layer.rotations for k, l, kk in grid(d, range(1, d + 1))]
        placed += [((i + 0.5) / len(ops), d, op) for i, op in enumerate(ops)]
    # Spread each d evenly over the round, so that every d_op_ms median samples
    # the whole run rather than one stretch of the machine's speed.
    wl.ops = [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


# ---------------------------------------------------------------- operations

def _cli_op(gk, layer: Layer, ref_d: dict, tmp) -> Op:
    d, c = layer.ref.d, layer.cli
    k = c["k"]
    path = {name: os.path.join(tmp, f"d{d}-{name}") for name in
            ("geam.json", "analysis.json", "witness.json", "cert.json", "sweep.csv")}
    commands = [
        ("build-geam", ["--d", str(d), "--layout", "mub", "--b", repr(layer.ref.b[0]),
                        "--out", path["geam.json"], "--no-timestamp"]),
        ("analyze", ["--geam", path["geam.json"], "--seed", str(c["analyze"]),
                     "--out", path["analysis.json"], "--no-timestamp"]),
        ("witness", ["--geam", path["geam.json"], "--k", str(k), "--l", str(c["l"]),
                     "--kk", str(c["kk"]), "--rotation-seed", str(c["rotation"]),
                     "--out", path["witness.json"], "--no-timestamp"]),
        ("certify", ["--witness", path["witness.json"], "--seed", str(c["certify"]),
                     "--out", path["cert.json"], "--no-timestamp"]),
        ("detect", ["--witness", path["witness.json"], "--steps", str(SWEEP_STEPS),
                    "--seed", str(c["detect"]), "--out", path["sweep.csv"]]),
    ]

    def run(tracer):
        stdout = {}
        for name, argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with tracer.span("cli." + name, d), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = gk.cli.main([name, *argv])
                except SystemExit as exc:
                    code = exc.code
            if code != 0:
                raise OpFailed(f"{name} exited {code}: {err.getvalue().strip()}")
            stdout[name] = out.getvalue()
        return stdout

    def check(stdout):
        ref, groups = checks.geam_from_document(checks.read_json(path["geam.json"]))
        checks.require((ref.d, ref.m, ref.gamma, ref.b) == (d, layer.ref.m, layer.ref.gamma,
                                                             layer.ref.b),
                       f"artifact layout {ref} differs from the request")
        checks.check_geam(ref, groups)
        checks.check_analysis(checks.read_json(path["analysis.json"]), ref, groups,
                              ref_d["states"])
        wdoc = checks.read_json(path["witness.json"])
        w = checks.pairs_to_array(wdoc["matrix"])
        checks.check_witness(w, ref, k, meta=wdoc["meta"])
        cert = checks.read_json(path["cert.json"])
        checks.require(cert["k"] == k, f"certificate for k = {cert['k']}, want {k}")
        checks.check_certification(w, k, cert["verdict"], cert["min_value"],
                                   checks.pairs_to_array(cert["argmin"]), ref_d["pools"][k])
        m = cert["mehta"]
        checks.check_mehta(m["max_ratio"], d, k, m["samples"], m["skipped"], MEHTA_SAMPLES)
        rows = checks.read_detection_csv(path["sweep.csv"])
        _check_rows_meta(rows, k, c["l"], c["kk"])
        checks.check_detection(w, d, k, rows, parse_threshold(stdout["detect"]))

    return Op(d, f"cli d={d} k={k} L={c['l']} K={c['kk']}", run, check)


def parse_threshold(text: str):
    match = re.search(r"threshold p\* = (\S+?);", text)
    checks.require(match is not None, f"no threshold in detect output {text!r}")
    return None if match.group(1) == "None" else float(match.group(1))


def _check_rows_meta(rows, k, l, kk):
    checks.require(len(rows) == SWEEP_STEPS, f"{len(rows)} sweep rows, want {SWEEP_STEPS}")
    checks.require(all((r["k"], r["l"], r["kk"]) == (k, l, kk) for r in rows),
                   "sweep rows carry the wrong (k, L, K)")


def _certify_op(gk, layer, rots, k, l, kk, seed, ref_d, note="") -> Op:
    d = layer.ref.d

    def run(tracer):
        with tracer.span("maps.build_witness", d):
            w = gk.build_witness(layer.geam, rots, k, l, kk)
        with tracer.span("certify.min_schmidt_k", d, k=k):
            report = gk.min_schmidt_k(w, k, seed=seed)
        return w, report

    def check(out):
        w, report = out
        checks.check_witness(w.w, layer.ref, k, meta=w.meta,
                             definition=(layer.geam.ops, rots, l, kk))
        checks.check_certification(w.w, k, report.verdict, report.min_value,
                                   report.argmin.c, ref_d["pools"][k])

    return Op(d, f"certify d={d} k={k} L={l} K={kk} seed={seed} {note}".rstrip(), run, check)


def _sweep_op(gk, layer, rots, k, l, kk, ref_d) -> Op:
    d = layer.ref.d

    def run(tracer):
        with tracer.span("maps.build_witness", d):
            w = gk.build_witness(layer.geam, rots, k, l, kk)
        with tracer.span("detect.detection_threshold", d):
            p_star = gk.detection_threshold(w)
        with tracer.span("detect.sweep_isotropic", d):
            records = gk.sweep_isotropic(w, steps=SWEEP_STEPS)
        return w, p_star, records

    def check(out):
        w, p_star, records = out
        checks.check_witness(w.w, layer.ref, k, meta=w.meta,
                             definition=(layer.geam.ops, rots, l, kk))
        rows = [{"p": r.parameter, "expectation": r.expectation, "detected": r.detected,
                 "k": r.k, "l": r.l, "kk": r.kk} for r in records]
        _check_rows_meta(rows, k, l, kk)
        checks.check_detection(w.w, d, k, rows, p_star)

    return Op(d, f"sweep d={d} k={k} L={l} K={kk}", run, check)


# ---------------------------------------------------------------- direct calls

def probe(gk, wl: Workload, refdata: dict, tmp, tracer) -> list:
    """Call every layer directly at every d that the traced rounds did not reach.

    Functions that run only inside another call (equidistance inside
    coincidence_bound and a_coefficient, the witness parts inside
    build_witness, mehta_ratio and serialize inside the CLI) get their
    cost per call here, on the workload's own inputs. The witness
    k = d, L = 1, K = N of the first fixed k = d rotation set stands for
    the witness inputs. Where the rounds certified no k = d witness, it
    is certified here and checked like a certify-grid row; the returned
    list names each check that rejected it.
    """
    have = tracer.recorded()
    rejected = []
    for d, layer in wl.layers.items():
        geam, rots, n, x = layer.geam, layer.kd_rotations[0], layer.ref.n, layer.probe_x

        def call(name, fn, reps=PROBE_REPS, **attrs):
            if (name, d) not in have:
                for _ in range(reps):
                    with tracer.span(name, d, **attrs):
                        fn()

        call("basis.frame_operators", lambda: gk.frame_operators(layer.basis))
        call("geam.equidistance", lambda: gk.equidistance(geam))
        call("geam.coincidence_bound", lambda: gk.coincidence_bound(geam, x, n))
        call("geam.coincidence_index", lambda: gk.coincidence_index(geam, x, n))
        call("geam.conical_design_check", lambda: gk.conical_design_check(geam))
        call("maps.a_coefficient", lambda: gk.a_coefficient(geam, d, 1, n))
        call("maps.phi_k", lambda: gk.phi_k(geam, rots, d, 1, n))
        call("maps.frame_witness", lambda: gk.frame_witness(geam, rots, d, 1, n))
        if not tracer.durations_ms("certify.min_schmidt_k", d, k=d):
            op = _certify_op(gk, layer, rots, d, 1, n, 0, refdata[d], "fixed set 0")
            try:
                op.check(op.run(tracer))
            except checks.CheckError as exc:
                rejected.append(f"{op.label}: check rejected: {exc!r}")
        with tracer.span("maps.build_witness", d):
            w = gk.build_witness(geam, rots, d, 1, n)
        with tracer.span("maps.superop_from_choi", d):
            phi = gk.superop_from_choi(w.w, d)
        call("certify.mehta_ratio", lambda: gk.mehta_ratio(phi, d, seed=0), reps=1)
        call("detect.detection_threshold", lambda: gk.detection_threshold(w))
        call("detect.sweep_isotropic", lambda: gk.sweep_isotropic(w, steps=SWEEP_STEPS))
        gpath = os.path.join(tmp, f"probe-d{d}-geam.json")
        wpath = os.path.join(tmp, f"probe-d{d}-witness.json")
        call("serialize.save_geam", lambda: gk.save_geam(geam, gpath, timestamp=False))
        call("serialize.load_geam", lambda: gk.load_geam(gpath))
        call("serialize.save_witness", lambda: gk.save_witness(w, wpath, timestamp=False))
        call("serialize.load_witness", lambda: gk.load_witness(wpath))
        wl.sizes[("geam", d)] = os.path.getsize(gpath)
        wl.sizes[("witness", d)] = os.path.getsize(wpath)
        if ("cli.analyze", d) not in have:
            wl.cli_ops[d].run(tracer)
    return rejected
