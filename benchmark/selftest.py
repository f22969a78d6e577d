"""Self-test of the output checks: each must pass a real output and reject a corrupted one.

    python3 benchmark/selftest.py

Real outputs come from one d = 3 CLI pass, library witnesses and one
k = d certification. Each corruption is small (1e-6 on one entry, 1e-9
on S, a threshold from rounding noise), so a check that passes it would
be too loose to stand behind the benchmark's results. The d = 2 CLI pass
of the benchmark, whose detect reports a crossing from rounding noise,
must be rejected as well.
Also confirms that BENCHMARK.json declares exactly the metrics run.py
prints. Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import sys
import tempfile

import run  # sets the thread-count environment before numpy is imported

gk, _ = run.import_geamkit()

import checks  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

D = 3


def main() -> int:
    problems = []

    def rejects(label, fn):
        try:
            fn()
        except checks.CheckError as exc:
            print(f"ok   {label}: rejected ({exc})")
            return
        problems.append(label)
        print(f"FAIL {label}: accepted")

    def accepts(label, fn):
        try:
            fn()
        except checks.CheckError as exc:
            problems.append(label)
            print(f"FAIL {label}: rejected a real output ({exc})")
            return
        print(f"ok   {label}: accepted")

    tracer = spans.Tracer()
    wl = workloads.setup(gk, "cli-pipeline", 0, tracer)
    refdata = workloads.reference_data(0)
    run.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS_DIR, prefix="selftest-") as tmp:
        workloads.build_ops(gk, wl, refdata, tmp)
        op = wl.cli_ops[D]
        stdout = op.run(tracer)
        accepts(f"CLI pass at d = {D}, all checks", lambda: op.check(stdout))
        noisy = wl.cli_ops[2]
        noisy_stdout = noisy.run(tracer)
        rejects(f"CLI pass at d = 2 ({noisy.label}, --rotation-seed 0), "
                "threshold from rounding noise", lambda: noisy.check(noisy_stdout))
        path = lambda name: f"{tmp}/d{D}-{name}"  # noqa: E731
        ref, groups = checks.geam_from_document(checks.read_json(path("geam.json")))
        analysis = checks.read_json(path("analysis.json"))
        wdoc = checks.read_json(path("witness.json"))
        cert = checks.read_json(path("cert.json"))
        rows = checks.read_detection_csv(path("sweep.csv"))
    k = wl.layers[D].cli["k"]
    w = checks.pairs_to_array(wdoc["matrix"])
    argmin = checks.pairs_to_array(cert["argmin"])
    pool = refdata[D]["pools"][k]
    states = refdata[D]["states"]

    layer = wl.layers[D]
    rots = layer.rotations[0]
    lib = gk.build_witness(layer.geam, rots, 1, 1, 3)
    definition = (layer.geam.ops, rots, 1, 3)
    accepts("library witness against its definition",
            lambda: checks.check_witness(lib.w, layer.ref, 1, meta=lib.meta,
                                         definition=definition))

    off = lib.w.copy()
    off[0, 1] += 1e-6
    rejects("witness, off-diagonal entry + 1e-6",
            lambda: checks.check_witness(off, layer.ref, 1, definition=definition))
    diag = lib.w.copy()
    diag[0, 0] += 1e-6
    rejects("witness, diagonal entry + 1e-6 (still Hermitian)",
            lambda: checks.check_witness(diag, layer.ref, 1))

    lam = float(np.linalg.eigvalsh(w)[0])
    rejects("certificate, min_value below lambda_min(W)",
            lambda: checks.check_certification(w, k, cert["verdict"], lam - 1e-6, argmin, pool))

    kd = gk.build_witness(layer.geam, layer.kd_rotations[0], D, 1, 2).w
    lams, vecs = np.linalg.eigh(kd)
    # a unit vector 1e-6 above lambda_min: every other certification check holds
    t = np.arcsin(np.sqrt(1e-6 / (lams[-1] - lams[0])))
    psi = np.cos(t) * vecs[:, 0] + np.sin(t) * vecs[:, -1]
    near = float((psi.conj() @ kd @ psi).real)
    accepts("k = d certificate at lambda_min(W)",
            lambda: checks.check_certification(kd, D, checks.CERTIFIED, float(lams[0]),
                                               vecs[:, 0].reshape(D, D), refdata[D]["pools"][D]))
    rejects("k = d certificate 1e-6 above lambda_min(W)",
            lambda: checks.check_certification(kd, D, checks.CERTIFIED, near,
                                               psi.reshape(D, D), refdata[D]["pools"][D]))

    # I - |Phi><Phi| has expectation 1 - F(p): 0 at p = 1 and positive below, like
    # the d = 2 witnesses whose rounding noise gives detection_threshold p* near 1
    phi = np.eye(D).reshape(-1) / np.sqrt(D)
    touching = np.eye(D * D) - np.outer(phi, phi)
    accepts("I - |Phi><Phi|, no threshold",
            lambda: checks.check_detection(touching, D, k, [], None))
    rejects("I - |Phi><Phi| with threshold p* = 1 - 2e-16",
            lambda: checks.check_detection(touching, D, k, [], 1 - 2e-16))
    classic = k / D * np.eye(D * D) - np.outer(phi, phi)  # crosses 0 at F = k/d
    p_cross = (k / D - 1 / D ** 2) / (1 - 1 / D ** 2)
    accepts("(k/d) I - |Phi><Phi| with its threshold",
            lambda: checks.check_detection(classic, D, k, [], p_cross))
    rejects("(k/d) I - |Phi><Phi| reported without a threshold",
            lambda: checks.check_detection(classic, D, k, [], None))

    flagged = copy.deepcopy(rows)
    flagged[0]["detected"] = True  # p = 0: F = 1/d^2 <= k/d
    rejects("sweep CSV, row at p = 0 flagged as detected",
            lambda: checks.check_detection(w, D, k, flagged, None))

    bad_groups = [g.copy() for g in groups]
    bad_groups[0][0] += 1e-6 / D * np.eye(D)
    rejects("GEAM, one operator's trace + 1e-6",
            lambda: checks.check_geam(ref, bad_groups))

    bad_analysis = copy.deepcopy(analysis)
    bad_analysis["equidistance"]["s"] += 1e-9
    rejects("analysis, S + 1e-9",
            lambda: checks.check_analysis(bad_analysis, ref, groups, states))

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed == list(declared):
            print(f"ok   BENCHMARK.json {key}: {len(listed)} metrics match run.py")
        else:
            problems.append(f"BENCHMARK.json {key}")
            print(f"FAIL BENCHMARK.json {key} differs from run.py")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
