"""Compare two sets of benchmark results, for example a parent commit and a change.

    python3 benchmark/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (it writes to
benchmark/results/; copy that directory aside after measuring each
commit). Only untraced runs are read. For each workload and each
end-to-end metric of BENCHMARK.json the command prints each side's median
and quartiles, the share of pairs (runs with the same seed) that the
change won, ties counting for neither, and a verdict:

    unresolved  either side's quartile distance, as a share of its median,
                is wider than the bound, and not every change run beats
                every base run
    WORSE       the change's median is worse than the base median by more
                than the bound
    gain        the change won at least 9/10 of the pairs and its median is
                better by more than the base's quartile distance
    within      none of the above

It also prints each side's failed share (failed over attempted, summed
over the untraced runs) and, where traced runs of the same seeds are
there, the median of traced run_s minus untraced run_s: a reading of the
tracing cost that the machine's drift between runs blurs.

Exits 1 when any metric is WORSE, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """workload -> metric -> {seed: value} over the untraced result files, with
    the pseudo-metrics "failed", "attempted" and "traced_run_s"."""
    out = {}
    for path in sorted(Path(directory).glob("*.trace[01].json")):
        record = json.loads(path.read_text())
        per_metric = out.setdefault(record["workload"], {})
        seed = record["seed"]
        if record["trace"]:
            per_metric.setdefault("traced_run_s", {})[seed] = record["detail"]["run_s"]
            continue
        for name, m in record["metrics"].items():
            per_metric.setdefault(name, {})[seed] = m["value"]
        for name in ("failed", "attempted"):
            per_metric.setdefault(name, {})[seed] = record[name]
    return out


def side_notes(runs: dict) -> str:
    failed, attempted = sum(runs["failed"].values()), sum(runs["attempted"].values())
    text = f"failed {failed}/{attempted} = {failed / attempted:.4%}"
    pairs = sorted(set(runs.get("traced_run_s", {})) & set(runs["run_s"]))
    if pairs:
        diff = statistics.median(runs["traced_run_s"][s] - runs["run_s"][s] for s in pairs)
        text += f"; traced - untraced run_s {diff:+.4g} s over {len(pairs)} seeds"
    return text


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict, change: dict, better: str, bound: float):
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0 means x is worse
    b_q1, b_med, b_q3 = quartiles(sorted(base.values()))
    c_q1, c_med, c_q3 = quartiles(sorted(change.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    share = wins / len(seeds) if seeds else float("nan")
    spread = max((b_q3 - b_q1) / abs(b_med), (c_q3 - c_q1) / abs(c_med))
    worse = sign * (c_med - b_med) / abs(b_med)
    every = all(sign * (c - b) < 0 for c in change.values() for b in base.values())
    if spread > bound and not every:
        word = "unresolved"
    elif worse > bound:
        word = "WORSE"
    elif share >= 0.9 and -sign * (c_med - b_med) > b_q3 - b_q1:
        word = "gain"
    else:
        word = "within"
    return (b_med, b_q1, b_q3), (c_med, c_q1, c_q3), wins, len(seeds), worse, spread, word


def _cell(q) -> str:
    return f"{q[0]:.5g} [{q[1]:.5g}, {q[2]:.5g}]"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(argv[0]), load(argv[1])
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            print(f"{workload}: no results on {'base' if workload not in base else 'change'} side")
            continue
        print(f"{workload}  (base n = {len(base[workload]['run_s'])}, "
              f"change n = {len(change[workload]['run_s'])})")
        print(f"  base:   {side_notes(base[workload])}")
        print(f"  change: {side_notes(change[workload])}")
        print(f"  {'metric':<14}{'base median [q1, q3]':<34}{'change median [q1, q3]':<34}"
              f"{'won':<8}{'change':>8}{'spread':>8}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            b, c, wins, pairs, worse, spread, word = verdict(
                base[workload][name], change[workload][name], m["better"], m["bound"])
            regressions += word == "WORSE"
            print(f"  {name:<14}{_cell(b):<34}{_cell(c):<34}{f'{wins}/{pairs}':<8}"
                  f"{worse:>+8.1%}{spread:>8.1%}{m['bound']:>7.0%}  {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
