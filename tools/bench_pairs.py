"""Run the benchmark on two revisions in alternating pairs and summarise it.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload train-binary serve-predict --seed 1 --pairs 10 \
        --seconds 30 --out BENCH_N.json

Each revision is exported with `git archive` into its own directory, so both
sides run from clean trees that hold only committed files (uncommitted work
can be named by the commit `git stash create` prints). Every run is
`benchmarks/run.py --workload W --seed S --seconds T --trace 0` in its own
process (`--trace 1` runs the per-layer repetitions instead). A pair is one run of each side, one after the other; the side that
goes first alternates (even-numbered pairs, counted from 0, run the parent
first), so a drift in the host's speed does not favour either side.

For each workload and each metric of the runs' last JSON line, the summary
holds each side's median, inclusive-method quartiles and run count, the
change against the parent's median in percent, the parent's interquartile
range, and `change_wins`: the pairs where the change reads better, by the
direction `BENCHMARK.json` gives the metric (lower where it names none),
ties counting for neither side. Each end-to-end metric also gets its
`BENCHMARK.json` `bound` and `beyond_bound`: whether the change's median is
worse than the parent's by more than bound x the parent's median, in the
metric's direction. The machine lines the runs print and the
checkpoint digests the train workloads print are kept, and each train
workload gets `digests_match`: whether every run of both sides wrote the
same checkpoint; where they did not, a line says so. Where `--out`
already holds a summary of the same two commits, the new workloads are
added to it, so a held-out seed can be run separately. Only the standard
library is used; the runs need what the benchmark needs.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-continuous", "train-binary", "serve-predict")
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into `dest`; return the commit's full hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in `tree`: its result line, with the machine line
    and the checkpoint digest the report prints (None for serve-predict)."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           + "\n".join((proc.stdout + proc.stderr).splitlines()[-20:]))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digests = [line.split()[2] for line in lines if line.startswith("checkpoint sha256 ")]
    result["digest"] = digests[0] if digests else None
    result["machine"] = next(line for line in lines if line.startswith("machine "))
    return result


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(runs: dict, better: dict, bounds: dict | None = None) -> dict:
    """Per metric: each side's median and quartiles, the change's shift and
    its wins over the pairs; for a metric `bounds` names, its bound and
    whether the change's median is beyond it."""
    bounds = bounds or {}
    out = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, q3 = quartiles(values[side])
            entry[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3,
                           "n": len(values[side])}
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        entry["change_vs_parent_pct"] = (round((change / parent - 1.0) * 100.0, 1)
                                         if parent else None)
        entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        entry["change_wins"] = f"{wins}/{len(values['change'])}"
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["beyond_bound"] = sign * (parent - change) > bounds[name] * abs(parent)
        entry["unit"] = runs["parent"][0]["metrics"][name]["unit"]
        out[name] = entry
    return out


def compare_digests(sides: dict) -> tuple[dict, bool | None]:
    """Each side's distinct checkpoint digests, sorted, and whether all runs
    of both sides printed one and the same; None where no run printed a
    digest (serve-predict)."""
    digests = {side: sorted({r["digest"] for r in sides[side]} - {None}) for side in SIDES}
    if not any(digests.values()):
        return digests, None
    return digests, len(digests["parent"]) == 1 and digests["parent"] == digests["change"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the baseline revision")
    parser.add_argument("--change", required=True, help="the revision measured against it")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="the summary JSON file")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {side: work / side for side in SIDES}
        commits = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
               else {"commits": commits, "workloads": {}})
        if doc["commits"] != commits:
            raise SystemExit(f"{args.out} summarises other commits: {doc['commits']}")
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"]
                  for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}
        bounds = {m["name"]: m["bound"] for m in declared.get("end_to_end", [])}
        runs = {w: {side: [] for side in SIDES} for w in args.workload}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                for side in order:
                    result = run_once(trees[side], workload, args.seed, args.seconds,
                                      args.trace)
                    runs[workload][side].append(result)
                    print(f"pair {i} {workload} {side}: "
                          + " ".join(f"{k}={v['value']:.6g}"
                                     for k, v in result["metrics"].items()), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload, sides in runs.items():
        digests, match = compare_digests(sides)
        if match is False:
            print(f"{workload} seed {args.seed}: checkpoint digests differ: "
                  + "; ".join(f"{side} {' '.join(digests[side])}" for side in SIDES))
        key = f"{workload} seed {args.seed} trace {args.trace}"
        doc["workloads"][key] = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "pairs_run": args.pairs,
            "order": "alternating, even-numbered pairs parent first",
            "all_correct": all(r["correct"] for s in SIDES for r in sides[s]),
            "attempted_total": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "failed_total": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "digests": digests,
            "machines": sorted({r["machine"] for s in SIDES for r in sides[s]}),
            "summary": summarise(sides, better, bounds),
        }
        if match is not None:
            doc["workloads"][key]["digests_match"] = match
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
