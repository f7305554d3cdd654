"""Self-test of the benchmark at reduced input sizes (under a minute).

    python3 benchmarks/selftest.py

Checks, for every workload, that each metric BENCHMARK.json names is emitted
with its unit, untraced and traced; that two traced runs at one seed agree
on the engine counts, the final metric and the checkpoint digest; that the
correctness checks also pass at a second seed, on a continuous dataset drawn
from that seed; that a deliberately failing
request (an out-of-range index) is counted as failed; and that the benchmark
refuses to run, printing no result, where the program's sources are absent.
Exits 1 if any check fails.
"""

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import run

FIRST_SEED, SECOND_SEED = 1, 2


def small_configs(wl):
    cont = dataclasses.replace(wl.TRAIN_CONTINUOUS, n_train=2000, n_test=500)
    binary = dataclasses.replace(wl.TRAIN_BINARY, dims=(100, 50), n_train=3000, n_test=600)
    return {
        "train-continuous": cont,
        "train-binary": binary,
        "serve-predict": wl.ServeConfig(train=cont, requests_per_unit=100),
    }


def drawn_data(cfg):
    """`cfg` with its dataset drawn from the workload seed."""
    if hasattr(cfg, "train"):
        return dataclasses.replace(cfg, train=drawn_data(cfg.train))
    return dataclasses.replace(cfg, data_seeds=None)


class SelfTest:
    def __init__(self):
        self.failures = 0

    def check(self, ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        self.failures += not ok

    def run(self, workload, seed, traced, cfg, requests=None):
        out = io.StringIO()
        with redirect_stdout(out):
            result, res = run.run_workload(workload, seed, 0.0, traced, cfg, requests)
        return result, res, out.getvalue()

    def emitted(self, label, result, specs):
        metrics = result["metrics"]
        missing = [m["name"] for m in specs if m["name"] not in metrics]
        wrong_unit = [m["name"] for m in specs if m["name"] in metrics
                      and metrics[m["name"]]["unit"] != m["unit"]]
        not_finite = [name for name, m in metrics.items()
                      if not isinstance(m["value"], (int, float))
                      or not math.isfinite(m["value"])]
        self.check(not missing and not wrong_unit and not not_finite,
                   f"{label}: {len(specs)} metrics emitted with their units"
                   + (f"; missing {missing}" if missing else "")
                   + (f"; wrong unit {wrong_unit}" if wrong_unit else "")
                   + (f"; not finite {not_finite}" if not_finite else ""))
        self.check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['failed']} of {result['attempted']} failed")


def fingerprint(res):
    rep = res["build"] if res["kind"] == "serve" else res["traced_reps"][0]
    return (rep["digest"], rep["final"], rep["entries_seen"], sorted(rep["counts"].items()))


def bare_checkout_refused(t):
    """Run the benchmark in a directory holding only BENCHMARK.json and benchmarks/."""
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "benchmarks", bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "train-continuous",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    t.check(proc.returncode != 0 and not printed_result,
            f"without sources: exit code {proc.returncode}, no result printed")


def main():
    if not run.prepare():
        print("error: no streamdtf sources next to the benchmark", file=sys.stderr)
        return 2
    import workloads as wl

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    configs = small_configs(wl)
    t = SelfTest()
    for workload, cfg in configs.items():
        result, _, _ = t.run(workload, FIRST_SEED, False, cfg)
        t.emitted(f"{workload} untraced", result, bench["end_to_end"])
        result, first, _ = t.run(workload, FIRST_SEED, True, cfg)
        t.emitted(f"{workload} traced", result, bench["per_layer"])
        _, again, _ = t.run(workload, FIRST_SEED, True, cfg)
        t.check(fingerprint(first) == fingerprint(again),
                f"{workload}: two traced runs at seed {FIRST_SEED} give identical counts, "
                f"final metric and checkpoint digest")
        drawn = drawn_data(cfg)
        result, _, _ = t.run(workload, SECOND_SEED, False, drawn)
        t.check(result["correct"] and result["failed"] == 0,
                f"{workload}: correctness checks pass at seed {SECOND_SEED}"
                + (", on data drawn from it" if drawn != cfg else ""))

    serve = configs["serve-predict"]
    requests = wl.make_requests(serve.train, FIRST_SEED, serve.requests_per_unit)
    requests.append([(serve.train.dims[0], 0)])
    result, _, report = t.run("serve-predict", FIRST_SEED, False, serve, requests)
    units = result["attempted"] // len(requests)
    share = [float(line.split()[1]) for line in report.splitlines()
             if line.split()[:1] == ["failed_share"]]
    t.check(result["failed"] == units and not result["correct"] and len(share) == 1
            and math.isclose(share[0], units / result["attempted"], rel_tol=1e-5),
            f"serve-predict: an out-of-range request is counted in failed_share "
            f"({result['failed']} of {result['attempted']}, failed_share {share})")

    bare_checkout_refused(t)
    print(f"{'all checks passed' if not t.failures else f'{t.failures} checks failed'}")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
