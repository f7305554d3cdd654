"""Run one streamdtf benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train-continuous --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports streamdtf from
`src/` next to this directory and writes its scratch files under
`.bench_work/`. It prints a human-readable report (machine, inputs, every
metric with its unit and sample count, and the correctness checks), then, as
the last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones, measured without
per-entry instrumentation; with `--trace 1` they are the per-layer ones from
spans around each layer's public functions, and the trace of the last traced
repetition is written to `.bench_work/trace-<workload>.csv`.
See benchmarks/README.md for what each workload and metric stands for.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train-continuous", "train-binary", "serve-predict")
QUALITY_UNIT = "rmse_or_1-auc"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_info():
    """(BLAS name and version, thread count) of the BLAS numpy loaded."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as fp:
        libs = {line.split()[-1] for line in fp if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, "unknown"


def machine_line():
    import numpy as np
    import scipy

    blas, threads = blas_info()
    return (f"machine cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} blas={blas} blas_threads={threads}")


def pct(values, q):
    """The q-th percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1], len(ordered) - rank


def pair_overhead(untraced, traced):
    """Tracing overhead from adjacent (untraced, traced) repetitions: the
    median of traced / untraced - 1 over the pairs, and its min and max."""
    ratios = sorted(t / u - 1.0 for u, t in zip(untraced, traced))
    return statistics.median(ratios), ratios[0], ratios[-1], len(ratios)


def subtree(spans, i):
    """Index range of span i and its descendants (spans are in start order)."""
    j = i + 1
    while j < len(spans) and spans[j][1] < spans[i][2]:
        j += 1
    return i, j


class Report:
    def __init__(self):
        self.metrics = {}

    def line(self, text):
        print(text, flush=True)

    def metric(self, name, value, unit, note="", emit=True):
        self.line(f"  {name:<46} {value:>14.6g} {unit:<14} {note}".rstrip())
        if emit:
            self.metrics[name] = {"value": value, "unit": unit}


def train_report(rep, res, cfg, rss_mb):
    reps = res["reps"]
    n = len(reps)
    first = reps[0]
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    binary = cfg.kind == "binary"
    rep.line(f"input {cfg.dims[0]}x{cfg.dims[1]} {cfg.kind}, {cfg.n_train} train / "
             f"{cfg.n_test} test entries, ranks {cfg.ranks}, hidden {cfg.hidden}, "
             f"batch {cfg.batch_size}")
    rep.line(f"ops {len(reps) + len(res['traced_reps'])} trainings ({n} untraced, "
             f"{len(res['traced_reps'])} traced), {res['attempted']} entries offered")
    rep.line("end-to-end (times scaled to the reference host speed; medians over "
             "untraced trainings):")
    us = med("stream_s") / cfg.n_train * 1e6
    rep.metric("setup_s", med("setup_s"), "s", f"n={n}; cli.main start to first batch")
    rep.metric("wall_s", med("wall_s"), "s", f"n={n}; = train_wall_s")
    rep.metric("train_wall_s", med("wall_s"), "s", f"n={n}; whole cli.main", emit=False)
    rep.metric("us_per_entry", us, "us", f"n={n}; = train_us_per_entry")
    rep.metric("train_us_per_entry", us, "us",
               f"n={n}; running_eval / {cfg.n_train} entries", emit=False)
    rep.metric("raw_us_per_entry", med("raw_stream_s") / cfg.n_train * 1e6, "us",
               f"n={n}; the same, unscaled", emit=False)
    name = "final_auc" if binary else "final_rmse"
    threshold = "failed" if first["threshold"] is None else f"{first['threshold']:.4f}"
    rep.metric(name, first["final"], "auc" if binary else "rmse",
               f"must be {'>' if binary else '<'} {threshold} "
               f"({'0.5 + 3 sd of a label-permutation null' if binary else 'test-set sd'})",
               emit=False)
    rep.metric("final_error", 1.0 - first["final"] if binary else first["final"],
               QUALITY_UNIT, f"= {'1 - final_auc' if binary else 'final_rmse'}")
    rep.metric("peak_rss_mb", rss_mb, "MB")
    rep.metric("failed_share", res["failed"] / res["attempted"], "share",
               f"{res['failed']} of {res['attempted']} entries not absorbed", emit=False)
    rep.line("samples stream_s " + " ".join(f"{r['stream_s']:.4f}" for r in reps)
             + "; unscaled " + " ".join(f"{r['raw_stream_s']:.4f}" for r in reps))
    rep.line(f"checkpoint sha256 {first['digest']} ({first['checkpoint_bytes']} bytes); "
             f"entries_seen {first['entries_seen']}")


def serve_report(rep, res, cfg, rss_mb):
    units = res["units"]
    n = len(units)
    latencies = [x for u in units for x in u["latencies"]]
    rows = sum(u["rows"] for u in units)
    p99, beyond = pct(latencies, 99)
    rep.line(f"input checkpoint of a {cfg.train.dims[0]}x{cfg.train.dims[1]} "
             f"{cfg.train.kind} model ({res['build']['checkpoint_bytes']} bytes); "
             f"{cfg.requests_per_unit} requests x {cfg.train.dims[1]} rows per unit")
    rep.line(f"ops {n + len(res['traced_units'])} units ({n} untraced, "
             f"{len(res['traced_units'])} traced), {res['attempted']} requests")
    loads = [x for u in units for x in u["loads"]]
    rep.line("end-to-end (times scaled to the reference host speed; medians over "
             "untraced units or loads):")
    rep.metric("setup_s", statistics.median(loads), "s", f"n={len(loads)}; load_checkpoint")
    rep.metric("wall_s", statistics.median(u["wall_s"] for u in units), "s",
               f"n={n}; last load_checkpoint of a unit + {cfg.requests_per_unit} requests")
    rep.metric("us_per_entry", statistics.median(u["request_s"] / u["rows"] for u in units)
               * 1e6, "us", f"n={n}; request time per predicted row")
    rep.metric("raw_us_per_entry", statistics.median(
        sum(u["latencies"]) / u["rows"] for u in units) * 1e6, "us",
        f"n={n}; the same, unscaled", emit=False)
    rep.metric("predict_ms_p50", statistics.median(latencies) * 1e3, "ms",
               f"n={len(latencies)}; unscaled", emit=False)
    rep.metric("predict_ms_p99", p99 * 1e3, "ms",
               f"n={len(latencies)}, {beyond} beyond; unscaled", emit=False)
    rep.metric("predict_rows_per_s", rows / sum(latencies), "1/s",
               f"rows={rows}; unscaled", emit=False)
    rep.metric("final_error", res["final"], QUALITY_UNIT,
               f"served rmse on {res['covered']} held-out entries")
    rep.metric("peak_rss_mb", rss_mb, "MB")
    rep.metric("failed_share", res["failed"] / res["attempted"], "share",
               f"{res['failed']} of {res['attempted']} requests failed", emit=False)
    build = res["build"]
    threshold = "failed" if build["threshold"] is None else f"{build['threshold']:.4f}"
    rep.line(f"model final_rmse {build['final']!r} (must be < {threshold}); "
             f"noise variance b/a {res['noise_var']:.6g}")


def layer_report(rep, tracer, res, workload):
    """Per-layer metrics from the traced repetitions, the self-time split of
    the traced stream and the tracing overhead."""
    if res["kind"] == "serve":
        # write-path layers from the traced model build, read-path layers
        # (load, predict) from the traced serve units only
        counts, ckpt = res["build"]["counts"], res["build"]["checkpoint_bytes"]
        streams = [(u["requests_from"], u["spans"][1]) for u in res["traced_units"]]
        s = {**res["build"]["summary"],
             **tracer.summary([u["spans"] for u in res["traced_units"]])}
        overhead = pair_overhead(*([u["request_s"] for u in us]
                                   for us in (res["units"], res["traced_units"])))
        last = res["traced_units"][-1]["spans"]
        stream_name = f"{len(streams)} traced serve units"
    else:
        segments = [r["spans"] for r in res["traced_reps"]]
        counts, ckpt = res["traced_reps"][0]["counts"], res["reps"][0]["checkpoint_bytes"]
        streams = [subtree(tracer.spans, i) for first, last in segments
                   for i in range(first, last)
                   if tracer.spans[i][0] == "predict_eval.running_eval"]
        s = tracer.summary(segments)
        overhead = pair_overhead(*([r["stream_s"] for r in rs]
                                   for rs in (res["reps"], res["traced_reps"])))
        last = res["traced_reps"][-1]["spans"]
        stream_name = f"{len(streams)} traced trainings"

    def row(name):
        if name not in s:
            raise RuntimeError(f"no span recorded for {name}")
        return s[name]

    def timed(name, value, unit, key="total", per="calls", scale=1e6, calls=True):
        r = row(name)
        rep.metric(f"{name}.{value}", r[key] / r[per] * scale, unit, f"calls={r['calls']}")
        if calls:
            rep.metric(f"{name}.calls", r["calls"], "count")

    rep.line("per-layer (traced repetitions; times are per call unless named per row/entry):")
    timed("tensor_core.parse_coo", "us_per_entry", "us", per="work")
    timed("tensor_core.partition_stream", "ms", "ms", scale=1e3)
    timed("posterior_store.gather_entry", "us", "us")
    timed("posterior_store.scatter_entry", "us", "us")
    timed("posterior_store.save_checkpoint", "ms", "ms", scale=1e3)
    rep.metric("posterior_store.checkpoint_bytes", ckpt, "bytes")
    timed("posterior_store.load_checkpoint", "ms", "ms", scale=1e3)
    timed("bnn.forward_mean", "us", "us")
    timed("bnn.backprop_gradient", "us", "us")
    timed("bnn.output_moments_batch", "us_per_row", "us", per="work")
    timed("adf_engine.adf_update_entry", "us", "us")
    timed("adf_engine.adf_update_entry", "self_us", "us", key="self", calls=False)
    timed("adf_engine.evidence", "us", "us")
    for name in ("adf_engine.entries_skipped", "adf_engine.entries_clamped",
                 "ep_prior.guard_skips", "ep_prior.term_kept", "ep_prior.inhibited"):
        rep.metric(name, counts.get(name, 0), "count", "per training run")
    timed("ep_prior.refine_all", "ms", "ms", scale=1e3)
    timed("predict_eval.predict_batch", "us_per_row", "us", per="work")
    timed("predict_eval.predict_batch", "self_us", "us", key="self", calls=False)
    ev, pb = row("predict_eval.running_eval"), row("adf_engine.process_batch")
    probes = row("host.probe_batch")
    rep.metric("predict_eval.running_eval.eval_ms_per_batch",
               (ev["total"] - pb["total"] - probes["total"]) / pb["calls"] * 1e3, "ms",
               f"batches={pb['calls']}; running_eval time outside process_batch "
               f"and the host probes")
    rep.metric("predict_eval.running_eval.calls", ev["calls"], "count")
    timed("cli.train", "self_ms", "ms", key="self", scale=1e3)
    median, lo, hi, pairs = overhead
    rep.metric("trace.overhead_pct", median * 100.0, "%",
               f"traced / untraced stream time - 1, median over {pairs} adjacent pairs, "
               f"range {lo:.1%} to {hi:.1%}")

    stream = tracer.summary(streams)
    roots = {"predict_eval.running_eval", "serve.request", "host.probe"}
    total = sum(r["total"] for name, r in stream.items() if name in roots)
    rep.line(f"self time of the traced stream ({total:.4f} s over {stream_name}):")
    for name, r in sorted(stream.items(), key=lambda kv: -kv[1]["self"]):
        rep.line(f"  {name:<46} {r['self']:>10.4f} s {r['self'] / total:>7.1%} "
                 f"calls={r['calls']}")
    accounted = sum(r["self"] for r in stream.values())
    rep.line(f"  self times sum to {accounted:.4f} s = {accounted / total:.4%} of the stream")
    trace_path = ROOT / ".bench_work" / f"trace-{workload}.csv"
    tracer.write(trace_path, *last)
    rep.line(f"trace of the last traced repetition written to {trace_path.relative_to(ROOT)}")


def prepare():
    """Import streamdtf from this checkout's `src/`; False if it is missing."""
    if not (SRC / "streamdtf" / "__init__.py").is_file():
        return False
    # The engine is sequential and its matrices are tiny; idle BLAS worker
    # threads only spin on the second core and add host noise. Set before
    # numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def run_workload(workload, seed, seconds, traced, cfg=None, requests=None):
    """Run one workload, print its report and return (result object, raw
    workload result). `cfg` and `requests` replace the workload's defaults."""
    import tracer as tracing
    import workloads as wl

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    rep = Report()
    try:
        rep.line(f"workload {workload} seed {seed} seconds {seconds:g} trace {int(traced)}; "
                 f"closed loop, one client thread")
        rep.line(machine_line())
        if workload == "serve-predict":
            cfg = cfg or wl.SERVE_PREDICT
            res = wl.run_serve(tracer, cfg, seed, seconds, workdir, traced, requests)
            report = serve_report
        else:
            cfg = cfg or (wl.TRAIN_CONTINUOUS if workload == "train-continuous"
                          else wl.TRAIN_BINARY)
            res = wl.run_train(tracer, cfg, seed, seconds, workdir, traced)
            report = train_report
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report(rep, res, cfg, rss_mb)
        if traced:
            rep.metrics.clear()
            layer_report(rep, tracer, res, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in res["problems"]:
        rep.line(f"check FAILED: {problem}")
    correct = not res["problems"]
    rep.line(f"correct {str(correct).lower()}")
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": rep.metrics}
    return result, res


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all three in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"error: no streamdtf sources at {SRC}", file=sys.stderr)
        return 2
    from workloads import CheckFailed

    if args.workload == "all":
        # one process per workload, so each peak_rss_mb is that workload's own
        for workload in WORKLOADS:
            status = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            if status:
                return status
        return 0
    try:
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
