"""The benchmark's workloads: inputs from a seed, timed runs, output checks.

All three are closed loop with one caller that waits for every call:

- train-continuous: `streamdtf train` through `cli.main` on the README
  configuration (200x60, MLP generator rank 4, noise sd 0.1, 9,900 train /
  1,100 test entries, ranks 4+4, hidden 50,50, batch 256).
- train-binary: the same command on demo 02's binary configuration (300x75,
  20,000 train / 2,000 test entries, ranks 8+8).
- serve-predict: `load_checkpoint` of a train-continuous model built before
  timing, then requests that each score one random mode-1 node against every
  mode-2 node through `predict_batch`.

The workload seed is the `streamdtf train --seed` (initialisation and
stream order) and draws the serve requests. The datasets are the documented
ones, fixed by their own seeds (see benchmarks/README.md for why); the
self-test also runs on datasets drawn from a seed.

A train run repeats the same training (same files, same seed); every
repetition must write a byte-identical checkpoint. A serve run repeats units
of LOADS_PER_UNIT `load_checkpoint` calls followed by the same fixed list of
requests.
"""

import gc
import hashlib
import io
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from streamdtf import cli, predict_eval
from streamdtf.posterior_store import load_checkpoint
from streamdtf.seeding import derive_seeds, make_rng
from streamdtf.tensor_core import (MlpGenerator, TensorShape, ValueKind,
                                   split_train_test, synth_generate, write_coo)

from tracer import PROBE_EVERY, Tracer

NULL_PERMUTATIONS = 200
TRACED_PAIRS = 3
LOADS_PER_UNIT = 10


@dataclass(frozen=True)
class TrainConfig:
    """A synthetic dataset's shape and generator, and the train flags.
    `data_seeds` fixes a documented dataset (data seed, split seed); left
    None, both are derived from the workload seed."""

    kind: str
    dims: tuple
    gen_rank: int
    gen_hidden: tuple
    noise_sd: float
    n_train: int
    n_test: int
    ranks: tuple
    hidden: tuple = (50, 50)
    batch_size: int = 256
    data_seeds: tuple = None


@dataclass(frozen=True)
class ServeConfig:
    train: TrainConfig
    requests_per_unit: int = 1000


# README: `streamdtf synth --dims 200,60 --kind continuous --generator mlp
# --rank 4 --entries 11000 --noise-sd 0.1 --seed 6 --test-fraction 0.1`
TRAIN_CONTINUOUS = TrainConfig(kind="continuous", dims=(200, 60), gen_rank=4,
                               gen_hidden=(20,), noise_sd=0.1, n_train=9900,
                               n_test=1100, ranks=(4, 4),
                               data_seeds=(6, derive_seeds(6, 2)[1]))
# demos/02_binary_stream.py and acceptance criterion 8
TRAIN_BINARY = TrainConfig(kind="binary", dims=(300, 75), gen_rank=4,
                           gen_hidden=(10,), noise_sd=0.0, n_train=20000,
                           n_test=2000, ranks=(8, 8), data_seeds=(7, 107))
SERVE_PREDICT = ServeConfig(train=TRAIN_CONTINUOUS)


class CheckFailed(Exception):
    pass


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _fmt(x):
    return ",".join(str(v) for v in x)


def make_data(cfg, seed, workdir):
    """Write the dataset's train/test COO files for workload seed `seed`;
    return (the `streamdtf train` arguments, the test entries). Derived data
    seeds are apart from the two that `train --seed` derives."""
    data_seed, split_seed = cfg.data_seeds or derive_seeds(seed, 4)[2:]
    shape = TensorShape(cfg.dims)
    kind = ValueKind.from_string(cfg.kind)
    gen = MlpGenerator(hidden=cfg.gen_hidden, activation="tanh")
    n = cfg.n_train + cfg.n_test
    entries, _ = synth_generate(shape, cfg.gen_rank, kind, gen, cfg.noise_sd, n,
                                data_seed)
    split = split_train_test(entries, cfg.n_test / n, split_seed)
    _check(len(split.train) == cfg.n_train, "split sizes differ from the configuration")
    paths = {name: workdir / f"{name}.coo" for name in ("train", "test")}
    for name, part in (("train", split.train), ("test", split.test)):
        with open(paths[name], "w", encoding="utf-8") as fp:
            write_coo(part, fp, kind)
    argv = ["train", "--train", str(paths["train"]), "--test", str(paths["test"]),
            "--dims", _fmt(cfg.dims), "--kind", cfg.kind, "--ranks", _fmt(cfg.ranks),
            "--hidden", _fmt(cfg.hidden), "--activation", "relu",
            "--batch-size", str(cfg.batch_size), "--seed", str(seed),
            "--checkpoint", str(workdir / "model.json"),
            "--metrics", str(workdir / "metrics.csv")]
    return argv, split.test


def train_once(tracer, argv, workdir):
    """One `streamdtf train` call. Returns its timings and outputs."""
    gc.collect()
    first = len(tracer.spans)
    tracer.probe()
    with redirect_stdout(io.StringIO()), tracer.span("cli.train") as root:
        status = cli.main(argv)
    _check(status == 0, f"streamdtf train exited with {status}")
    evals = [s for s in tracer.spans[first:] if s[0] == "predict_eval.running_eval"]
    _check(len(evals) == 1, "running_eval was not called exactly once")
    ev = evals[0]
    blob = (workdir / "model.json").read_bytes()
    with open(workdir / "metrics.csv", encoding="utf-8") as fp:
        rows = fp.read().splitlines()[1:]
    return {
        "setup_s": tracer.scaled(root[1], ev[1]),
        "stream_s": tracer.scaled(ev[1], ev[2]),
        "wall_s": tracer.scaled(root[1], root[2]),
        "raw_stream_s": ev[2] - ev[1],
        "final": float(rows[-1].split(",")[2]),
        "batches": len(rows),
        "digest": hashlib.sha256(blob).hexdigest(),
        "checkpoint_bytes": len(blob),
    }


def check_model(tracer, cfg, rep, workdir, test, seed):
    """Reload the written checkpoint, re-score it and check the trained model.

    Returns (entries absorbed, threshold the final metric had to pass)."""
    with tracer.span("posterior_store.load_checkpoint"), \
            open(workdir / "model.json", encoding="utf-8") as fp:
        state = load_checkpoint(fp)
    n_batches = math.ceil(cfg.n_train / cfg.batch_size)
    _check(rep["batches"] == n_batches, f"metrics CSV has {rep['batches']} rows, "
                                        f"expected {n_batches}")
    indices = [e.index for e in test]
    values = np.asarray([e.value for e in test])
    if cfg.kind == "continuous":
        rescored = predict_eval.rmse(predict_eval.predict_batch(state, indices)[0], values)
        threshold = float(np.std(values))
        passed = rep["final"] < threshold
    else:
        scores = predict_eval.predict_batch(state, indices)
        rescored = predict_eval.auc(scores, values)
        rng = make_rng(seed)
        null = [predict_eval.auc(scores, rng.permutation(values))
                for _ in range(NULL_PERMUTATIONS)]
        threshold = 0.5 + 3.0 * float(np.std(null))
        passed = rep["final"] > threshold
    _check(rescored == rep["final"], f"reloaded checkpoint scores {rescored!r}, "
                                     f"metrics CSV says {rep['final']!r}")
    _check(passed, f"final {cfg.kind} metric {rep['final']:.4f} fails its threshold "
                   f"{threshold:.4f}")
    return state.entries_seen, threshold


def train_and_check(tracer, cfg, argv, workdir, test, seed, fine):
    """One checked training; the repetition's spans are spans[rep['spans']]."""
    first = len(tracer.spans)
    tracer.counts.clear()
    with tracer.installed(fine):
        rep = train_once(tracer, argv, workdir)
    rep["counts"] = dict(tracer.counts)
    try:
        rep["entries_seen"], rep["threshold"] = check_model(tracer, cfg, rep, workdir,
                                                            test, seed)
        rep["problem"] = None
    except CheckFailed as exc:
        rep["entries_seen"], rep["threshold"], rep["problem"] = 0, None, str(exc)
    rep["spans"] = (first, len(tracer.spans))
    return rep


def run_train(tracer, cfg, seed, seconds, workdir, traced):
    """Repeat the checked training until `seconds` have passed: at least three
    times, or in a traced run alternately untraced and traced, at least
    TRACED_PAIRS pairs. Every repetition must give the same checkpoint and
    final metric."""
    argv, test = make_data(cfg, seed, workdir)
    reps, traced_reps = [], []
    start = time.perf_counter()
    while True:
        fine = traced and len(reps) > len(traced_reps)
        rep = train_and_check(tracer, cfg, argv, workdir, test, seed, fine)
        (traced_reps if fine else reps).append(rep)
        done = len(reps) + len(traced_reps)
        elapsed = time.perf_counter() - start
        enough = len(traced_reps) >= TRACED_PAIRS if traced else done >= 3
        if enough and elapsed * (done + 1) / done > seconds:
            break
    every = reps + traced_reps
    problems = sorted({r["problem"] for r in every if r["problem"]})
    if len({(r["digest"], r["final"], r["entries_seen"]) for r in every}) > 1:
        problems.append("repeated trainings at the same seed differ in checkpoint, "
                        "final metric or entries absorbed")
    if len({tuple(sorted(r["counts"].items())) for r in every}) > 1:
        problems.append("repeated trainings differ in their engine counts")
    failed = sum(cfg.n_train if r["problem"] else cfg.n_train - r["entries_seen"]
                 for r in every)
    return {
        "kind": cfg.kind,
        "reps": reps,
        "traced_reps": traced_reps,
        "attempted": cfg.n_train * len(every),
        "failed": failed,
        "problems": problems,
    }


def make_requests(cfg, seed, n):
    """`n` requests, each one random mode-1 node paired with every mode-2 node."""
    users = make_rng(seed).integers(0, cfg.dims[0], size=n)
    return [[(int(u), j) for j in range(cfg.dims[1])] for u in users]


def serve_unit(tracer, checkpoint, requests):
    """Load the checkpoint LOADS_PER_UNIT times, then answer every request in
    order from the state loaded last.

    Returns (state, responses, failed count, start of the last load, time
    of the last answer); a failed request is one that raised or answered a
    non-finite mean or a variance below b/a."""
    for _ in range(LOADS_PER_UNIT):
        tracer.probe()
        with tracer.span("posterior_store.load_checkpoint") as load, \
                open(checkpoint, encoding="utf-8") as fp:
            state = load_checkpoint(fp)
    noise_var = state.gamma.b / state.gamma.a
    responses, failed = [], 0
    for i, req in enumerate(requests):
        if i % PROBE_EVERY == 0:
            tracer.probe()
        try:
            with tracer.span("serve.request"):
                means, variances = predict_eval.predict_batch(state, req)
        except (ValueError, IndexError, ArithmeticError) as exc:
            responses.append(exc)
            failed += 1
            continue
        responses.append((means, variances))
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))
                and np.all(variances >= noise_var)):
            failed += 1
    return state, responses, failed, load[1], time.perf_counter()


def served_rmse(requests, responses, test):
    """RMSE of the served means on the held-out entries the requests cover."""
    truth = {e.index: e.value for e in test}
    pred, obs = [], []
    for req, resp in zip(requests, responses):
        if isinstance(resp, Exception):
            continue
        for idx, m in zip(req, resp[0]):
            if idx in truth:
                pred.append(m)
                obs.append(truth.pop(idx))
    return predict_eval.rmse(pred, obs), len(pred)


def build_model(cfg, seed, workdir, traced):
    """Train and checkpoint the model to serve, with its own tracer; returns
    (the checked training with its span summary, the test entries)."""
    tracer = Tracer()
    argv, test = make_data(cfg, seed, workdir)
    build = train_and_check(tracer, cfg, argv, workdir, test, seed, traced)
    build["summary"] = tracer.summary([build.pop("spans")])
    return build, test


def run_serve(tracer, cfg, seed, seconds, workdir, traced, requests=None):
    """Build the model untimed, then repeat serve units until `seconds` have
    passed (at least two). A traced run alternates untraced and traced units,
    at least TRACED_PAIRS pairs. `requests` overrides the seeded request list
    (the self-test injects bad requests this way)."""
    tcfg = cfg.train
    # In a child process, so that this process's peak RSS covers only
    # loading the checkpoint and answering requests.
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        build, test = pool.submit(build_model, tcfg, seed, workdir, traced).result()
    problems = [build["problem"]] if build["problem"] else []
    if requests is None:
        requests = make_requests(tcfg, seed, cfg.requests_per_unit)
    units, traced_units = [], []
    start = time.perf_counter()
    failed = attempted = 0
    error = covered = None
    while True:
        fine = traced and len(units) > len(traced_units)
        first = len(tracer.spans)
        gc.collect()
        with tracer.installed(fine):
            state, responses, unit_failed, wall_start, wall_end = serve_unit(
                tracer, workdir / "model.json", requests)
        spans = tracer.spans[first:]
        reqs = [sp for sp in spans if sp[0] == "serve.request"]
        unit = {
            "loads": [tracer.scaled(s, e) for n, s, e, _, _ in spans
                      if n == "posterior_store.load_checkpoint"],
            "wall_s": tracer.scaled(wall_start, wall_end),
            "latencies": [e - s for _, s, e, _, _ in reqs],
            "request_s": sum(tracer.scaled(s, e) for _, s, e, _, _ in reqs),
            "rows": sum(len(r) for r in requests),
        }
        if fine:
            unit["spans"] = (first, len(tracer.spans))
            unit["requests_from"] = first + next(
                i for i, sp in enumerate(spans) if sp[0] == "serve.request")
            traced_units.append(unit)
        else:
            # their spans would otherwise count in this process's peak RSS
            tracer.forget(first)
            units.append(unit)
        failed += unit_failed
        attempted += len(requests)
        if error is None:
            error, covered = served_rmse(requests, responses, test)
        done = len(units) + len(traced_units)
        elapsed = time.perf_counter() - start
        enough = len(traced_units) >= TRACED_PAIRS if traced else done >= 2
        if enough and elapsed * (done + 1) / done > seconds:
            break
    if failed:
        problems.append(f"{failed} of {attempted} requests raised or answered a "
                        f"non-finite mean or a variance below b/a")
    return {
        "kind": "serve",
        "units": units,
        "traced_units": traced_units,
        "build": build,
        "final": error,
        "covered": covered,
        "noise_var": state.gamma.b / state.gamma.a,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
