"""Train two revisions on the same datasets and record how far they drift.

    python3 tools/drift.py --parent HEAD~1 --change HEAD --out drift.json

Both revisions are exported with `bench_pairs.export`. The datasets are
written once, by the parent's `benchmarks/workloads.make_data`, and both
sides train on the same files:
- readme: the README configuration, training seeds 1-12;
- demo02: demo 02's binary data, training seeds 1-4;
- drawn-301 .. drawn-308: binary sets drawn from the seed as the benchmark
  draws them (`data_seeds=None`), each trained at its own seed.

Each training is `streamdtf train` in its own process, in its own tree,
which then loads the checkpoint it wrote with that tree's loader and saves
the posterior fields as numpy arrays. The JSON record holds, per training:
both checkpoint SHA-256s, both final test metrics (what `train` prints),
and per posterior field the max abs difference and the max relative
difference, relative to the larger of the two magnitudes. Per dataset it
holds each side's mean metric and the trainings where the change reads
better (RMSE lower, AUC higher; ties count for neither). Only the standard
library and numpy are used; the trainings need what `streamdtf train`
needs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, export

# (dataset, benchmark configuration, data seed: None for the configuration's
# documented data, training seeds)
DATASETS = (
    ("readme", "TRAIN_CONTINUOUS", None, range(1, 13)),
    ("demo02", "TRAIN_BINARY", None, range(1, 5)),
) + tuple((f"drawn-{s}", "TRAIN_BINARY", s, (s,)) for s in range(301, 309))

# run in the parent's tree: argv[1] the data directory, argv[2] the JSON list
# of (dataset, configuration, data seed); prints {dataset: train argv}
_WRITE_DATA = """
import dataclasses, json, sys
from pathlib import Path
import workloads
argvs = {}
for name, config, data_seed in json.loads(sys.argv[2]):
    cfg = getattr(workloads, config)
    if data_seed is not None:
        cfg = dataclasses.replace(cfg, data_seeds=None)
    (Path(sys.argv[1]) / name).mkdir()
    argvs[name] = workloads.make_data(cfg, data_seed or 0, Path(sys.argv[1]) / name)[0]
print(json.dumps(argvs))
"""

# run in either tree: argv[1] the .npz to write, then the `train` arguments
_TRAIN = """
import sys
import numpy as np
from streamdtf import cli
from streamdtf.posterior_store import WEIGHT_FIELDS, load_checkpoint
dump, argv = sys.argv[1], sys.argv[2:]
status = cli.main(argv)
if status:
    sys.exit(status)
with open(argv[argv.index("--checkpoint") + 1], "rb") as fp:
    state = load_checkpoint(fp)
fields = {f"weight {name}": v for name, v in zip(WEIGHT_FIELDS, state.weight_fields())}
for k, emb in enumerate(state.embeddings, start=1):
    fields[f"mode-{k} embedding mean"] = emb.mean
    fields[f"mode-{k} embedding var"] = emb.var
if state.gamma is not None:
    fields["gamma (a, b)"] = np.array([state.gamma.a, state.gamma.b])
np.savez(dump, **fields)
"""


def _run(tree: Path, args: list) -> str:
    """`python` with `args` in `tree`, its package first on the path; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                                        str(tree / "benchmarks")])}
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{args[:3]} in {tree} exited with {proc.returncode}:\n"
                           + "\n".join((proc.stdout + proc.stderr).splitlines()[-20:]))
    return proc.stdout


def _set_flag(argv: list, flag: str, value: str) -> list:
    i = argv.index(flag)
    return argv[:i + 1] + [value] + argv[i + 2:]


def train(tree: Path, argv: list, out: Path) -> dict:
    """One training in `tree` writing `out`.json and `out`.npz: its final
    metric, checkpoint digest and posterior fields."""
    argv = _set_flag(argv, "--checkpoint", str(out.with_suffix(".json")))
    i = argv.index("--metrics")
    stdout = _run(tree, ["-c", _TRAIN, str(out.with_suffix(".npz")), *argv[:i], *argv[i + 2:]])
    _, name, value = next(line.split() for line in stdout.splitlines()
                          if line.startswith("final "))
    digest = hashlib.sha256(out.with_suffix(".json").read_bytes()).hexdigest()
    with np.load(out.with_suffix(".npz")) as npz:
        fields = dict(npz)
    return {"metric": name, "final": float(value), "digest": digest, "fields": fields}


def field_drift(parent: dict, change: dict) -> dict:
    """Per field of either side: the max abs difference and the max of
    |change - parent| / max(|parent|, |change|) (0 where both are 0), or
    the shapes where they differ, or the side that alone holds it."""
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        if name not in change or name not in parent:
            out[name] = {"only_in": "parent" if name in parent else "change"}
            continue
        p, c = np.asarray(parent[name], float), np.asarray(change[name], float)
        if p.shape != c.shape:
            out[name] = {"shape": {"parent": list(p.shape), "change": list(c.shape)}}
            continue
        diff = np.abs(c - p)
        scale = np.maximum(np.abs(p), np.abs(c))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        out[name] = {"max_abs": float(diff.max(initial=0.0)),
                     "max_rel": float(rel.max(initial=0.0))}
    return out


def dataset_summary(metric: str, parent: list, change: list) -> dict:
    """Each side's mean metric over a dataset's trainings and the pairs
    where the change reads better: RMSE lower, AUC higher."""
    sign = -1.0 if metric == "rmse" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {"metric": metric, "parent_mean": statistics.fmean(parent),
            "change_mean": statistics.fmean(change), "change_better": f"{wins}/{len(change)}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the baseline revision")
    parser.add_argument("--change", required=True, help="the revision compared with it")
    parser.add_argument("--out", type=Path, required=True, help="the drift JSON file")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix="drift-"))
    try:
        trees = {side: work / side for side in SIDES}
        commits = {side: export(getattr(args, side), trees[side]) for side in SIDES}
        (work / "data").mkdir()
        listed = json.dumps([d[:3] for d in DATASETS])
        argvs = json.loads(_run(trees["parent"], ["-c", _WRITE_DATA, str(work / "data"), listed]))
        runs, datasets = {}, {}
        for name, _, _, seeds in DATASETS:
            finals = {side: [] for side in SIDES}
            for seed in seeds:
                argv = _set_flag(argvs[name], "--seed", str(seed))
                got = {side: train(trees[side], argv, work / f"{side}-{name}-{seed}")
                       for side in SIDES}
                for side in SIDES:
                    finals[side].append(got[side]["final"])
                runs[f"{name} seed {seed}"] = {
                    "metric": got["change"]["metric"],
                    "final": {side: got[side]["final"] for side in SIDES},
                    "digests": {side: got[side]["digest"] for side in SIDES},
                    "digests_match": got["parent"]["digest"] == got["change"]["digest"],
                    "fields": field_drift(got["parent"]["fields"], got["change"]["fields"]),
                }
                print(f"{name} seed {seed}: {got['change']['metric']} "
                      + " -> ".join(f"{got[side]['final']:.6g}" for side in SIDES), flush=True)
            datasets[name] = dataset_summary(got["change"]["metric"], finals["parent"],
                                             finals["change"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"commits": commits, "wall_s": round(time.perf_counter() - start, 1),
           "datasets": datasets, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
