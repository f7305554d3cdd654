import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamdtf
from streamdtf import (Hyperparams, NetworkSpec, TensorShape, ValueKind,
                       checkpoint_bytes, cli, init_state, load_checkpoint)
from streamdtf.tensor_core import GroundTruth


def _synth_split(tmp_path, seed=3, dims="20,20", entries=400, kind="continuous"):
    train = tmp_path / "train.coo"
    test = tmp_path / "test.coo"
    truth = tmp_path / "truth.json"
    rc = cli.main([
        "synth", "--dims", dims, "--kind", kind, "--generator", "cp",
        "--rank", "2", "--entries", str(entries), "--noise-sd", "0.1",
        "--seed", str(seed), "--test-fraction", "0.1",
        "--train-out", str(train), "--test-out", str(test),
        "--truth", str(truth),
    ])
    assert rc == 0
    return train, test, truth


def _train_args(tmp_path, train, test, extra=()):
    return [
        "train", "--train", str(train), "--test", str(test),
        "--dims", "20,20", "--kind", "continuous", "--rank", "2",
        "--hidden", "6", "--batch-size", "64", "--seed", "5",
        "--checkpoint", str(tmp_path / "model.json"),
        "--metrics", str(tmp_path / "metrics.csv"),
        *extra,
    ]


def test_pipeline_synth_train_eval_predict(tmp_path, capsys):
    train, test, _ = _synth_split(tmp_path)
    rc = cli.main(_train_args(tmp_path, train, test))
    assert rc == 0
    out = capsys.readouterr().out
    assert "final rmse" in out
    metric = float(out.strip().split()[-1])
    assert metric == metric  # finite, parseable

    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "model.json"),
                   "--data", str(test)])
    assert rc == 0
    eval_out = capsys.readouterr().out
    assert eval_out.startswith("rmse ")

    indices = tmp_path / "idx.txt"
    indices.write_text("0 0\n3 7\n# comment\n19 19\n")
    preds = tmp_path / "preds.csv"
    rc = cli.main(["predict", "--checkpoint", str(tmp_path / "model.json"),
                   "--indices", str(indices), "--out", str(preds)])
    assert rc == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "i_1,i_2,prediction,variance"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    float(first[2]), float(first[3])


def test_binary_pipeline_predict_has_no_variance_column(tmp_path, capsys):
    train, test, _ = _synth_split(tmp_path, kind="binary", seed=9)
    rc = cli.main([
        "train", "--train", str(train), "--test", str(test),
        "--dims", "20,20", "--kind", "binary", "--rank", "2",
        "--hidden", "6", "--batch-size", "64", "--seed", "5",
        "--checkpoint", str(tmp_path / "model.json"),
    ])
    assert rc == 0
    assert "final auc" in capsys.readouterr().out
    indices = tmp_path / "idx.txt"
    indices.write_text("1 1\n")
    preds = tmp_path / "preds.csv"
    assert cli.main(["predict", "--checkpoint", str(tmp_path / "model.json"),
                     "--indices", str(indices), "--out", str(preds)]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "i_1,i_2,prediction"
    prob = float(lines[1].split(",")[-1])
    assert 0.0 <= prob <= 1.0


def test_identical_config_and_seed_reproduce_byte_identical_outputs(tmp_path):
    train, test, _ = _synth_split(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    for out in (out_a, out_b):
        rc = cli.main(_train_args(out, train, test))
        assert rc == 0
    assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_dump_config_round_trips(tmp_path, capsys):
    train, test, _ = _synth_split(tmp_path)
    capsys.readouterr()  # drop the synth output
    rc = cli.main(_train_args(tmp_path, train, test, extra=("--dump-config",)))
    assert rc == 0
    dumped = capsys.readouterr().out
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(dumped)
    rc = cli.main(["train", "--config", str(cfg_path), "--dump-config"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == json.loads(dumped)


def test_default_configuration_matches_standard_setup():
    cfg = cli.RunConfig(dims=(100, 100, 100))
    assert cfg.effective_ranks == (8, 8, 8)
    assert cfg.hidden == (50, 50)
    assert cfg.activation == "relu"
    assert cfg.batch_size == 256
    assert (cfg.rho0, cfg.sigma0_sq, cfg.a0, cfg.b0) == (0.5, 1.0, 1.0, 1.0)
    assert cfg.damping == 0.5
    assert cfg.timing_in_csv is False


def test_metrics_csv_is_deterministic_by_default(tmp_path):
    train, test, _ = _synth_split(tmp_path)
    rc = cli.main(_train_args(tmp_path, train, test))
    assert rc == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "batch,seen,metric,ms"
    assert all(line.endswith(",0.0") for line in lines[1:])


def test_single_pass_discipline(tmp_path):
    train, test, _ = _synth_split(tmp_path)
    rc = cli.main(_train_args(tmp_path, train, test))
    assert rc == 0
    with open(tmp_path / "model.json", encoding="utf-8") as fp:
        state = load_checkpoint(fp)
    n_train = sum(1 for line in train.read_text().splitlines() if line.strip())
    assert state.entries_seen == n_train


def test_resume_continues_training(tmp_path, capsys):
    train, test, _ = _synth_split(tmp_path)
    first = tmp_path / "first.json"
    rc = cli.main(["train", "--train", str(train), "--dims", "20,20",
                   "--kind", "continuous", "--rank", "2", "--hidden", "6",
                   "--batch-size", "64", "--seed", "5",
                   "--checkpoint", str(first)])
    assert rc == 0
    capsys.readouterr()
    second = tmp_path / "second.json"
    rc = cli.main(["train", "--train", str(test), "--dims", "20,20",
                   "--kind", "continuous", "--rank", "2", "--hidden", "6",
                   "--batch-size", "64", "--seed", "5",
                   "--resume-from", str(first), "--checkpoint", str(second)])
    assert rc == 0
    with open(second, encoding="utf-8") as fp:
        state = load_checkpoint(fp)
    n_total = sum(1 for p in (train, test)
                  for line in p.read_text().splitlines() if line.strip())
    assert state.entries_seen == n_total


def test_error_lines_are_single_and_coded(tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                   "--data", str(tmp_path / "missing.coo")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error IO:")

    rc = cli.main(["train"])  # no training data configured
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error ARG:")
    assert err.count("\n") == 1

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"no_such_key": 1}')
    rc = cli.main(["train", "--config", str(bad_cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error ARG:")

    # wrong-typed values name their key; a document that is not an object
    # says so
    for doc, named in (('{"dims": [4, 4], "hidden": 5}', "'hidden'"),
                       ('{"dims": [4, 4], "seed": null}', "'seed'"),
                       ('{"dims": [4, 4], "timing_in_csv": "false"}',
                        "'timing_in_csv'"),
                       # nothing is truncated: no float or bool for an int
                       ('{"dims": [4.9, 4]}', "'dims'"),
                       ('{"dims": [4, 4], "seed": 1.7}', "'seed'"),
                       ('{"dims": [4, 4], "batch_size": true}', "'batch_size'"),
                       ('{"dims": [4, 4], "hidden": [5.5]}', "'hidden'"),
                       ('{"dims": [4, 4], "ranks": [true, 2]}', "'ranks'"),
                       ('{"dims": [4, 4], "damping": true}', "'damping'"),
                       # an int too large for a float is no float
                       ('{"dims": [4, 4], "sigma0_sq": 1' + "0" * 400 + '}',
                        "'sigma0_sq'"),
                       ('[1, 2]', "JSON object")):
        bad_cfg.write_text(doc)
        rc = cli.main(["train", "--config", str(bad_cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error ARG:")
        assert err.count("\n") == 1
        assert named in err


def test_parse_error_reported_with_code(tmp_path, capsys):
    bad = tmp_path / "bad.coo"
    bad.write_text("1 2 notanumber\n")
    rc = cli.main(["train", "--train", str(bad), "--dims", "20,20",
                   "--kind", "continuous", "--rank", "2", "--hidden", "6",
                   "--seed", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error PARSE:")
    assert "line 1" in err


def test_files_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    train, test, _ = _synth_split(tmp_path)
    indices = tmp_path / "idx.txt"
    indices.write_text("0 0\n3 7\n19 19\n")
    capsys.readouterr()
    outputs = []
    for tag in ("plain", "bom"):
        run = tmp_path / tag
        run.mkdir()
        files = []
        for path in (train, test, indices):
            copy = run / path.name
            copy.write_bytes(b"\xef\xbb\xbf" * (tag == "bom") + path.read_bytes())
            files.append(copy)
        assert cli.main(_train_args(run, *files[:2])) == 0
        model = str(run / "model.json")
        assert cli.main(["eval", "--checkpoint", model, "--data", str(files[1])]) == 0
        assert cli.main(["predict", "--checkpoint", model, "--indices", str(files[2]),
                         "--out", str(run / "preds.csv")]) == 0
        stdout = capsys.readouterr().out.replace(str(run), "<run>")
        outputs.append([stdout] + [(run / name).read_bytes() for name in
                                   ("model.json", "metrics.csv", "preds.csv")])
    assert outputs[0] == outputs[1]


def test_synth_requires_an_output(tmp_path, capsys):
    rc = cli.main(["synth", "--dims", "5,5", "--entries", "10"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error ARG:")


def test_synth_rejects_a_nan_noise_level(tmp_path, capsys):
    out = tmp_path / "y.coo"
    rc = cli.main(["synth", "--dims", "5,5", "--entries", "10", "--noise-sd", "nan",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error VALUE:")
    assert not out.exists()


@pytest.mark.parametrize("field, dims, kind", [
    ("dims", "20,25", "continuous"),
    ("kind", "20,20", "binary"),
])
def test_resume_rejects_a_checkpoint_that_contradicts_the_config(
        tmp_path, capsys, field, dims, kind):
    train, _, _ = _synth_split(tmp_path)
    first = tmp_path / "first.json"
    rc = cli.main(["train", "--train", str(train), "--dims", "20,20",
                   "--kind", "continuous", "--rank", "2", "--hidden", "6",
                   "--batch-size", "64", "--seed", "5",
                   "--checkpoint", str(first)])
    assert rc == 0
    more = tmp_path / "more"
    more.mkdir()
    data, _, _ = _synth_split(more, seed=9, kind=kind)
    capsys.readouterr()
    second = tmp_path / "second.json"
    rc = cli.main(["train", "--train", str(data), "--dims", dims,
                   "--kind", kind, "--rank", "2", "--hidden", "6",
                   "--batch-size", "64", "--seed", "5",
                   "--resume-from", str(first), "--checkpoint", str(second)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error ARG:")
    assert f"checkpoint has {field}" in err
    assert not second.exists()


@pytest.mark.parametrize("flag, value", [("--sigma0-sq", "nan"), ("--a0", "inf")])
def test_train_rejects_non_finite_hyperparameters(tmp_path, capsys, flag, value):
    train, _, _ = _synth_split(tmp_path)
    capsys.readouterr()
    rc = cli.main(["train", "--train", str(train), "--dims", "20,20", "--rank", "2",
                   "--hidden", "6", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error VALUE:") and err.count("\n") == 1


def test_predict_rejects_an_index_file_without_indices(tmp_path, capsys):
    model = tmp_path / "model.json"
    state = init_state(TensorShape((4, 5)), ValueKind.CONTINUOUS,
                       NetworkSpec.for_factorization(2, [3], "relu"),
                       Hyperparams(ranks=(1, 1)), seed=0)
    model.write_bytes(checkpoint_bytes(state))
    indices = tmp_path / "idx.txt"
    indices.write_text("# no indices here\n\n   \n")
    rc = cli.main(["predict", "--checkpoint", str(model), "--indices", str(indices),
                   "--out", str(tmp_path / "preds.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error ARG: index file holds no indices\n"


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, capsys,
                                                               monkeypatch):
    train, test, _ = _synth_split(tmp_path)
    assert cli.main(_train_args(tmp_path, train, test)) == 0
    model = tmp_path / "model.json"
    before = model.read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())

    def save_part_then_fail(state, fp):
        fp.write(checkpoint_bytes(state).decode()[:1000])
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "save_checkpoint", save_part_then_fail)
    capsys.readouterr()
    rc = cli.main(_train_args(tmp_path, train, test, extra=("--seed", "6")))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error IO:")
    assert model.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def _synth_all(tmp_path, seed):
    return ["synth", "--dims", "20,20", "--generator", "cp", "--rank", "2",
            "--entries", "400", "--seed", str(seed), "--out", str(tmp_path / "all.coo"),
            "--test-fraction", "0.1", "--train-out", str(tmp_path / "train.coo"),
            "--test-out", str(tmp_path / "test.coo"),
            "--truth", str(tmp_path / "truth.json")]


@pytest.mark.parametrize("target", ["all.coo", "train.coo", "test.coo", "truth.json",
                                    "preds.csv"])
def test_a_failed_output_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch,
                                                       target):
    # synth and predict write each output through a temp file: a write that
    # fails midway leaves the file of the last run whole and no temp file
    assert cli.main(_synth_all(tmp_path, seed=3)) == 0
    assert cli.main(_train_args(tmp_path, tmp_path / "train.coo",
                                tmp_path / "test.coo")) == 0
    indices = tmp_path / "idx.txt"
    indices.write_text("0 0\n3 7\n19 19\n")
    predict = ["predict", "--checkpoint", str(tmp_path / "model.json"),
               "--indices", str(indices), "--out", str(tmp_path / "preds.csv")]
    assert cli.main(predict) == 0
    path = tmp_path / target
    before = path.read_bytes()
    files = sorted(p.name for p in tmp_path.iterdir())

    def partly(write):
        # the whole write into other files; into the target, a part, then a failure
        def wrapped(obj, fp, *args):
            if not fp.name.startswith(f"{path}.tmp"):
                return write(obj, fp, *args)
            fp.write("partial\n")
            raise OSError("no space left on device")
        return wrapped

    def predict_then_fail(state, indices):
        means, variances = predict_batch(state, indices)

        def failing():
            yield variances[0]
            raise OSError("no space left on device")
        return means, failing()

    predict_batch = cli.predict_eval.predict_batch
    monkeypatch.setattr(cli, "write_coo", partly(cli.write_coo))
    monkeypatch.setattr(GroundTruth, "to_json", partly(GroundTruth.to_json))
    monkeypatch.setattr(cli.predict_eval, "predict_batch", predict_then_fail)
    capsys.readouterr()
    rc = cli.main(predict if target == "preds.csv" else _synth_all(tmp_path, seed=8))
    assert rc == 1
    assert capsys.readouterr().err == "error IO: no space left on device\n"
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_verify_command_passes_every_check(capsys):
    assert cli.main(["verify", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines)


_FOOTPRINT_SCRIPT = """
import importlib.abc
import sys
from pathlib import Path


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} imported on the numpy-only path")
        return None


refuse = RefuseScipy()
sys.meta_path.insert(0, refuse)
import streamdtf
from streamdtf import cli


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0, argv


for kind in ("continuous", "binary"):
    work = Path(sys.argv[1]) / kind
    work.mkdir()
    train, test, model = work / "train.coo", work / "test.coo", work / "model.json"
    run("synth", "--dims", "20,12", "--kind", kind, "--generator", "cp", "--rank", "2",
        "--entries", "160", "--noise-sd", "0.1", "--seed", "4", "--test-fraction", "0.25",
        "--train-out", train, "--test-out", test, "--truth", work / "truth.json")
    run("train", "--train", train, "--test", test, "--dims", "20,12", "--kind", kind,
        "--rank", "2", "--hidden", "4", "--batch-size", "40", "--seed", "4",
        "--checkpoint", model, "--metrics", work / "metrics.csv")
    (work / "idx.txt").write_text("0 0\\n11 9\\n")
    run("predict", "--checkpoint", model, "--indices", work / "idx.txt",
        "--out", work / "preds.csv")
    run("eval", "--checkpoint", model, "--data", test)
assert not [name for name in sys.modules if name.partition(".")[0] == "scipy"]
sys.meta_path.remove(refuse)
assert cli.main(["verify", "--seed", "0"]) == 0
assert "scipy.special" in sys.modules and "scipy.integrate" in sys.modules
"""


def test_synth_train_predict_and_eval_import_numpy_alone(tmp_path):
    # a fresh interpreter: the test process itself has imported scipy. A
    # finder refuses every scipy import until `verify`, whose oracles are
    # scipy.special and scipy.integrate
    src = str(Path(streamdtf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                "-W", "error::FutureWarning"]
    done = subprocess.run([sys.executable, *warnings, "-c", _FOOTPRINT_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
