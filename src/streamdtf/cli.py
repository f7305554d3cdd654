"""Command-line driver.

Subcommands: synth (seeded synthetic data), train (streaming training with
optional running evaluation), predict, eval, verify (oracle self-checks).

All randomness flows from --seed: the state initialization and the stream
shuffle use independent child streams derived from it, so identical
config+seed reproduces byte-identical checkpoints and metric CSVs. The
metrics CSV writes 0.0 in its ms column unless --timing-in-csv is given,
keeping default outputs deterministic.

Configuration may come from a JSON file (--config) whose keys mirror the
flags 1:1; explicit flags override the file. Failures exit nonzero with a
single machine-parsable line `error <CODE>: <message>` on stderr.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence, get_args, get_origin

from . import adf_engine, ep_prior, predict_eval, tensor_core
from .bnn import USER_ACTIVATIONS, NetworkSpec
from .errors import (BoundsError, CheckpointError, NumericError, ParseError,
                     UndefinedMetricError)
from .posterior_store import (Hyperparams, init_state, load_checkpoint,
                              save_checkpoint)
from .seeding import derive_seeds
from .tensor_core import (CpGenerator, MlpGenerator, TensorShape, ValueKind,
                          partition_stream, split_train_test, synth_generate,
                          write_coo)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _write_atomically(path: str, write) -> None:
    """Write `path` by calling `write(fp)` on a temp file in the same
    directory, then renaming it over `path`: a failure mid-write leaves the
    previous file whole and no temp file behind."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            write(fp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _as_field_type(annotation, value):
    """`value` from a config file or a flag as a RunConfig field annotation:
    an int tuple, int, float, str or bool, or None where the field allows it.
    Only a value of that type passes, or an int for a float, so nothing is
    truncated or reinterpreted: 4.9, "3" and true (bool is an int subclass)
    are no int, and 1 is no bool."""
    args = get_args(annotation)
    if type(None) in args:
        if value is None:
            return None
        annotation = args[0]
    if get_origin(annotation) is tuple:
        # a string or an object iterates to str elements, which fail below
        return tuple(_as_field_type(int, v) for v in value)
    accepted = (int, float) if annotation is float else annotation
    if not isinstance(value, accepted) or isinstance(value, bool) != (annotation is bool):
        raise TypeError(value)
    return annotation(value)


@dataclass(frozen=True)
class RunConfig:
    """Effective training configuration (defaults mirror the standard setup:
    rank 8 per mode, two hidden layers of 50, relu, batch size 256). Every
    field is checked against its annotated type on construction; a value of
    another type raises UsageError naming the key."""

    dims: tuple[int, ...]
    kind: str = "continuous"
    ranks: tuple[int, ...] | None = None
    hidden: tuple[int, ...] = (50, 50)
    activation: str = "relu"
    batch_size: int = 256
    rho0: float = Hyperparams.rho0
    sigma0_sq: float = Hyperparams.sigma0_sq
    a0: float = Hyperparams.a0
    b0: float = Hyperparams.b0
    damping: float = ep_prior.DEFAULT_DAMPING
    seed: int = 0
    train: str | None = None
    test: str | None = None
    checkpoint: str | None = None
    metrics: str | None = None
    timing_in_csv: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, _as_field_type(f.type, value))
            except (TypeError, ValueError, OverflowError):
                want = f.type.__name__ if isinstance(f.type, type) else f.type
                raise UsageError(f"config key {f.name!r} must be {want}, "
                                 f"got {value!r}") from None

    @property
    def effective_ranks(self) -> tuple[int, ...]:
        return self.ranks if self.ranks is not None else (8,) * len(self.dims)


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _resolve_config(args) -> RunConfig:
    """The config file's keys, overridden by the flags given; --ranks beats
    --rank, which gives every mode the same rank."""
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fp:
                doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise UsageError("config file must hold a JSON object, got "
                             f"{type(doc).__name__}")
        unknown = set(doc) - set(CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(doc)
    merged.update({key: getattr(args, key) for key in CONFIG_KEYS
                   if getattr(args, key) is not None})
    if merged.get("dims") is None:
        raise UsageError("tensor dims are required (--dims or config file)")
    cfg = RunConfig(**merged)
    if args.ranks is None and args.rank is not None:
        cfg = dataclasses.replace(cfg, ranks=(args.rank,) * len(cfg.dims))
    return cfg


def _build_parser() -> _Parser:
    parser = _Parser(prog="streamdtf",
                     description="Streaming Bayesian deep tensor factorization")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate seeded synthetic data")
    p.add_argument("--dims", type=_int_list, required=True)
    p.add_argument("--kind", choices=["continuous", "binary"], default="continuous")
    p.add_argument("--generator", choices=["cp", "mlp"], default="cp")
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--entries", type=int, required=True)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write all entries to this COO file")
    p.add_argument("--truth", help="write the generator parameters to this JSON file")
    p.add_argument("--test-fraction", type=float,
                   help="also split into train/test COO files")
    p.add_argument("--train-out")
    p.add_argument("--test-out")
    p.add_argument("--gen-hidden", type=_int_list, default=(20,),
                   help="hidden widths of the mlp generator")
    p.add_argument("--gen-activation", choices=list(USER_ACTIVATIONS), default="tanh")
    p.add_argument("--gen-sparsity", type=float, default=0.0)

    p = sub.add_parser("train", help="stream-train a model")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--train", help="training COO file")
    p.add_argument("--test", help="held-out COO file for running evaluation")
    p.add_argument("--dims", type=_int_list)
    p.add_argument("--kind", choices=["continuous", "binary"])
    p.add_argument("--rank", type=int, help="same rank for every mode")
    p.add_argument("--ranks", type=_int_list, help="per-mode ranks")
    p.add_argument("--hidden", type=_int_list)
    p.add_argument("--activation", choices=list(USER_ACTIVATIONS))
    p.add_argument("--batch-size", type=int)
    p.add_argument("--rho0", type=float)
    p.add_argument("--sigma0-sq", type=float)
    p.add_argument("--a0", type=float)
    p.add_argument("--b0", type=float)
    p.add_argument("--damping", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--checkpoint", help="write the trained state here")
    p.add_argument("--metrics", help="write the running-evaluation CSV here")
    p.add_argument("--timing-in-csv", action=argparse.BooleanOptionalAction,
                   default=None, help="write real per-batch wallclock into the CSV")
    p.add_argument("--resume-from", help="continue from an existing checkpoint")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config JSON and exit")

    p = sub.add_parser("predict", help="predict entries from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--indices", required=True,
                   help="file with one K-tuple of node indices per line")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score a checkpoint on observed entries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("verify", help="run the oracle self-checks")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_synth(args) -> int:
    shape = TensorShape(args.dims)
    kind = ValueKind.from_string(args.kind)
    if args.generator == "cp":
        generator = CpGenerator()
    else:
        generator = MlpGenerator(hidden=tuple(args.gen_hidden),
                                 activation=args.gen_activation,
                                 sparsity=args.gen_sparsity)
    if args.out is None and args.test_fraction is None:
        raise UsageError("need --out and/or --test-fraction with --train-out/--test-out")
    entries, truth = synth_generate(shape, args.rank, kind, generator,
                                    args.noise_sd, args.entries, args.seed)
    if args.out:
        _write_atomically(args.out, lambda fp: write_coo(entries, fp, kind))
        print(f"wrote {len(entries)} entries to {args.out}")
    if args.test_fraction is not None:
        if not args.train_out or not args.test_out:
            raise UsageError("--test-fraction needs --train-out and --test-out")
        split_seed = derive_seeds(args.seed, 2)[1]
        split = split_train_test(entries, args.test_fraction, split_seed)
        _write_atomically(args.train_out, lambda fp: write_coo(split.train, fp, kind))
        _write_atomically(args.test_out, lambda fp: write_coo(split.test, fp, kind))
        print(f"wrote {len(split.train)} train / {len(split.test)} test entries")
    if args.truth:
        _write_atomically(args.truth, truth.to_json)
        print(f"wrote ground truth to {args.truth}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if args.dump_config:
        # JSON renders the tuples as lists
        print(json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2))
        return 0
    if cfg.train is None:
        raise UsageError("a training file is required (--train or config)")
    if cfg.metrics is not None and cfg.test is None:
        raise UsageError("--metrics needs --test for the running evaluation")
    shape = TensorShape(cfg.dims)
    kind = ValueKind.from_string(cfg.kind)
    ranks = cfg.effective_ranks
    # COO and index files may start with a UTF-8 byte-order mark
    with open(cfg.train, encoding="utf-8-sig") as fp:
        train_entries = tensor_core.parse_coo(fp, shape, kind)
    init_seed, shuffle_seed = derive_seeds(cfg.seed, 2)
    if args.resume_from:
        with open(args.resume_from, encoding="utf-8") as fp:
            state = load_checkpoint(fp)
        # the entries were parsed against the configured dims and kind
        for field, have, want in (("dims", state.shape.dims, shape.dims),
                                  ("kind", state.kind.value, kind.value)):
            if have != want:
                raise UsageError(f"--resume-from checkpoint has {field} {have}, "
                                 f"the configuration has {want}")
    else:
        net = NetworkSpec.for_factorization(sum(ranks), cfg.hidden, cfg.activation)
        hyper = Hyperparams(rho0=cfg.rho0, sigma0_sq=cfg.sigma0_sq, a0=cfg.a0,
                            b0=cfg.b0, ranks=ranks)
        state = init_state(shape, kind, net, hyper, seed=init_seed)
    batches = partition_stream(train_entries, cfg.batch_size, seed=shuffle_seed)

    series = None
    if cfg.test is not None:
        with open(cfg.test, encoding="utf-8-sig") as fp:
            test_entries = tensor_core.parse_coo(fp, shape, kind)
        series = predict_eval.running_eval(state, batches, test_entries,
                                           damping=cfg.damping)
    else:
        for batch in batches:
            adf_engine.process_batch(state, batch, damping=cfg.damping)

    if cfg.checkpoint:
        _write_atomically(cfg.checkpoint, lambda fp: save_checkpoint(state, fp))
    if series is not None and cfg.metrics:
        _write_atomically(cfg.metrics, lambda fp: series.write_csv(
            fp, include_timing=cfg.timing_in_csv))
    if series is not None and series.rows:
        print(f"final {series.metric_name} {series.rows[-1].metric!r}")
    else:
        print(f"trained entries={state.entries_seen} batches={len(batches)}")
    return 0


def _cmd_predict(args) -> int:
    with open(args.checkpoint, encoding="utf-8") as fp:
        state = load_checkpoint(fp)
    with open(args.indices, encoding="utf-8-sig") as fp:
        indices = tensor_core.parse_index_lines(fp, state.shape)
    if not indices:
        raise UsageError("index file holds no indices")
    k = state.shape.mode_count
    header = ",".join(f"i_{i + 1}" for i in range(k))
    predicted = predict_eval.predict_batch(state, indices)
    if state.kind is ValueKind.CONTINUOUS:
        header += ",prediction,variance"
        cells = (f",{float(m)!r},{float(v)!r}" for m, v in zip(*predicted))
    else:
        header += ",prediction"
        cells = (f",{float(pr)!r}" for pr in predicted)

    def write(fp):
        fp.write(header + "\n")
        fp.writelines(f"{','.join(map(str, idx))}{cell}\n" for idx, cell in zip(indices, cells))

    _write_atomically(args.out, write)
    print(f"wrote {len(indices)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    with open(args.checkpoint, encoding="utf-8") as fp:
        state = load_checkpoint(fp)
    with open(args.data, encoding="utf-8-sig") as fp:
        entries = tensor_core.parse_coo(fp, state.shape, state.kind)
    if not entries:
        raise UsageError("evaluation file holds no entries")
    name, value = predict_eval.score(state, [e.index for e in entries],
                                     [e.value for e in entries])
    print(f"{name} {value!r}")
    return 0


def _cmd_verify(args) -> int:
    # imported here: the checks load scipy.special and scipy.integrate as
    # their references, which no other command needs
    from . import verify

    results = verify.run_checks(seed=args.seed)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 1


_ERROR_CODES = (
    (UsageError, "ARG", 2),
    (ParseError, "PARSE", 1),
    (BoundsError, "BOUNDS", 1),
    (CheckpointError, "CHECKPOINT", 1),
    (UndefinedMetricError, "METRIC", 1),
    (NumericError, "NUMERIC", 1),
    (OSError, "IO", 1),
    (ValueError, "VALUE", 1),
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "synth": _cmd_synth, "train": _cmd_train, "predict": _cmd_predict,
            "eval": _cmd_eval, "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except Exception as exc:  # noqa: BLE001 - single-line error contract
        for exc_type, code, status in _ERROR_CODES:
            if isinstance(exc, exc_type):
                message = " ".join(str(exc).split())
                print(f"error {code}: {message}", file=sys.stderr)
                return status
        raise


if __name__ == "__main__":
    sys.exit(main())
