import math

import numpy as np
import pytest

from streamdtf import (NetworkSpec, backprop_gradient, bnn, forward_mean,
                       forward_mean_batch, output_moments_batch)
from streamdtf.bnn import ForwardTape
from streamdtf.errors import NumericError
from streamdtf.oracles import naive_forward, pack, unpack


def _random_net(rng, activation, max_width=8, layers=None):
    v0 = int(rng.integers(2, 6))
    n_hidden = layers if layers is not None else int(rng.integers(1, 3))
    hidden = [int(rng.integers(2, max_width + 1)) for _ in range(n_hidden)]
    spec = NetworkSpec.for_factorization(v0, hidden, activation)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    x = rng.standard_normal(v0)
    return spec, weights, x


def test_zero_network_outputs_zero():
    spec = NetworkSpec.for_factorization(3, [4], "relu")
    weights = [np.zeros(s) for s in spec.weight_shapes]
    alpha, _ = forward_mean(spec, weights, np.array([1.0, -2.0, 5.0]))
    assert alpha == 0.0


def test_single_layer_scaling_recursion():
    spec = NetworkSpec((2, 1), "relu")
    alpha, _ = forward_mean(spec, [np.ones((1, 3))], np.ones(2))
    assert alpha == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_relu_dead_hidden_unit_leaves_bias_path():
    # hidden pre-activation forced negative: output reduces to the bias path
    spec = NetworkSpec((1, 1, 1), "relu")
    w1 = np.array([[1.0, -10.0]])  # z1 = (x - 10)/sqrt(2) < 0 for small x
    w2 = np.array([[3.0, 0.5]])
    alpha, _ = forward_mean(spec, [w1, w2], np.array([1.0]))
    assert alpha == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-12)


def test_single_layer_gradient_closed_form():
    w, b, x = 2.0, 0.5, 3.0
    spec = NetworkSpec((1, 1), "identity")
    weights = [np.array([[w, b]])]
    alpha, tape = forward_mean(spec, weights, np.array([x]))
    g = backprop_gradient(tape)
    want = np.array([x, 1.0, w]) / math.sqrt(2.0)
    assert np.allclose(g, want, atol=1e-14)


def test_zero_weights_zero_input_gradient_is_bias_only():
    spec = NetworkSpec.for_factorization(2, [3], "tanh")
    weights = [np.zeros(s) for s in spec.weight_shapes]
    x = np.zeros(2)
    alpha, tape = forward_mean(spec, weights, x)
    g = backprop_gradient(tape)
    mats, gx = unpack(g, spec)
    # only the output layer's bias slot sees a signal
    assert np.all(mats[0] == 0.0)
    assert np.all(gx == 0.0)
    assert np.all(mats[1][:, :-1] == 0.0)
    assert mats[1][0, -1] != 0.0


def test_output_moments_zero_variance_is_deterministic():
    spec = NetworkSpec.for_factorization(2, [3], "relu")
    rng = np.random.default_rng(1)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    _, beta = output_moments_batch(spec, weights,
                                   [np.zeros(s) for s in spec.weight_shapes],
                                   np.array([[0.3, -0.7]]), np.zeros((1, 2)))
    assert beta[0] == 0.0


def test_output_moments_hand_case():
    spec = NetworkSpec((1, 1), "identity")
    alpha, beta = output_moments_batch(spec, [np.array([[1.0, 0.0]])],
                                       [np.ones((1, 2))], np.array([[2.0]]),
                                       np.ones((1, 1)))
    assert alpha[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert beta[0] == pytest.approx(3.0, abs=1e-12)


def test_forward_matches_straight_line_interpreter():
    rng = np.random.default_rng(3)
    for activation in ("relu", "tanh", "identity"):
        for _ in range(10):
            spec, weights, x = _random_net(rng, activation)
            alpha, _ = forward_mean(spec, weights, x)
            naive = naive_forward(spec.widths, activation, weights, x)
            assert abs(alpha - naive) <= 1e-12 * max(1.0, abs(naive))


def test_beta_invariant_under_joint_permutation():
    rng = np.random.default_rng(4)
    g = rng.standard_normal(30)
    gamma = rng.uniform(0.1, 2.0, 30)
    perm = rng.permutation(30)
    assert float((g * g) @ gamma) == pytest.approx(
        float((g[perm] * g[perm]) @ gamma[perm]), rel=1e-12)


def test_linear_network_is_exactly_linear_in_inputs():
    rng = np.random.default_rng(5)
    spec = NetworkSpec.for_factorization(3, [4], "identity")
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    x = rng.standard_normal(3)
    alpha, tape = forward_mean(spec, weights, x)
    g = backprop_gradient(tape)
    gx = g[spec.n_weights:]
    for j, delta in ((0, 0.37), (1, -2.1), (2, 5.0)):
        shifted = x.copy()
        shifted[j] += delta
        alpha2, _ = forward_mean(spec, weights, shifted)
        assert alpha2 - alpha == pytest.approx(delta * gx[j], rel=1e-10)


def test_shape_mismatch_errors():
    spec = NetworkSpec((2, 1), "relu")
    with pytest.raises(ValueError):
        forward_mean(spec, [np.ones((1, 4))], np.ones(2))
    with pytest.raises(ValueError):
        forward_mean(spec, [np.ones((1, 3))], np.ones(3))


def test_non_finite_intermediate_raises():
    spec = NetworkSpec((1, 1), "identity")
    with pytest.raises(NumericError):
        forward_mean(spec, [np.array([[np.inf, 0.0]])], np.ones(1))


def test_batched_forward_and_moments_match_single():
    rng = np.random.default_rng(7)
    spec, weights, _ = _random_net(rng, "relu")
    w_vars = [rng.uniform(0.01, 1.0, s) for s in spec.weight_shapes]
    xs = rng.standard_normal((10, spec.input_dim))
    x_vars = rng.uniform(0.01, 1.0, (10, spec.input_dim))
    alphas, betas = output_moments_batch(spec, weights, w_vars, xs, x_vars)
    for i in range(10):
        alpha, beta = output_moments_batch(spec, weights, w_vars, xs[i:i + 1],
                                           x_vars[i:i + 1])
        assert alphas[i] == pytest.approx(alpha[0], rel=1e-12, abs=1e-12)
        assert betas[i] == pytest.approx(beta[0], rel=1e-10, abs=1e-12)
        # the layer-wise beta against the dense form g' diag(gamma) g
        _, tape = forward_mean(spec, weights, xs[i])
        g = backprop_gradient(tape)
        dense = float((g * g) @ pack(w_vars, x_vars[i]))
        assert betas[i] == pytest.approx(dense, rel=1e-10, abs=1e-12)
        naive = naive_forward(spec.widths, spec.activation, weights, xs[i])
        assert alphas[i] == pytest.approx(naive, rel=1e-12, abs=1e-12)
    a2, _ = forward_mean_batch(spec, weights, xs)
    assert np.allclose(a2, alphas)


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((3, 2), "relu")  # output width must be 1
    with pytest.raises(ValueError):
        NetworkSpec((3, 1), "swish")
    spec = NetworkSpec.for_factorization(4, [50, 50], "relu")
    assert spec.layer_count == 3
    assert spec.weight_shapes == ((50, 5), (50, 51), (1, 51))


def test_non_integral_widths_raise_type_error():
    with pytest.raises(TypeError):
        NetworkSpec((3.5, 1))
    with pytest.raises(TypeError):
        NetworkSpec.for_factorization(4, [2.5])


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("widths", [(6, 9, 4, 1), (9, 3, 1), (4, 1)])
def test_a_reused_batch_tape_gives_the_bytes_of_a_fresh_one(widths, activation):
    # one n-row tape across calls with new weights and inputs: no buffer may
    # carry anything from the last call (the bias columns, set once, must
    # survive, and delta_m overwrites z_m), so the bytes equal those of the
    # new tape a call given none makes. Each call passes a new
    # weights list, so the tape, and a reused one-row tape, must rebind to it
    spec = NetworkSpec(widths, activation)
    rng = np.random.default_rng(11)
    n = 7
    tape = ForwardTape.allocate(spec, (n,))
    one_row = ForwardTape.allocate(spec)
    for call in range(4):
        w_means = [rng.standard_normal(s) for s in spec.weight_shapes]
        w_vars = [rng.uniform(0.01, 1.0, s) for s in spec.weight_shapes]
        x = rng.standard_normal((n, spec.input_dim))
        x_var = rng.uniform(0.01, 1.0, (n, spec.input_dim))
        want = output_moments_batch(spec, w_means, w_vars, x, x_var)
        if call % 2:
            # the input rows in the tape's own buffers, as predict_batch passes them
            tape.inputs[...], tape.input_vars[...] = x, x_var
            got = output_moments_batch(spec, w_means, w_vars, tape.inputs,
                                       tape.input_vars, tape)
        else:
            got = output_moments_batch(spec, w_means, w_vars, x, x_var, tape)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert tape.weights is w_means
        for view, w in zip(*_record_views(tape, w_means), strict=True):
            assert np.shares_memory(view, w)
        alpha, _ = forward_mean(spec, w_means, x[0], one_row)
        alpha_fresh, fresh_tape = forward_mean(spec, w_means, x[0])
        assert one_row.weights is w_means
        assert np.float64(alpha).tobytes() == np.float64(alpha_fresh).tobytes()
        assert backprop_gradient(one_row).tobytes() == \
            backprop_gradient(fresh_tape).tobytes()


def _record_views(tape, weights):
    """The weight views of a bound tape's pass records, and for each the
    layer's weights it must view: W_m.T per layer, W_m[:, :V_{m-1}] per
    hidden layer from the top down, and W_M's row."""
    views = ([r[3] for r in tape.forward] + [r[1] for r in tape.backward]
             + [tape.head[0]])
    return views, list(weights) + list(weights[-2::-1]) + [weights[-1]]


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("widths", [(6, 9, 4, 1), (9, 3, 1), (4, 1)])
def test_output_moments_without_input_variances_give_the_same_alpha_bytes(widths,
                                                                          activation):
    # the continuous score reads only alpha: without input variances the
    # forward pass alone runs, and alpha must keep its bytes, on a new
    # tape and on one n-row tape that alternates both kinds of call
    spec = NetworkSpec(widths, activation)
    rng = np.random.default_rng(12)
    n = 7
    tape = ForwardTape.allocate(spec, (n,))
    for call in range(4):
        w_means = [rng.standard_normal(s) for s in spec.weight_shapes]
        w_vars = [rng.uniform(0.01, 1.0, s) for s in spec.weight_shapes]
        x = rng.standard_normal((n, spec.input_dim))
        x_var = rng.uniform(0.01, 1.0, (n, spec.input_dim))
        want, _ = output_moments_batch(spec, w_means, w_vars, x, x_var)
        tape.inputs[...] = x
        for got, beta in (output_moments_batch(spec, w_means, w_vars, x, None),
                          output_moments_batch(spec, w_means, w_vars, tape.inputs,
                                               None, tape)):
            assert beta is None
            assert got.tobytes() == want.tobytes()
        # a full pass on the same tape right after is unaffected
        full = output_moments_batch(spec, w_means, w_vars, x, x_var, tape)
        assert full[0].tobytes() == want.tobytes()
        assert full[1].tobytes() == output_moments_batch(spec, w_means, w_vars, x,
                                                         x_var)[1].tobytes()


def test_the_relu_derivative_forms_agree_to_the_byte():
    # the one-row tape takes heaviside then the multiply, n rows take
    # np.greater into the float buffer then the multiply: the same bytes on
    # signed zeros, subnormals, infinities and random z
    rng = np.random.default_rng(13)
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, np.inf, -np.inf])
    z = np.concatenate([special, rng.standard_normal(200), rng.standard_normal(40) * 1e300])
    for dh in (rng.standard_normal(z.shape), np.full(z.shape, -0.0),
               np.full(z.shape, np.inf)):
        with np.errstate(invalid="ignore"):  # 0 * inf
            one_row = bnn._relu_grad_one_row(z, dh, np.empty_like(z))
            rows = bnn._relu_grad(z, dh, np.empty_like(z))
            fresh = bnn._relu_grad_one_row(z, dh, None)
        assert one_row.tobytes() == rows.tobytes() == fresh.tobytes()
    # NaN is where they part: heaviside keeps it, np.greater reads it as 0
    nan = np.array([np.nan])
    assert np.isnan(bnn._relu_grad_one_row(nan, np.ones(1), np.empty(1))[0])
    assert bnn._relu_grad(nan, np.ones(1), np.empty(1))[0] == 0.0


def test_scalar_operands_give_the_bits_of_python_floats():
    # the passes and the update give their ufuncs 0-d float64 arrays where
    # they gave Python floats: the same float64 loop runs, so every bit is
    # the same, on signed zeros, NaN, infinities and subnormals too
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan,
                  1.5, -3.25, 1e300, -1e-300])
    with np.errstate(all="ignore"):
        for value in (0.0, -0.0, 1.0, math.sqrt(51.0), tiny, -tiny, np.inf, -np.inf,
                      np.nan, 1e300):
            operand = bnn._operand(value)
            assert operand.shape == () and not operand.flags.writeable
            for ufunc in (np.divide, np.maximum, np.heaviside, np.multiply, np.subtract,
                          np.greater):
                assert ufunc(x, operand).tobytes() == ufunc(x, value).tobytes()
                assert ufunc(operand, x).tobytes() == ufunc(value, x).tobytes()
            for inplace in (np.divide, np.multiply):
                got, want = x.copy(), x.copy()
                inplace(got, operand, out=got)
                inplace(want, value, out=want)
                assert got.tobytes() == want.tobytes()


def test_each_tape_takes_the_relu_derivative_of_its_row_count():
    spec = NetworkSpec((3, 4, 2, 1), "relu")
    for tape, grad in ((ForwardTape.allocate(spec), bnn._relu_grad_one_row),
                       (ForwardTape.allocate(spec, (5,)), bnn._relu_grad)):
        assert tape.grad is grad


def _backward_by_products(tape):
    """The backward pass with the output layer's dh_{M-1} taken as the
    product np.matmul(delta_M, W_M[:, :V_{M-1}]) / s_M, like every other
    layer's."""
    scales, grad, deltas, dh, preact = (tape.spec.fan_in_scales, tape.grad, tape.deltas,
                                        tape.dh, tape.preact)
    w_in = [w[:, :v] for w, v in zip(tape.weights, tape.spec.widths)]
    for m in range(len(scales) - 1, -1, -1):
        grad_h = np.matmul(deltas[m], w_in[m], out=dh[m])
        grad_h /= scales[m]
        if m:
            deltas[m - 1] = grad(preact[m - 1], grad_h, out=deltas[m - 1])
    return deltas, grad_h


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("widths", [(6, 9, 4, 1), (5, 7, 1), (4, 1), (1, 1)])
def test_the_output_layer_dh_is_the_product_form_to_the_byte(widths, activation):
    # delta_M = 1, so dh_{M-1} is W_M's weight row over s_M: the deltas and
    # d alpha / dx must keep the bytes of the product form on one row and on
    # n rows. With identity delta_{M-1} is dh_{M-1} itself, and with no
    # hidden layer so is d alpha / dx
    spec = NetworkSpec(widths, activation)
    rng = np.random.default_rng(14)
    for _ in range(3):
        weights = [rng.standard_normal(s) for s in spec.weight_shapes]
        for lead in ((), (6,)):
            x = rng.standard_normal(lead + (spec.input_dim,))
            runs = []
            for backward in (bnn._backward, _backward_by_products):
                tape = ForwardTape.allocate(spec, lead)
                forward_mean_batch(spec, weights, x, tape)
                deltas, dx = backward(tape)
                runs.append([d.tobytes() for d in deltas] + [dx.tobytes()])
                assert dx.shape == x.shape
            assert runs[0] == runs[1]


def _beta_by_products(spec, weight_vars, tape, x_var):
    """beta with every layer's term, the output layer's too, summed as
    (delta_m^2 var_m) . hb_{m-1}^2 from the (n, V_m) by (V_m, V_{m-1} + 1)
    product."""
    deltas, dx = bnn._backward(tape)
    beta = np.zeros(dx.shape[0])
    for m in range(spec.layer_count, 0, -1):
        delta, hb = deltas[m - 1], tape.hb[m - 1]
        beta += np.einsum("nt,nt->n", np.matmul(delta * delta, weight_vars[m - 1]), hb * hb)
    return beta + np.einsum("nt,nt->n", dx * dx, x_var)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("widths", [(6, 9, 4, 1), (8, 101, 1), (5, 1)])
def test_the_output_layer_beta_term_is_the_product_form_to_the_byte(widths, activation):
    # delta_M = 1 on every row, so the output layer's term of beta sums
    # hb_{M-1}^2 against var_M's one row: beta must keep the bytes of the
    # product form on a tape made by the call and on one given to it, from
    # 1 row to 2,000
    spec = NetworkSpec(widths, activation)
    rng = np.random.default_rng(16)
    w_means = [rng.standard_normal(s) for s in spec.weight_shapes]
    w_vars = [rng.uniform(0.01, 1.0, s) for s in spec.weight_shapes]
    for n in (1, 60, 2000):
        x = rng.standard_normal((n, spec.input_dim))
        x_var = rng.uniform(0.01, 1.0, x.shape)
        _, tape = forward_mean_batch(spec, w_means, x)
        want = _beta_by_products(spec, w_vars, tape, x_var)
        for tape in (None, ForwardTape.allocate(spec, (n,))):
            _, beta = output_moments_batch(spec, w_means, w_vars, x, x_var, tape)
            assert beta.tobytes() == want.tobytes()


def test_a_minus_zero_output_weight_keeps_its_sign_in_dh():
    # the one difference from the product form: a -0.0 weight of W_M gives
    # dh = -0.0 where the product gave 0 + 1 * -0.0 = +0.0
    spec = NetworkSpec((2, 1), "identity")
    weights = [np.array([[-0.0, 1.0, 0.5]])]
    _, tape = forward_mean_batch(spec, weights, np.ones(2))
    _, dx = bnn._backward(tape)
    _, tape_p = forward_mean_batch(spec, weights, np.ones(2))
    _, dx_p = _backward_by_products(tape_p)
    assert np.signbit(dx[0]) and not np.signbit(dx_p[0])
    assert (dx + 0.0).tobytes() == dx_p.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("widths", [(6, 9, 4, 1), (4, 1)])
def test_the_forward_pass_writes_the_output_block_of_g(widths, activation):
    # the output layer's block of g is hb_{M-1}'s buffer: every forward
    # pass on the one-row tape rewrites it, backprop_gradient only reads it,
    # and only the hidden layers have outer-product factors
    spec = NetworkSpec(widths, activation)
    rng = np.random.default_rng(15)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    tape = ForwardTape.allocate(spec)
    assert len(tape.outer) == spec.layer_count - 1
    out_block = spec.weight_slices[-1]
    assert np.shares_memory(tape.g[out_block], tape.hb[-1])
    for _ in range(3):
        x = rng.standard_normal(spec.input_dim)
        forward_mean(spec, weights, x, tape)
        _, fresh = forward_mean(spec, weights, x)
        assert tape.g[out_block].tobytes() == tape.hb[-1].tobytes() \
            == fresh.hb[-1].tobytes()
        assert tape.hb[-1][-1] == 1.0 / spec.fan_in_scales[-1]
        g = backprop_gradient(tape)
        assert g[out_block].tobytes() == tape.hb[-1].tobytes()


def test_a_one_row_alpha_outlives_the_next_pass_on_its_tape():
    spec = NetworkSpec((3, 4, 1), "tanh")
    rng = np.random.default_rng(16)
    weights = [rng.standard_normal(s) for s in spec.weight_shapes]
    tape = ForwardTape.allocate(spec)
    alpha, _ = forward_mean_batch(spec, weights, rng.standard_normal(3), tape)
    kept = float(alpha)
    forward_mean_batch(spec, weights, rng.standard_normal(3), tape)
    assert alpha.shape == () and float(alpha) == kept
