"""Reference batch update that repacks per-layer arrays on every entry.

This is the update as written before the flat parameter store: the forward
pass appends the bias feature, the backward pass builds one outer product per
layer, `oracles.pack`/`unpack` move between per-layer matrices and flat
vectors in `NetworkSpec.weight_slices` order, and the EP sweep runs once per
layer. Every arithmetic operation
has the same operands and order as the engine, so the two must agree to the
byte on the checkpoint. Skip handling is left out: the data the tests feed
it is well conditioned.
"""

import numpy as np

from streamdtf import bnn, ep_prior
from streamdtf.adf_engine import evidence_binary, evidence_continuous, update_tau
from streamdtf.oracles import pack, unpack
from streamdtf.posterior_store import DEFAULT_V_FLOOR
from streamdtf.tensor_core import ValueKind


def _alpha_and_gradient(spec, w_means, x):
    act, dact = bnn.ACTIVATIONS[spec.activation]
    h, hbs, preacts = x, [], []
    for m, w in enumerate(w_means, start=1):
        hbs.append(np.append(h, 1.0) / np.sqrt(h.shape[0] + 1.0))
        preacts.append(w @ hbs[-1])
        h = act(preacts[-1]) if m < spec.layer_count else preacts[-1]
    delta, grads = np.ones(1), []
    for m in range(spec.layer_count, 0, -1):
        w = w_means[m - 1]
        grads.insert(0, np.outer(delta, hbs[m - 1]))
        v_prev = spec.widths[m - 1]
        dh = (w[:, :v_prev].T @ delta) / np.sqrt(v_prev + 1.0)
        if m > 1:
            delta = dact(preacts[m - 2]) * dh
    return float(h[0]), pack(grads, dh)


def reference_batch(state, entries, damping=0.5, v_floor=DEFAULT_V_FLOOR):
    for entry in entries:
        x_mean, x_var = state.gather_entry(entry.index)
        w_means = [lay.mean for lay in state.weights]
        alpha, g = _alpha_and_gradient(state.net, w_means, x_mean)
        gamma_vec = pack([lay.var for lay in state.weights], x_var)
        beta = float((g * g) @ gamma_vec)
        if state.kind is ValueKind.BINARY:
            ev = evidence_binary(alpha, beta, entry.value)
        else:
            ev = evidence_continuous(alpha, beta, entry.value, state.gamma)
        dmu = ev.dalpha * g
        dv = ev.dbeta * (g * g)
        mu_new = pack(w_means, x_mean) + gamma_vec * dmu
        v_new = gamma_vec - gamma_vec * gamma_vec * (dmu * dmu - 2.0 * dv)
        v_new = np.where(~np.isfinite(v_new) | (v_new < v_floor), v_floor, v_new)
        new_w_means, new_x_mean = unpack(mu_new, state.net)
        new_w_vars, new_x_var = unpack(v_new, state.net)
        for lay, m, v in zip(state.weights, new_w_means, new_w_vars):
            lay.mean[...] = m
            lay.var[...] = v
        state.scatter_entry(entry.index, new_x_mean, new_x_var)
        if state.kind is ValueKind.CONTINUOUS:
            state.gamma = update_tau(state.gamma, entry.value, alpha, beta)
        state.entries_seen += 1
    for lay in state.weights:
        out = ep_prior.refine_arrays(
            lay.mean, lay.var, lay.rho_post, lay.term_mean, lay.term_var,
            lay.term_logit, slab_var=state.hyper.sigma0_sq, damping=damping,
            v_floor=v_floor)
        for name in ("mean", "var", "rho_post", "term_mean", "term_var", "term_logit"):
            getattr(lay, name)[...] = out[name]
