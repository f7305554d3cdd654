"""Reference batch update that repacks per-layer arrays on every entry.

This is the update as written before the flat parameter store and the
reused one-row buffers: the forward pass appends the bias feature, the
backward pass builds one outer product per layer, the embedding rows are
concatenated and written back here, `oracles.pack`/`unpack` move between
per-layer matrices and flat vectors in `NetworkSpec.weight_slices` order,
and the EP sweep runs once per layer.

`factored_step` has the same operands and order as the engine, so with it
the two must agree to the byte on the checkpoint. `unfactored_step` is the
update in the order the engine used before the factored variance step; the
two orders agree up to rounding, and the drift test bounds how far. Skip
handling is left out: the data the tests feed it is well conditioned.
"""

import numpy as np

from streamdtf import ep_prior
from streamdtf.adf_engine import evidence_binary, evidence_continuous, update_tau
from streamdtf.oracles import pack, unpack
from streamdtf.posterior_store import DEFAULT_V_FLOOR
from streamdtf.tensor_core import ValueKind

# name -> (act(z), act'(z))
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) * np.tanh(z)),
    "identity": (lambda z: z, np.ones_like),
}


def _alpha_and_gradient(spec, w_means, x):
    act, dact = _ACTIVATIONS[spec.activation]
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


def factored_step(mu, gamma, g, evidence):
    """The engine's order: u = gamma g, beta = g . u, mu' = mu + dalpha u and
    var' = gamma - c u^2 with c = dalpha^2 - 2 dbeta. Returns
    (beta, mu', var') before the clamp."""
    u = gamma * g
    beta = float(g @ u)
    ev = evidence(beta)
    c = ev.dalpha * ev.dalpha - 2.0 * ev.dbeta
    return beta, mu + ev.dalpha * u, gamma - c * (u * u)


def unfactored_step(mu, gamma, g, evidence):
    """The order before the factored step: dmu = dalpha g, dv = dbeta g^2,
    beta = g^2 . gamma, mu' = mu + gamma dmu and
    var' = gamma - gamma^2 (dmu^2 - 2 dv)."""
    beta = float((g * g) @ gamma)
    ev = evidence(beta)
    dmu = ev.dalpha * g
    dv = ev.dbeta * (g * g)
    return beta, mu + gamma * dmu, gamma - gamma * gamma * (dmu * dmu - 2.0 * dv)


def reference_entry(state, entry, v_floor=DEFAULT_V_FLOOR, step=factored_step):
    """One entry's update, without the EP sweep."""
    rows = list(zip(state.embeddings, entry.index))
    x_mean = np.concatenate([emb.mean[i] for emb, i in rows])
    x_var = np.concatenate([emb.var[i] for emb, i in rows])
    w_means = [lay.mean for lay in state.weights]
    alpha, g = _alpha_and_gradient(state.net, w_means, x_mean)
    gamma_vec = pack([lay.var for lay in state.weights], x_var)
    if state.kind is ValueKind.BINARY:
        evidence = lambda beta: evidence_binary(alpha, beta, entry.value)  # noqa: E731
    else:
        evidence = lambda beta: evidence_continuous(  # noqa: E731
            alpha, beta, entry.value, state.gamma)
    beta, mu_new, v_new = step(pack(w_means, x_mean), gamma_vec, g, evidence)
    v_new = np.where(~np.isfinite(v_new) | (v_new < v_floor), v_floor, v_new)
    new_w_means, new_x_mean = unpack(mu_new, state.net)
    new_w_vars, new_x_var = unpack(v_new, state.net)
    for lay, m, v in zip(state.weights, new_w_means, new_w_vars):
        lay.mean[...] = m
        lay.var[...] = v
    offset = 0
    for emb, i in rows:
        r = emb.mean.shape[1]
        emb.mean[i] = new_x_mean[offset:offset + r]
        emb.var[i] = new_x_var[offset:offset + r]
        offset += r
    if state.kind is ValueKind.CONTINUOUS:
        state.gamma = update_tau(state.gamma, entry.value, alpha, beta)
    state.entries_seen += 1


def reference_batch(state, entries, damping=0.5, v_floor=DEFAULT_V_FLOOR,
                    step=factored_step):
    for entry in entries:
        reference_entry(state, entry, v_floor, step)
    for lay in state.weights:
        ep_prior.refine_arrays(
            lay.mean, lay.var, lay.rho_post, lay.term_mean, lay.term_var,
            lay.term_logit, slab_var=state.hyper.sigma0_sq, damping=damping,
            v_floor=v_floor)
