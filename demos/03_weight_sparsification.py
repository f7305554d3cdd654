"""Online sparsification of the network weights.

The generator is a random network with half of its weights zeroed. The model
is anchored to the generator's coordinate system (embeddings pinned at the
true factors, weight means started near the true weights) so each trained
weight corresponds to one generator weight; without that anchoring,
hidden-unit permutation symmetry would make the comparison meaningless.

After streaming training, the per-batch refinement of the sparsity prior
should have driven the selector probabilities of the truly-zero weights down
while keeping the truly-active ones high.
"""

import numpy as np

import streamdtf as s
from streamdtf.seeding import derive_seeds, make_rng

SEED = 21

shape = s.TensorShape((120, 120))
generator = s.MlpGenerator(hidden=(8,), activation="tanh", sparsity=0.5)
entries, truth = s.synth_generate(shape, rank=3, kind=s.ValueKind.CONTINUOUS,
                                  generator=generator, noise_sd=0.05,
                                  n_entries=12000, seed=SEED)
split = s.split_train_test(entries, test_fraction=2000 / 12000, seed=SEED + 1)
mask = np.concatenate([m.ravel() for m in truth.zero_mask])
print(f"generator: {truth.network.widths} network, "
      f"{int(mask.sum())}/{mask.size} weights truly zero")

init_seed, shuffle_seed = derive_seeds(SEED, 2)
state = s.init_state(shape, s.ValueKind.CONTINUOUS, truth.network,
                     s.Hyperparams(ranks=(3, 3)), seed=init_seed)
anchor_rng = make_rng(SEED + 2)
for k, emb in enumerate(state.embeddings):
    emb.mean[...] = truth.embeddings[k]
    emb.var[...] = 1e-6
for lay, w_true in zip(state.weights, truth.weights):
    # the init site's mean; the term stays the prior's slab
    lay.mean[...] = w_true + anchor_rng.normal(0.0, 0.3, w_true.shape)

print(f"streaming {len(split.train)} entries in batches of 256 ...")
for batch in s.partition_stream(split.train, batch_size=256, seed=shuffle_seed):
    s.process_batch(state, batch)

test_idx = [e.index for e in split.test]
test_val = [e.value for e in split.test]
means, _ = s.predict_batch(state, test_idx)
print(f"final test rmse {s.rmse(means, test_val):.4f} (noise sd 0.05)")
print()

rho = s.selector_probability(state)
print(f"mean selector probability, truly-zero weights:   {rho[mask].mean():.3f}")
print(f"mean selector probability, truly-active weights: {rho[~mask].mean():.3f}")
print()
print("selector probability histogram (z = truly zero, a = truly active):")
edges = np.linspace(0.0, 1.0, 11)
for lo, hi in zip(edges[:-1], edges[1:]):
    in_bin = (rho >= lo) & (rho < hi if hi < 1.0 else rho <= 1.0)
    z = int((in_bin & mask).sum())
    a = int((in_bin & ~mask).sum())
    print(f"  [{lo:.1f}, {hi:.1f})  {'z' * z}{'a' * a}")
