"""Streaming factorization of a binary two-mode tensor.

Labels are sampled through a probit link from a random nonlinear interaction
model. The running test AUC is compared against the AUC of the true
generator probabilities (the best any model could do on this test set).
"""

import numpy as np
from scipy.special import ndtr

import streamdtf as s
from streamdtf.seeding import derive_seeds

SEED = 7

shape = s.TensorShape((300, 75))
generator = s.MlpGenerator(hidden=(10,), activation="tanh")
entries, truth = s.synth_generate(shape, rank=4, kind=s.ValueKind.BINARY,
                                  generator=generator, noise_sd=0.0,
                                  n_entries=22000, seed=SEED)
split = s.split_train_test(entries, test_fraction=2000 / 22000, seed=107)
test_idx = [e.index for e in split.test]
test_val = np.array([e.value for e in split.test])
oracle_auc = s.auc(ndtr(truth.evaluate(test_idx)), test_val)

print(f"tensor {shape.dims}, {len(split.train)} train / {len(split.test)} test entries")
print(f"positive rate {test_val.mean():.3f}; true-generator auc {oracle_auc:.4f}")
print()

net = s.NetworkSpec.for_factorization(input_dim=16, hidden=[50, 50], activation="relu")
init_seed, shuffle_seed = derive_seeds(SEED, 2)
state = s.init_state(shape, s.ValueKind.BINARY, net, s.Hyperparams(ranks=(8, 8)),
                     seed=init_seed)
batches = s.partition_stream(split.train, batch_size=256, seed=shuffle_seed)

print(f"streaming {len(batches)} batches of 256 ...")
series = s.running_eval(state, batches, split.test)
for row in series.rows[::10] + [series.rows[-1]]:
    print(f"  batch {row.batch:3d}  entries seen {row.seen:6d}  auc {row.metric:.4f}")

final = series.rows[-1].metric
print()
print(f"final auc {final:.4f} = {final / oracle_auc:.0%} of the true-generator auc")

inhibited = int((s.selector_probability(state) < 0.5).sum())
total = state.net.n_weights
print(f"selector posteriors: {inhibited}/{total} weights inhibited "
      f"(probability of being active < 0.5)")
