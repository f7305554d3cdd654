"""Checkpointing, resumption, and bit-level reproducibility.

Shows that (a) a run split in half with a checkpoint in the middle ends in
exactly the same state as an uninterrupted run, and (b) repeating a run with
the same seed reproduces the checkpoint byte for byte. Exits nonzero if
either claim fails.
"""

import io
import sys

import streamdtf as s
from streamdtf.seeding import derive_seeds

SEED = 4

shape = s.TensorShape((30, 30))
entries, _ = s.synth_generate(shape, rank=2, kind=s.ValueKind.CONTINUOUS,
                              generator=s.CpGenerator(), noise_sd=0.1,
                              n_entries=600, seed=SEED)
net = s.NetworkSpec.for_factorization(input_dim=4, hidden=[8], activation="relu")
hyper = s.Hyperparams(ranks=(2, 2))
init_seed, shuffle_seed = derive_seeds(SEED, 2)
batches = s.partition_stream(entries, batch_size=64, seed=shuffle_seed)
half = len(batches) // 2


def fresh_state():
    return s.init_state(shape, s.ValueKind.CONTINUOUS, net, hyper, seed=init_seed)


# uninterrupted run
state_full = fresh_state()
for batch in batches:
    s.process_batch(state_full, batch)

# run with a save/load round trip in the middle
state_a = fresh_state()
for batch in batches[:half]:
    s.process_batch(state_a, batch)
buf = io.StringIO()
s.save_checkpoint(state_a, buf)
print(f"checkpoint after {half} batches: {len(buf.getvalue())} bytes of JSON")
buf.seek(0)
state_b = s.load_checkpoint(buf)
for batch in batches[half:]:
    s.process_batch(state_b, batch)

same = s.checkpoint_bytes(state_full) == s.checkpoint_bytes(state_b)
print(f"resumed run matches the uninterrupted run byte for byte: {same}")

# identical seed, identical bytes
state_repeat = fresh_state()
for batch in batches:
    s.process_batch(state_repeat, batch)
repeated = s.checkpoint_bytes(state_repeat) == s.checkpoint_bytes(state_full)
print(f"repeated run reproduces the checkpoint byte for byte: {repeated}")

mean, var = s.predict_entry(state_b, entries[0].index)
print(f"prediction from the restored state: {mean:+.3f} +- {var ** 0.5:.3f} "
      f"for entry {entries[0].index}")

if not (same and repeated):
    sys.exit("checkpoint resume or seeded reproducibility failed")
