"""Streaming Bayesian deep tensor factorization.

A feed-forward network maps the concatenated per-mode embeddings of each
tensor entry to its value. Weights carry sparsifying spike-and-slab priors;
embeddings carry standard-normal priors. Entries arrive as a stream of
batches: each entry triggers a moment-matching posterior update driven by
derivatives of the running model evidence, and after each batch the
sparsity-prior approximation term is refined by expectation propagation.
Continuous data uses a Gaussian likelihood with a Gamma posterior over the
noise precision; binary data uses a probit likelihood.
"""

from .adf_engine import (BatchDiagnostics, EntryResult, EvidenceResult,
                         adf_update_entry, entry_errstate, evidence_binary,
                         evidence_continuous, process_batch, update_tau)
from .bnn import (ACTIVATIONS, NetworkSpec, backprop_gradient, forward_mean,
                  forward_mean_batch, output_moments_batch)
from .ep_prior import EpDiagnostics, refine_all
from .errors import (BoundsError, CheckpointError, NumericError, OracleError,
                     ParseError, UndefinedMetricError)
from .posterior_store import (DEFAULT_V_FLOOR, GammaPosterior, Hyperparams,
                              ModelState, check_invariants, checkpoint_bytes,
                              init_state, load_checkpoint, save_checkpoint)
from .predict_eval import (MetricRow, MetricSeries, auc, predict_batch,
                           predict_entry, rmse, running_eval)
from .tensor_core import (CpGenerator, DatasetSplit, GroundTruth, MlpGenerator,
                          ObservedEntry, TensorShape, ValueKind, parse_coo,
                          partition_stream, split_sizes, split_train_test,
                          synth_generate, write_coo)

__version__ = "0.1.0"
