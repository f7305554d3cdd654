"""In-memory spans around calls into streamdtf's public functions.

The benchmark measures each layer from outside: it replaces a module
attribute (or a `ModelState` method) with a wrapper that records one span per
call, and puts the original back afterwards. Nothing under `src/` is edited.

A span is `[name, start, end, parent, work]`: `parent` is the index of the
span that was open when this one started (-1 at the top), `work` is a count
the layer reports for the call (entries parsed, rows predicted), or 0.
Self time is a span's duration minus the durations of its direct children.

`running_eval` (once per training) and `process_batch` (once per batch) are
wrapped in every run; the per-entry functions and the other per-batch ones
are wrapped only in a traced repetition, so untraced timings carry no
per-entry instrumentation.

The host's speed changes by up to 2x within seconds, because neighbours
share the machine. A probe (a "host.probe" span, or "host.probe_batch"
before a batch) runs a fixed reference kernel of Python arithmetic and small
matrix-vector products, the mix the engine spends its time on, and
`scaled()` rescales each stretch of time by the probe before it. Probes run
before each training, before each batch, before each checkpoint load and
every PROBE_EVERY serve requests, never inside a timed call, and `scaled()`
leaves their own time out.
"""

import bisect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from streamdtf import adf_engine, bnn, cli, ep_prior, predict_eval, tensor_core
from streamdtf.posterior_store import ModelState

# Fastest time of one reference kernel run on the host that defined the
# benchmark (2-core x86-64 VM, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31 on
# one thread): scaled times are times at the speed where a run takes this.
KERNEL_NOMINAL_S = 1.65e-4
PROBE_RUNS = 3
PROBE_EVERY = 25
_KERNEL_A = np.full((50, 50), 0.01)
_KERNEL_X = np.ones(50)


def _kernel_s():
    """Time one run of the reference kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    for _ in range(60):
        _KERNEL_A @ _KERNEL_X
    return time.perf_counter() - start


def _rows(args, kwargs, result):
    return len(args[1])


def _entries(args, kwargs, result):
    return len(result)


def _bnn_rows(args, kwargs, result):
    return len(args[3])


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []
        self._probe_starts = []
        self._probes = []

    def probe(self, name="host.probe"):
        """Run the reference kernel PROBE_RUNS times in a span; its work slot
        holds the fastest run's time."""
        with self.span(name) as rec:
            rec[4] = min(_kernel_s() for _ in range(PROBE_RUNS))
        self._probe_starts.append(rec[1])
        self._probes.append(rec)

    def forget(self, first):
        """Drop spans[first:] and their probes, once the caller has read them."""
        if first < len(self.spans):
            k = bisect.bisect_left(self._probe_starts, self.spans[first][1])
            del self.spans[first:], self._probe_starts[k:], self._probes[k:]

    def scaled(self, start, end):
        """Time from `start` to `end` without the probes in it, each stretch
        multiplied by KERNEL_NOMINAL_S / the kernel time of the probe before
        it. A probe must have ended before `start`."""
        i = bisect.bisect_left(self._probe_starts, start) - 1
        if i < 0 or self._probes[i][2] > start:
            raise RuntimeError("no host probe before a timed interval")
        probes = self._probes
        t, speed, total = start, probes[i][4], 0.0
        i += 1
        while i < len(probes) and probes[i][1] < end:
            _, p_start, p_end, _, p_speed = probes[i]
            total += (p_start - t) * KERNEL_NOMINAL_S / speed
            t, speed = p_end, p_speed
            i += 1
        return total + (end - t) * KERNEL_NOMINAL_S / speed

    @contextmanager
    def span(self, name):
        """Record one span around the `with` body; yields the span record."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, work=None, on_return=None, before=None):
        """`fn` recording one span per call; `work(args, kwargs, result)`
        gives the call's work count, `on_return(result)` sees the result,
        `before()` runs before each call, outside its span."""
        spans, opened, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before()
            idx = len(spans)
            rec = [name, 0.0, 0.0, opened[-1] if opened else -1, 0]
            spans.append(rec)
            opened.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                opened.pop()
            if work is not None:
                rec[4] = work(args, kwargs, result)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_batch(self, diag):
        self.counts["adf_engine.entries_skipped"] += diag.skip_count
        self.counts["adf_engine.entries_clamped"] += diag.clamp_count
        if diag.ep is not None:
            self.counts["ep_prior.guard_skips"] += diag.ep.guard_skips
            self.counts["ep_prior.term_kept"] += diag.ep.term_kept
            self.counts["ep_prior.inhibited"] += diag.ep.inhibited

    def _targets(self, fine):
        """(owner, attribute, span name, work, on_return[, before]) for each patch."""
        targets = [
            (predict_eval, "running_eval", "predict_eval.running_eval", None, None),
            (adf_engine, "process_batch", "adf_engine.process_batch", None,
             self._count_batch, lambda: self.probe("host.probe_batch")),
        ]
        if not fine:
            return targets
        return targets + [
            (tensor_core, "parse_coo", "tensor_core.parse_coo", _entries, None),
            (cli, "partition_stream", "tensor_core.partition_stream", None, None),
            (cli, "init_state", "posterior_store.init_state", None, None),
            (cli, "save_checkpoint", "posterior_store.save_checkpoint", None, None),
            (adf_engine, "adf_update_entry", "adf_engine.adf_update_entry", None, None),
            (ModelState, "gather_entry", "posterior_store.gather_entry", None, None),
            (ModelState, "scatter_entry", "posterior_store.scatter_entry", None, None),
            (bnn, "forward_mean", "bnn.forward_mean", None, None),
            (bnn, "backprop_gradient", "bnn.backprop_gradient", None, None),
            (adf_engine, "evidence_continuous", "adf_engine.evidence", None, None),
            (adf_engine, "evidence_binary", "adf_engine.evidence", None, None),
            (ep_prior, "refine_all", "ep_prior.refine_all", None, None),
            (predict_eval, "predict_batch", "predict_eval.predict_batch", _rows, None),
            (bnn, "output_moments_batch", "bnn.output_moments_batch", _bnn_rows, None),
        ]

    @contextmanager
    def installed(self, fine):
        """Wrap `running_eval` and `process_batch`, and the per-entry and the
        other per-batch functions too when `fine` is set; restore the
        originals on exit."""
        saved = []
        try:
            for owner, attr, name, *hooks in self._targets(fine):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, segments):
        """Per span name over the spans in the given (first, last) index
        ranges: calls, total time, self time and work."""
        spans = self.spans
        child_time = defaultdict(float)
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "work": 0})
        for first, last in segments:
            for n, start, end, parent, _ in spans[first:last]:
                child_time[parent] += end - start
            for i in range(first, last):
                n, start, end, _, work = spans[i]
                row = out[n]
                row["calls"] += 1
                row["total"] += end - start
                row["self"] += end - start - child_time[i]
                row["work"] += work
        return dict(out)

    def write(self, path, first, last):
        """Write spans[first:last] as CSV: id,name,start_us,end_us,parent,work."""
        spans = self.spans
        t0 = spans[first][1]
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("id,name,start_us,end_us,parent,work\n")
            for i in range(first, last):
                n, start, end, parent, work = spans[i]
                fp.write(f"{i - first},{n},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},"
                         f"{parent - first if parent >= first else -1},{work}\n")
