"""Spans and counters for the traced benchmark run.

The tracer replaces a function under the name its caller looks it up by
(``train.backward``, ``ops.matmul``, ``cli.predict_cube`` ...) with a wrapper
that records a span: name, start, end, parent span and the iteration id of
the benchmark cycle it ran in. Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.

Exact counts (calls per function, tape records, primitive calls, computed
tape bytes) are taken only while ``counting`` is on, which the benchmark
limits to its set-up repeats and its first traced cycle: a fixed amount of
work, so two runs with the same seed count exactly the same.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import os
import time
from collections import Counter, defaultdict

# public functions of numcore.ops that are helpers, not primitives
_NOT_PRIMITIVES = ("as_tensor", "primitive_forward")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end, iteration)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # every call, the denominator of self_ms
        self.counted_calls: Counter = Counter()  # calls while counting
        self.iteration = -1
        self.counting = False
        self.counts: Counter = Counter()
        self.patch_pixels = 0
        self.checkpoint_bytes = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span_id, name, start, child_seconds]
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.counting:
            self.counted_calls[name] += 1
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, name, start, end, self.iteration))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def self_ms(self, name: str) -> float:
        """Mean self time per call in ms; 0 for a function never called."""
        calls = self.calls[name]
        return 1e3 * self.self_s[name] / calls if calls else 0.0

    def count(self, key: str, n: int = 1) -> None:
        if self.counting:
            self.counts[key] += n

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace calls made through ``owner.attr``. ``before(args, kwargs)``
        and ``after(args, kwargs, result)`` run outside the span. A missing
        attribute is skipped, so the traced set follows what the program
        defines."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, pkg) -> None:
        """Wrap the program's layers where their callers look them up.
        ``pkg`` is the namespace of imported program modules."""
        ops, model, losses, train, data, cli = (
            pkg.ops, pkg.model, pkg.losses, pkg.train, pkg.data, pkg.cli
        )

        def primitive(args, kwargs):
            self.count("primitive_calls")

        for attr, fn in inspect.getmembers(ops, inspect.isfunction):
            if fn.__module__ == ops.__name__ and not attr.startswith("_") \
                    and attr not in _NOT_PRIMITIVES:
                self.wrap(ops, attr, f"numcore.{attr.rstrip('_')}", before=primitive)
        self.wrap(model, "gamma_from_noise", "numcore.gamma_from_noise", before=primitive)

        def batch(args, kwargs):
            self.count("batches")

        self.wrap(train, "forward", "model.forward", before=batch)
        self.wrap(model, "forward", "model.forward", before=batch)
        for attr in (
            "tokenize_batch", "encode_batch", "alpha_head", "dirichlet_mean",
            "decode_bundles", "sample_abundances", "sample_endmembers", "reconstruct",
        ):
            self.wrap(model, attr, f"model.{attr}")
        self.wrap(cli, "predict_cube", "model.predict_cube")

        self.wrap(train, "compute_losses", "losses.compute_losses")
        for attr in ("loss_recon", "kl_dirichlet", "loss_abundance", "kl_bundle", "total_loss"):
            self.wrap(losses, attr, f"losses.{attr}")

        def tape(args, kwargs):
            if not self.counting:
                return
            records = (args[1] if len(args) > 1 else kwargs["tape"]).records
            self.counts["steps"] += 1
            self.counts["tape_records"] += len(records)
            for rec in records:
                self.counts[f"tape_records.{rec.op}"] += 1
                self.counts["tape_out_bytes"] += rec.output.data.nbytes

        def checkpoint(args, kwargs, result):
            if not self.checkpoint_bytes:
                self.checkpoint_bytes = os.path.getsize(args[0] if args else kwargs["path"])

        self.wrap(train, "train_epoch", "train.train_epoch")
        self.wrap(train, "backward", "numcore.backward", before=tape)
        self.wrap(train, "adam_step", "train.adam_step")
        self.wrap(train, "save_checkpoint", "train.save_checkpoint", after=checkpoint)
        self.wrap(train, "load_checkpoint", "train.load_checkpoint")
        self.wrap(cli, "load_checkpoint", "train.load_checkpoint")
        self.wrap(train, "split_pixels", "data.split_pixels")

        def patch_pixels(args, kwargs):
            self.patch_pixels += len(args[1])

        self.wrap(data.PatchSource, "batch", "data.PatchSource.batch", before=patch_pixels)
        for attr in ("synth_scene", "save_cube", "load_cube"):
            self.wrap(data, attr, f"data.{attr}")
        self.wrap(cli, "load_cube", "data.load_cube")
        self.wrap(cli, "evaluate", "metrics.evaluate")
        self.wrap(cli, "cmd_unmix", "cli.unmix")
        self.wrap(cli, "cmd_eval", "cli.eval")

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span_id, parent, name, start, end, iteration in self.spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, "iteration": iteration}
                fh.write(json.dumps(record) + "\n")
