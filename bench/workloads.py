"""The three benchmark workloads, their inputs and their correctness gates.

Every input is generated from the run's seed; the program only sees the
generated scene, cube files and checkpoint. One call of ``cycle()`` is one
closed-loop iteration: the next starts only after the previous returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Fit inputs come from a table of this many seeds (--seed n uses entry
# n mod N_SEEDS) so that every fit has a recorded reference trajectory.
N_SEEDS = 32
FIT_EPOCHS = 3
SIMPLEX_TOL = 1e-6

CRITERION7_MODEL = dict(patch=3, bands=48, k=3, seg_len=16, d=32, layers=4, heads=16, ff_dim=64)
TINY_MODEL = dict(patch=3, bands=16, k=3, seg_len=8, d=8, layers=1, heads=2, ff_dim=8)
TINY_SCENE = dict(height=8, width=8, bands=16, seg_len=8)


@dataclass(frozen=True)
class Spec:
    kind: str  # "fit" or "unmix"
    scene: dict
    model: dict
    batch_size: int = 0


SPECS = {
    # The configuration users and the acceptance suite train; kernel-bound.
    "fit_standard": Spec("fit", {}, CRITERION7_MODEL, batch_size=128),
    # Same layers, but batch 8 makes per-step fixed cost dominate.
    "fit_smallbatch": Spec(
        "fit",
        dict(bands=96, k=4, dirichlet_alpha=[20.0] * 4),
        dict(patch=3, bands=96, k=4, seg_len=16, d=32, layers=2, heads=8, ff_dim=64),
        batch_size=8,
    ),
    # Inference only: the unmix and eval commands on a 64x64 cube.
    "unmix_cube": Spec("unmix", dict(height=64, width=64), CRITERION7_MODEL),
}

TINY_SPECS = {
    "fit_standard": Spec("fit", TINY_SCENE, TINY_MODEL, batch_size=8),
    "fit_smallbatch": Spec("fit", TINY_SCENE, TINY_MODEL, batch_size=2),
    "unmix_cube": Spec("unmix", TINY_SCENE, TINY_MODEL),
}


def reference_key(name: str, tiny: bool) -> str:
    return f"tiny/{name}" if tiny else name


class Probe:
    """Times every call made through ``owner.attr`` with one clock pair per
    call, cheap enough to stay on in the untraced run."""

    def __init__(self, owner, attr, note=None):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.samples: list[tuple] = []  # (seconds, note)
        probe, fn = self, self.original

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            probe.samples.append((seconds, note(args, result) if note else None))
            return result

        setattr(owner, attr, timed)

    def restore(self):
        setattr(self.owner, self.attr, self.original)


def _report_failure(what: str) -> None:
    print(f"[bench] {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


class Workload:
    """Shared bookkeeping: operations attempted and failed, and the
    samples taken since the last ``reset``."""

    def __init__(self, name: str, pkg, spec: Spec, seed: int, workdir: Path, tiny: bool):
        self.name, self.pkg, self.spec, self.seed = name, pkg, spec, seed
        self.workdir, self.tiny = workdir, tiny
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []  # wall time per epoch or per command pair
        self.px_rates: list[float] = []  # pixels per second of each epoch or predict_cube call

    def reset(self) -> None:
        self.samples, self.px_rates = [], []


class FitWorkload(Workload):
    """``train.fit`` for FIT_EPOCHS epochs from a fresh init, repeated. Each
    epoch is one operation; it fails if the fit raises before it completes
    or if its loss total leaves the recorded reference trajectory."""

    def __init__(self, *args):
        super().__init__(*args)
        self.index = self.seed % N_SEEDS
        self.reference = None
        self.probe = Probe(
            self.pkg.train, "train_epoch", note=lambda args, out: (len(args[3]), out[0].total)
        )

    def config(self):
        p = self.pkg
        return p.train.TrainConfig(
            epochs=FIT_EPOCHS,
            batch_size=self.spec.batch_size,
            seed=self.index,
            model=p.model.ModelConfig(**self.spec.model),
            split=p.data.SplitSpec(train_fraction=0.2, seed=self.index),
        )

    def prepare(self) -> None:
        """Scene synthesis, BSQ round trip and training config: everything a
        user does before the first epoch."""
        data = self.pkg.data
        cube = data.synth_scene(
            data.SceneConfig(**self.spec.scene), np.random.default_rng(self.index)
        )
        base = self.workdir / "scene"
        data.save_cube(cube, base)
        self.cube = data.load_cube(base)
        self.train_config = self.config()
        self.train_config.validate()

    def fit_totals(self):
        """Run one fit; return the per-epoch loss totals it completed."""
        start = len(self.probe.samples)
        try:
            self.pkg.train.fit(self.train_config, self.cube, self.workdir / "run")
        except Exception:  # a failed fit counts against error_rate, the loop goes on
            _report_failure(f"{self.name} fit")
        return self.probe.samples[start:]

    def cycle(self) -> None:
        if self.reference is None:
            ref = json.loads(REFERENCE_PATH.read_text())
            self.rel_tol = ref["rel_tol"]
            self.reference = ref["workloads"][reference_key(self.name, self.tiny)][str(self.index)]
        done = self.fit_totals()
        self.attempted += FIT_EPOCHS
        self.failed += FIT_EPOCHS - len(done)
        for epoch, (seconds, (n_px, total)) in enumerate(done):
            if not math.isclose(total, self.reference[epoch], rel_tol=self.rel_tol, abs_tol=0.0):
                print(
                    f"[bench] {self.name} seed {self.index} epoch {epoch}: total {total!r} "
                    f"!= reference {self.reference[epoch]!r}",
                    file=sys.stderr,
                )
                self.failed += 1
            self.samples.append(seconds)
            self.px_rates.append(n_px / seconds)

    def close(self) -> None:
        self.probe.restore()


class UnmixWorkload(Workload):
    """``cli.main(["unmix", ...])`` then ``cli.main(["eval", ...])`` on a
    prepared cube and checkpoint. Each command is one operation; it fails
    if it raises, exits nonzero or writes outputs that break a gate."""

    def __init__(self, *args):
        super().__init__(*args)
        self.probe = Probe(self.pkg.cli, "predict_cube")

    def prepare(self) -> None:
        """Scene synthesis and cube files, then a criterion-7 model
        initialized from the seed and saved with ``save_checkpoint``."""
        p = self.pkg
        rng = np.random.default_rng(self.seed)
        cube = p.data.synth_scene(p.data.SceneConfig(**self.spec.scene), rng)
        self.base = self.workdir / "cube"
        p.data.save_cube(cube, self.base)
        model = p.model.ModelConfig(**self.spec.model)
        params = p.model.init_params(model, rng)
        self.checkpoint = self.workdir / "model.ldvt"
        p.train.save_checkpoint(
            self.checkpoint,
            p.train.Checkpoint(
                params=params,
                opt=p.train.AdamState.zeros(params),
                epoch=0,
                rng_state=rng.bit_generator.state,
                model=model,
                seed=self.seed,
            ),
        )
        self.shape = (cube.height, cube.width, model.k)
        self.bands = cube.bands

    def _command(self, command: str):
        out = self.workdir / command
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--checkpoint", str(self.checkpoint), "--data", str(self.base),
                "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.pkg.cli.main(argv)
        except Exception:
            _report_failure(f"{command} command")
            code = None
        seconds = time.perf_counter() - start
        problem = None
        if code != 0:
            problem = f"exit code {code}, stderr {stderr.getvalue().strip()!r}"
        else:
            try:
                problem = self._gate(command, stdout.getvalue(), out)
            except Exception as err:  # an unreadable output fails the gate
                problem = f"{type(err).__name__}: {err}"
        if problem:
            print(f"[bench] {command} gate failed: {problem}", file=sys.stderr)
        return seconds, problem is None

    def _gate(self, command: str, stdout: str, out: Path):
        lines = stdout.splitlines()
        if len(lines) != 2 or not all(isinstance(json.loads(line), dict) for line in lines):
            return f"stdout has {len(lines)} lines, want two JSON objects"
        problem = _check_simplex(out / "abundances", self.shape)
        if problem:
            return problem
        if command == "unmix":
            bundles = self.pkg.data.load_bundles(out / "bundles.json")
            if len(bundles) != self.shape[2] or any(b.bands != self.bands for b in bundles):
                return "bundles.json does not hold one bundle per endmember over all bands"
            return None
        return _check_metrics_csv(out / "metrics.csv", self.shape[2])

    def cycle(self) -> None:
        pair = 0.0
        for command in ("unmix", "eval"):
            predicted = len(self.probe.samples)
            seconds, ok = self._command(command)
            self.attempted += 1
            self.failed += not ok
            pair += seconds
            for predict_seconds, _ in self.probe.samples[predicted:]:
                self.px_rates.append(self.shape[0] * self.shape[1] / predict_seconds)
        self.samples.append(pair)

    def close(self) -> None:
        self.probe.restore()


def _check_simplex(base: Path, shape) -> str | None:
    header = json.loads(Path(str(base) + ".json").read_text())
    dims = (header["height"], header["width"], header["bands"])
    if tuple(dims) != tuple(shape) or header["dtype"] != "f32":
        return f"abundance map header {header} does not match {shape}"
    maps = np.fromfile(str(base) + ".bsq", dtype="<f4").astype(np.float64)
    if maps.size != math.prod(shape):
        return f"abundance map holds {maps.size} values, want {math.prod(shape)}"
    maps = maps.reshape(shape[2], -1)
    if maps.min() < -SIMPLEX_TOL or np.abs(maps.sum(axis=0) - 1.0).max() > SIMPLEX_TOL:
        return "abundance maps leave the simplex"
    return None


def _check_metrics_csv(path: Path, k: int) -> str | None:
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    if rows[0] != ["endmember", "sad_rad", "rmse"] or len(rows) != k + 2 \
            or rows[-1][0] != "average":
        return f"metrics.csv layout is wrong: {rows}"
    per = np.array([[float(v) for v in row[1:]] for row in rows[1:-1]])
    average = [float(v) for v in rows[-1][1:]]
    for column, want in zip(per.T, average):
        if not math.isclose(float(column.mean()), want, rel_tol=1e-12, abs_tol=0.0):
            return f"metrics.csv average {want!r} does not recompute ({column.mean()!r})"
    return None


def make(name: str, pkg, seed: int, workdir: Path, tiny: bool) -> Workload:
    spec = (TINY_SPECS if tiny else SPECS)[name]
    cls = FitWorkload if spec.kind == "fit" else UnmixWorkload
    return cls(name, pkg, spec, seed, workdir, tiny)
