"""Supervised training: Adam, the per-epoch mini-batch loop, binary
checkpoints with optimizer and RNG state, and the deterministic fit driver.

A run is fully determined by (seed, config, data): one Generator drives
initialization, epoch shuffles and all sampling noise in sequence, and its
state is serialized into every checkpoint so a resumed run replays the exact
parameter trajectory of an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import HsiCube, PatchSource, SplitSpec, check_fields, checked, segment_sizes
from .data import split_pixels
from .losses import (
    LossBreakdown,
    LossWeights,
    anneal_lambda,
    compute_losses,
    reference_blocks,
)
from .model import ModelConfig, NoiseCache, forward, init_params, param_shapes
from .model import sample_reconstruction
from .numcore import NumericError, Tape, Tensor, backward
from .numcore import keep_freed_memory, map_on_cores, ops

CHECKPOINT_MAGIC = b"LDVT"
CHECKPOINT_VERSION = 1
LOG_HEADER = "epoch,recon,kl_dirichlet,abundance,endmember,lambda_em,total"
# adam_step updates this many elements per pass, so that the chunk's slices
# of the six vectors it touches (parameters, gradients, both moments and two
# scratch vectors) take 1.5 MiB and stay in a 2 MiB L2 cache between passes
ADAM_CHUNK = 32768
# train_epoch runs a batch as ceil(B / SHARD_ROWS) row shards, one per worker:
# two at B = 128 and at the criterion-7 epoch's ragged 77, where shards of 64
# ran faster on two cores than shards of 32 or 43
SHARD_ROWS = 64


class TrainError(RuntimeError):
    """Training could not proceed (bad config, bad data, diverged run)."""


@dataclass
class TrainConfig:
    epochs: int = checked("int", ">= 0", default=1000)
    batch_size: int = checked("int", ">= 1", default=128)
    learning_rate: float = checked("real", "> 0", default=2e-4)
    adam_beta1: float = checked("real", ">= 0", "< 1", default=0.9)
    adam_beta2: float = checked("real", ">= 0", "< 1", default=0.999)
    adam_eps: float = checked("real", "> 0", default=1e-8)
    seed: int = checked("int", ">= 0", default=0)
    # model and loss weights raise their own errors from their own validate
    loss_weights: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)
    split: SplitSpec = checked("config", default_factory=SplitSpec)

    def validate(self) -> None:
        check_fields(self, TrainError)
        self.model.validate()
        self.loss_weights.validate()
        self.loss_weights.prior_for(self.model.k)


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive reshaped views into ``flat``, one per name, in dict order."""
    views: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


class AdamState:
    """Adam's moments and step count (Kingma & Ba, "Adam", 2015), kept with
    the parameters in four contiguous float64 vectors.

    Building a state copies every parameter into ``param_vec`` in sorted-name
    order and makes it a leaf with a zeroed gradient in ``grad_vec``:
    afterwards ``params[name].data`` and ``.grad`` are reshaped views into
    those vectors, as are ``m[name]`` and ``v[name]`` into ``m_vec`` and
    ``v_vec``. An Adam step is then a few in-place ufunc calls over the
    vectors, whatever the number of parameters, and one ``fill`` zeroes every
    gradient. ``m`` and ``v`` default to zeros; given, they are copied.
    """

    def __init__(self, params: dict[str, Tensor], m=None, v=None, t: int = 0):
        shapes = {name: params[name].shape for name in sorted(params)}

        def pack(arrays):
            flat = np.concatenate([np.ravel(arrays[name]) for name in shapes], dtype=np.float64)
            return flat, _views(flat, shapes)

        self.params = params
        self.param_vec, data = pack({name: p.data for name, p in params.items()})
        self.grad_vec = np.zeros_like(self.param_vec)
        for name, grad in _views(self.grad_vec, shapes).items():
            params[name].data, params[name].grad = data[name], grad
            params[name].requires_grad = True
        if m is None:
            self.m_vec, self.v_vec = np.zeros_like(self.param_vec), np.zeros_like(self.param_vec)
            self.m, self.v = _views(self.m_vec, shapes), _views(self.v_vec, shapes)
        else:
            (self.m_vec, self.m), (self.v_vec, self.v) = pack(m), pack(v)
        self.t = t
        # the two scratch vectors of adam_step, one chunk long
        chunk = min(ADAM_CHUNK, self.param_vec.size)
        self.work = (np.empty(chunk), np.empty(chunk))

    @classmethod
    def zeros(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(params)


def adam_step(state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of every parameter from its ``grad``,
    in place on the flat vectors, ``ADAM_CHUNK`` elements at a time, without
    allocating a vector. A non-finite gradient raises, naming the first such
    parameter in sorted order, before any parameter, moment or the step
    count changes."""
    if not np.isfinite(state.grad_vec).all():
        name = next(n for n in sorted(state.params) if not np.isfinite(state.params[n].grad).all())
        raise TrainError(f"non-finite gradient for parameter '{name}'")
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for lo in range(0, state.param_vec.size, ADAM_CHUNK):
        g, m, v, p = (
            vec[lo : lo + ADAM_CHUNK]
            for vec in (state.grad_vec, state.m_vec, state.v_vec, state.param_vec)
        )
        step, denom = (work[: g.size] for work in state.work)
        # the IEEE operations of the per-parameter form, in its order, so the
        # result is the same bit for bit: m = b1*m + (1-b1)*g;
        # v = b2*v + ((1-b2)*g)*g; p -= (lr * (m/corr1)) / (sqrt(v/corr2) + eps)
        m *= b1
        np.multiply(g, 1.0 - b1, out=step)
        m += step
        v *= b2
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v += step
        np.divide(m, corr1, out=step)
        step *= config.learning_rate
        np.divide(v, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += config.adam_eps
        step /= denom
        p -= step


@contextmanager
def _raising_float_errors():
    """Raise NumericError on a floating-point overflow, division by zero or
    invalid operation. numpy keeps this state per thread, so each function
    that may run on the pool sets it itself, as a decorator."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise NumericError(str(err)) from err


@_raising_float_errors()
def train_epoch(
    params: dict[str, Tensor],
    config: TrainConfig,
    cube: HsiCube,
    train_indices: np.ndarray,
    opt: AdamState,
    epoch: int,
    rng: np.random.Generator,
):
    """One pass over the training pixels in shuffled batches.

    ``opt`` must have been built from ``params``. Each batch runs as
    ``ceil(B / SHARD_ROWS)`` row shards on ``map_on_cores``: their forward
    passes; the batch's ``NoiseCache.draw``, split as the rows are; their
    draws, losses and backward passes of their shares of the total loss,
    into ``opt.grad_vec`` and per-shard vectors added in shard order; then
    one Adam step. Returns the pixel-weighted mean breakdown over the epoch
    together with the per-batch breakdowns, each the shards' breakdowns
    weighted by share.

    A floating-point overflow, division by zero or invalid operation raises
    NumericError. ``keep_freed_memory`` runs first, so that each step reuses
    the pages the steps before it freed.
    """
    keep_freed_memory()
    source = PatchSource(cube, config.model.patch)
    x_pixels = cube.pixels()
    z_pixels = cube.abundance_pixels()
    reference = reference_blocks(cube.gt_bundles)
    order = rng.permutation(np.asarray(train_indices, dtype=np.int64))
    n_shards = -(-min(config.batch_size, order.size) // SHARD_ROWS)
    grad_vecs = [opt.grad_vec, *(np.zeros_like(opt.grad_vec) for _ in range(n_shards - 1))]
    shard_params, shapes = [params], {name: params[name].shape for name in sorted(params)}
    for grad_vec in grad_vecs[1:]:  # leaves on the parameters' data with their own gradients
        shard_params.append({name: Tensor(params[name].data) for name in shapes})
        for name, grad in _views(grad_vec, shapes).items():
            shard_params[-1][name].requires_grad, shard_params[-1][name].grad = True, grad

    @_raising_float_errors()
    def front(shard):  # a shard's forward pass, on a tape of its own
        rows, leaves = shard
        with Tape() as tape:
            heads = forward(source.batch(rows), leaves, config.model)
        return [tape, heads]  # a list, which back empties

    @_raising_float_errors()
    def back(shard):  # its draws and losses, and the backward pass of its share
        taped, rows, leaves, noise, share = shard
        tape, heads = taped
        taped.clear()  # fronts holds this list too
        with tape:
            sampled = sample_reconstruction(heads, leaves, noise)
            total, bd = compute_losses(
                heads, sampled, x_pixels[rows], z_pixels[rows], reference,
                config.loss_weights, epoch,
            )
            # the records hold what backward reads of the heads and draws, so
            # with these references gone each array is freed as the last
            # record that holds it pops, before the encoder's vjps run
            del heads, sampled
            backward(ops.multiply(total, Tensor(share)), tape)
        return bd

    batch_logs: list[LossBreakdown] = []
    sums = np.zeros(5)
    for start in range(0, order.size, config.batch_size):
        idx = order[start : start + config.batch_size]
        parts = np.array_split(idx, -(-idx.size // SHARD_ROWS))
        fronts = list(map_on_cores(front, zip(parts, shard_params)))
        alpha_hat = np.concatenate([heads.alpha_hat.data for _, heads in fronts])
        noises = NoiseCache.draw(alpha_hat, config.model.bands, rng).split(len(parts))
        shares = [rows.size / idx.size for rows in parts]
        opt.grad_vec.fill(0.0)
        # back takes each shard's heads out of fronts and backward consumes
        # its tape, so no step's heads or draws outlive its backward passes
        bds = list(map_on_cores(back, zip(fronts, parts, shard_params, noises, shares)))
        for grad_vec in grad_vecs[1 : len(parts)]:
            opt.grad_vec += grad_vec
            grad_vec.fill(0.0)
        adam_step(opt, config)
        terms = sum(share * np.array(dataclasses.astuple(bd)[:5]) for share, bd in zip(shares, bds))
        batch_logs.append(LossBreakdown(*terms, bds[0].lambda_endmembers_now))
        sums += idx.size * terms
    means = sums / order.size
    epoch_mean = LossBreakdown(*means, anneal_lambda(epoch, config.loss_weights))
    return epoch_mean, batch_logs


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """Everything needed to continue a run bit-exactly."""

    params: dict[str, Tensor]
    opt: AdamState
    epoch: int
    rng_state: dict
    model: ModelConfig
    seed: int


def _write_atomic(path: Path, write) -> None:
    """Let ``write(fh)`` fill a temporary file beside ``path``, flush it to
    disk and rename it over ``path``: a write that fails part-way leaves the
    previous file whole and no temporary file behind."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    # os.open with mode 0o666 leaves the permissions to the umask, as open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(path, ck: Checkpoint) -> None:
    """Single binary file: magic, version, a JSON header (model config, epoch,
    optimizer step count, RNG state, seed), then every tensor in sorted-name
    order as (name, rank, dims, little-endian f64 payload). Optimizer moments
    ride along under the reserved prefixes opt.m. and opt.v."""
    header = {
        "model": ck.model.to_dict(),
        "epoch": int(ck.epoch),
        "adam_t": int(ck.opt.t),
        "rng_state": ck.rng_state,
        "seed": int(ck.seed),
    }
    tensors: dict[str, np.ndarray] = {name: p.data for name, p in ck.params.items()}
    for name, arr in ck.opt.m.items():
        tensors[f"opt.m.{name}"] = arr
    for name, arr in ck.opt.v.items():
        tensors[f"opt.v.{name}"] = arr
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            name_bytes = name.encode("utf-8")
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.reshape(-1).view(np.uint8))  # the array's own bytes, not a copy

    _write_atomic(Path(path), write)


def load_checkpoint(path) -> Checkpoint:
    buf = Path(path).read_bytes()
    try:
        if buf[:4] != CHECKPOINT_MAGIC:
            raise TrainError(f"{path} is not a checkpoint file (bad magic)")
        pos = 4
        (version,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if version != CHECKPOINT_VERSION:
            raise TrainError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        header = json.loads(buf[pos : pos + header_len].decode("utf-8"))
        adam_t, epoch, seed = (header[key] for key in ("adam_t", "epoch", "seed"))
        for key, n in (("adam_t", adam_t), ("epoch", epoch), ("seed", seed)):
            if type(n) is not int or n < 0:  # a JSON true is an int, but no count
                raise TrainError(f"corrupt checkpoint {path}: {key} {n!r} is not an int >= 0")
        rng_state = header["rng_state"]
        model = ModelConfig.from_dict(header["model"])
        pos += header_len
        (n_tensors,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            name = buf[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", buf, pos)
            pos += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(buf, dtype="<f8", count=count, offset=pos)
            pos += 8 * count
            tensors[name] = arr.reshape(dims)
    except KeyError as err:
        raise TrainError(f"corrupt checkpoint {path}: header lacks {err}") from err
    except (struct.error, IndexError, OverflowError, RecursionError, TypeError, ValueError) as err:
        raise TrainError(f"corrupt checkpoint {path}: {err}") from err
    try:
        np.random.default_rng(0).bit_generator.state = rng_state
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        raise TrainError(f"corrupt checkpoint {path}: bad rng_state: {err!r}") from err
    data: dict[str, np.ndarray] = {}
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(model):
        for store, key in ((data, name), (m, f"opt.m.{name}"), (v, f"opt.v.{name}")):
            arr = tensors.pop(key, None)
            if arr is None or arr.shape != shape:
                raise TrainError(f"checkpoint {path}: {key} is missing or not of shape {shape}")
            store[name] = arr
    if tensors:
        raise TrainError(
            f"checkpoint {path} holds tensors its model lacks: {', '.join(sorted(tensors))}"
        )
    params = {name: Tensor(arr) for name, arr in data.items()}
    return Checkpoint(
        params=params,
        opt=AdamState(params, m, v, adam_t),
        epoch=epoch,
        rng_state=rng_state,
        model=model,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# fit driver


def _earlier_log_rows(checkpoint_path, epoch: int) -> list[str]:
    """The whole rows for epochs before ``epoch`` in the train_log.csv beside
    a checkpoint, kept as text (their repr floats round-trip); none when
    there is no such log. A row a kill tore is dropped: it lacks fields,
    which keeps one cut inside its epoch digits from reading as an earlier
    epoch, or it names the checkpoint's own epoch."""
    path = Path(checkpoint_path).parent / "train_log.csv"
    if not path.is_file():
        return []
    rows = path.read_text(encoding="utf-8", errors="replace").splitlines()[1:]
    whole = (row for row in rows if row.count(",") == LOG_HEADER.count(","))
    return [
        row for row in whole if (head := row.split(",", 1)[0]).isdecimal() and int(head) < epoch
    ]


def _log_row(epoch: int, bd: LossBreakdown) -> str:
    """One train_log.csv row: the epoch, then repr floats, which round-trip."""
    values = (
        bd.recon, bd.kl_dirichlet, bd.abundance, bd.endmember, bd.lambda_endmembers_now, bd.total,
    )
    return ",".join([str(epoch), *(repr(float(value)) for value in values)])


def _write_log(path, rows) -> None:
    """Write the header and the text ``rows`` atomically."""
    text = "\n".join([LOG_HEADER, *rows]) + "\n"
    _write_atomic(Path(path), lambda fh: fh.write(text.encode("utf-8")))


def fit(
    config: TrainConfig,
    cube: HsiCube,
    out_dir,
    resume=None,
):
    """Train to config.epochs, writing checkpoint.ldvt and train_log.csv into
    out_dir. Returns (final Checkpoint, log path); the Checkpoint is over
    the live training state, not a copy.

    A fresh fit is a resume from its initial state: without ``resume`` it
    builds the epoch-0 checkpoint (``init_params``, ``AdamState.zeros`` and
    the rng state after init); with it, it loads the saved one. Either way
    the saved epoch counter, optimizer moments and RNG state continue the
    trajectory bit-exactly, and the log keeps the earlier rows of the
    train_log.csv beside the resume checkpoint, so interrupted and
    uninterrupted runs agree.

    Before the first epoch the log (header and earlier rows) and then the
    checkpoint are written, each atomically. After every completed epoch its
    row is appended to the log and flushed to disk, and only then is the
    checkpoint written, atomically, so however the run ends, SIGKILL
    included, the checkpoint holds the last completed epoch and the log its
    row; an interruption before the checkpoint is written leaves the log one
    row ahead, perhaps torn, and a resume drops that row. A non-finite loss
    or gradient aborts the run with TrainError, which names the epoch the
    checkpoint on disk holds.
    """
    config.validate()
    if cube.gt_abundances is None or cube.gt_bundles is None:
        raise TrainError("supervised training needs ground-truth abundances and bundles")
    if config.model.bands != cube.bands:
        raise TrainError(f"model expects {config.model.bands} bands but cube has {cube.bands}")
    if config.model.k != len(cube.gt_bundles):
        raise TrainError(
            f"model expects {config.model.k} endmembers but cube has {len(cube.gt_bundles)}"
        )
    sizes = segment_sizes(cube.bands, cube.gt_bundles[0].seg_len)
    if config.model.cov_segment_sizes() != sizes:
        raise TrainError(f"model seg_len {config.model.seg_len} splits the bands unlike the "
                         f"ground-truth bundles' segments {sizes}")
    if resume is None:
        rng = np.random.default_rng(config.seed)
        params = init_params(config.model, rng)
        ck = Checkpoint(
            params, AdamState.zeros(params), 0, rng.bit_generator.state, config.model, config.seed
        )
        rows = []
    else:
        ck = load_checkpoint(resume)
        rows = _earlier_log_rows(resume, ck.epoch)
    if ck.model.to_dict() != config.model.to_dict():
        raise TrainError("resume checkpoint was built for a different model config")
    if ck.seed != config.seed:
        raise TrainError(f"resume checkpoint used seed {ck.seed}, config says {config.seed}")
    params, opt = ck.params, ck.opt
    rng = np.random.default_rng(config.seed)
    rng.bit_generator.state = ck.rng_state

    split = split_pixels(cube.n_pixels, config.split)
    if split.train_indices.size == 0:
        raise TrainError("training split is empty; raise train_fraction")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / "checkpoint.ldvt"
    log_path = out_dir / "train_log.csv"

    # each write to the log comes first, so it is never behind the checkpoint
    _write_log(log_path, rows)
    save_checkpoint(ck_path, ck)
    try:
        with open(log_path, "ab") as log:
            for epoch in range(ck.epoch, config.epochs):
                mean, _ = train_epoch(params, config, cube, split.train_indices, opt, epoch, rng)
                log.write(f"{_log_row(epoch, mean)}\n".encode("utf-8"))
                log.flush()
                os.fsync(log.fileno())
                state = rng.bit_generator.state
                ck = dataclasses.replace(ck, epoch=epoch + 1, rng_state=state)
                save_checkpoint(ck_path, ck)
    except (NumericError, TrainError) as err:
        raise TrainError(
            f"aborted at epoch {epoch}: {err}; "
            f"last good checkpoint (epoch {ck.epoch}) kept at {ck_path}"
        ) from err
    return ck, log_path
