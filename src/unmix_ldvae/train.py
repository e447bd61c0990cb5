"""Supervised training: Adam, the per-epoch mini-batch loop, binary
checkpoints with optimizer and RNG state, and the deterministic fit driver.

A run is fully determined by (seed, config, data): one Generator drives
initialization, epoch shuffles and all sampling noise in sequence, and its
state is serialized into every checkpoint so a resumed run replays the exact
parameter trajectory of an uninterrupted one.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DataError, HsiCube, PatchSource, SplitSpec, split_pixels
from .losses import LossBreakdown, LossWeights, anneal_lambda, compute_losses
from .model import ModelConfig, forward, init_params
from .numcore import NumericError, Tape, Tensor, backward

CHECKPOINT_MAGIC = b"LDVT"
CHECKPOINT_VERSION = 1
LOG_HEADER = "epoch,recon,kl_dirichlet,abundance,endmember,lambda_em,total"


class TrainError(RuntimeError):
    """Training could not proceed (bad config, bad data, diverged run)."""


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 128
    learning_rate: float = 2e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    loss_weights: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)
    split: SplitSpec = field(default_factory=SplitSpec)

    def validate(self) -> None:
        if self.epochs < 0:
            raise TrainError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise TrainError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, beta in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if not 0.0 <= beta < 1.0:
                raise TrainError(f"{name} must lie in [0, 1), got {beta}")
        if self.adam_eps <= 0:
            raise TrainError(f"adam_eps must be positive, got {self.adam_eps}")
        self.model.validate()
        self.loss_weights.validate()


@dataclass
class AdamState:
    """First and second gradient moments per parameter plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={name: np.zeros_like(p.data) for name, p in params.items()},
            v={name: np.zeros_like(p.data) for name, p in params.items()},
        )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
):
    """One bias-corrected Adam update, in place on params and state."""
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for name in sorted(params):
        g = np.asarray(grads[name])
        if not np.all(np.isfinite(g)):
            raise TrainError(f"non-finite gradient for parameter '{name}'")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / corr1
        v_hat = v / corr2
        params[name].data -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return params, state


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

    Each batch runs a sampled forward pass on the pixels' patches, backprops
    the total loss and applies one Adam step. Returns the pixel-weighted mean
    breakdown over the epoch together with the per-batch breakdowns.
    """
    if cube.gt_abundances is None or cube.gt_bundles is None:
        raise TrainError("supervised training needs ground-truth abundances and bundles")
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise TrainError("empty training split")
    source = PatchSource(cube, config.model.patch)
    x_pixels = cube.pixels()
    z_pixels = cube.abundance_pixels()
    order = rng.permutation(train_indices)
    batch_logs: list[LossBreakdown] = []
    sums = np.zeros(5)
    for start in range(0, order.size, config.batch_size):
        idx = order[start : start + config.batch_size]
        with Tape() as tape:
            out = forward(source.batch(idx), params, config.model, rng=rng)
            total, bd = compute_losses(
                out, x_pixels[idx], z_pixels[idx], cube.gt_bundles,
                config.loss_weights, epoch,
            )
            for p in params.values():
                p.zero_grad()
            backward(total, tape)
        adam_step(params, {name: p.grad for name, p in params.items()}, opt, config)
        batch_logs.append(bd)
        sums += idx.size * np.array(
            [bd.recon, bd.kl_dirichlet, bd.abundance, bd.endmember, bd.total]
        )
    means = sums / order.size
    epoch_mean = LossBreakdown(
        recon=means[0],
        kl_dirichlet=means[1],
        abundance=means[2],
        endmember=means[3],
        total=means[4],
        lambda_endmembers_now=anneal_lambda(epoch, config.loss_weights),
    )
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
    path = Path(path)
    with open(path, "wb") as fh:
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
            fh.write(arr.tobytes())


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
        adam_t, epoch, seed = (int(header[key]) for key in ("adam_t", "epoch", "seed"))
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
            tensors[name] = arr.reshape(dims).astype(np.float64)
    except KeyError as err:
        raise TrainError(f"corrupt checkpoint {path}: header lacks {err}") from err
    except (struct.error, IndexError, TypeError, UnicodeDecodeError, ValueError) as err:
        raise TrainError(f"corrupt checkpoint {path}: {err}") from err
    if not isinstance(rng_state, dict):
        raise TrainError(f"corrupt checkpoint {path}: rng_state is not an object")
    params: dict[str, Tensor] = {}
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        if name.startswith("opt.m."):
            m[name[len("opt.m.") :]] = arr
        elif name.startswith("opt.v."):
            v[name[len("opt.v.") :]] = arr
        else:
            params[name] = Tensor(arr, requires_grad=True)
    if set(m) != set(params) or set(v) != set(params):
        raise TrainError(f"checkpoint {path} has mismatched optimizer state")
    return Checkpoint(
        params=params,
        opt=AdamState(m=m, v=v, t=adam_t),
        epoch=epoch,
        rng_state=rng_state,
        model=model,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# fit driver


def _snapshot(params, opt, rng, epoch: int, config: TrainConfig) -> Checkpoint:
    """A copy of the training state that later steps cannot modify. Its
    parameters carry no gradient buffers, so a snapshot per epoch costs one
    copy of the weights and moments."""
    return Checkpoint(
        params={name: Tensor(p.data.copy()) for name, p in params.items()},
        opt=AdamState(
            m={name: a.copy() for name, a in opt.m.items()},
            v={name: a.copy() for name, a in opt.v.items()},
            t=opt.t,
        ),
        epoch=epoch,
        rng_state=copy.deepcopy(rng.bit_generator.state),
        model=config.model,
        seed=config.seed,
    )


def _write_log(path, rows) -> None:
    lines = [LOG_HEADER]
    for epoch, bd in rows:
        lines.append(
            ",".join(
                [str(epoch)]
                + [
                    repr(float(value))
                    for value in (
                        bd.recon, bd.kl_dirichlet, bd.abundance,
                        bd.endmember, bd.lambda_endmembers_now, bd.total,
                    )
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def fit(
    config: TrainConfig,
    cube: HsiCube,
    out_dir,
    resume=None,
):
    """Train to config.epochs, writing checkpoint.ldvt and train_log.csv into
    out_dir. Returns (final Checkpoint, log path).

    On a non-finite loss or gradient the run aborts with TrainError but the
    checkpoint from the last completed epoch stays on disk. With resume, the
    saved epoch counter, optimizer moments and RNG state continue the
    trajectory bit-exactly, so interrupted and uninterrupted runs agree.
    """
    config.validate()
    if cube.gt_abundances is None or cube.gt_bundles is None:
        raise TrainError("supervised training needs ground-truth abundances and bundles")
    if config.model.bands != cube.bands:
        raise TrainError(
            f"model expects {config.model.bands} bands but cube has {cube.bands}"
        )
    if config.model.k != len(cube.gt_bundles):
        raise TrainError(
            f"model expects {config.model.k} endmembers but cube has {len(cube.gt_bundles)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / "checkpoint.ldvt"
    log_path = out_dir / "train_log.csv"

    if resume is not None:
        previous = load_checkpoint(resume)
        if previous.model.to_dict() != config.model.to_dict():
            raise TrainError("resume checkpoint was built for a different model config")
        if previous.seed != config.seed:
            raise TrainError(
                f"resume checkpoint used seed {previous.seed}, config says {config.seed}"
            )
        params = previous.params
        opt = previous.opt
        rng = np.random.default_rng(config.seed)
        rng.bit_generator.state = previous.rng_state
        start_epoch = previous.epoch
    else:
        rng = np.random.default_rng(config.seed)
        params = init_params(config.model, rng)
        opt = AdamState.zeros(params)
        start_epoch = 0

    try:
        split = split_pixels(cube.n_pixels, config.split)
    except DataError as err:
        raise TrainError(str(err)) from err
    if split.train_indices.size == 0:
        raise TrainError("training split is empty; raise train_fraction")

    rows = []
    last_good = _snapshot(params, opt, rng, start_epoch, config)
    for epoch in range(start_epoch, config.epochs):
        try:
            epoch_mean, _ = train_epoch(
                params, config, cube, split.train_indices, opt, epoch, rng
            )
        except (NumericError, TrainError) as err:
            save_checkpoint(ck_path, last_good)
            _write_log(log_path, rows)
            raise TrainError(
                f"aborted at epoch {epoch}: {err}; "
                f"last good checkpoint (epoch {last_good.epoch}) kept at {ck_path}"
            ) from err
        rows.append((epoch, epoch_mean))
        last_good = _snapshot(params, opt, rng, epoch + 1, config)

    save_checkpoint(ck_path, last_good)
    _write_log(log_path, rows)
    return last_good, log_path
