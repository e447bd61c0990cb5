"""Command-line pipeline: synthesize scenes, train, evaluate, unmix.

Every subcommand echoes its effective configuration as a single JSON line
on stdout before doing any work, then prints a one-line JSON result on
success. Failures leave one machine-readable JSON line on stderr and a
nonzero exit code (2 for usage problems, 1 for everything else).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    BundleSpec,
    DataError,
    EndmemberBundle,
    HsiCube,
    SceneConfig,
    SplitSpec,
    _strip_known_suffix,
    _write_bsq,
    load_cube,
    save_bundles,
    save_cube,
    segment_sizes,
    synth_scene,
)
from .losses import LossError, LossWeights
from .metrics import MetricsError, evaluate, save_report
from .model import ModelConfig, ModelError, packed_chol_to_blocks, predict_cube
from .numcore import NumericError, ShapeError
from .train import TrainConfig, TrainError, fit, load_checkpoint


class CliError(ValueError):
    """Bad invocation: unknown flags, malformed config files, missing keys."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise CliError(f"unknown {where} config keys: {', '.join(unknown)}")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        loaded = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return loaded


def _build_dataclass(cls, cfg: dict, where: str):
    _check_keys(cfg, _field_names(cls), where)
    try:
        return cls(**cfg)
    except TypeError as exc:
        raise CliError(f"bad {where} config: {exc}") from exc


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(sub) for key, sub in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(sub) for sub in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Path):
        return str(value)
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), sort_keys=True))


# ---------------------------------------------------------------------------
# config assembly


def _scene_config(cfg: dict, seed_flag) -> tuple[SceneConfig, int]:
    cfg = dict(cfg)
    seed = cfg.pop("seed", 0)
    if seed_flag is not None:
        seed = seed_flag
    bundle_cfg = cfg.pop("bundle_spec", None)
    if bundle_cfg is not None:
        if not isinstance(bundle_cfg, list):
            raise CliError("bundle_spec must be a list of bundle objects")
        bundle_cfg = [
            _build_dataclass(BundleSpec, dict(entry), f"bundle_spec[{i}]")
            for i, entry in enumerate(bundle_cfg)
        ]
    scene = _build_dataclass(SceneConfig, cfg, "scene")
    scene.bundle_spec = bundle_cfg
    scene.validate()
    return scene, int(seed)


def _infer_k(cube: HsiCube) -> int | None:
    if cube.gt_bundles is not None:
        return len(cube.gt_bundles)
    if cube.gt_abundances is not None:
        return cube.gt_abundances.shape[-1]
    return None


def _train_config(cfg: dict, cube: HsiCube, seed_flag) -> TrainConfig:
    cfg = dict(cfg)
    model_cfg = dict(cfg.pop("model", {}))
    model_cfg.setdefault("bands", cube.bands)
    if "k" not in model_cfg:
        inferred = _infer_k(cube)
        if inferred is None:
            raise CliError("model.k is required when the cube carries no ground truth")
        model_cfg["k"] = inferred
    model = _build_dataclass(ModelConfig, model_cfg, "model")

    weights_cfg = dict(cfg.pop("loss_weights", {}))
    prior = weights_cfg.pop("alpha_prior", None)
    weights = _build_dataclass(LossWeights, weights_cfg, "loss_weights")
    if prior is not None:
        weights.alpha_prior = np.asarray(prior, dtype=np.float64)

    split = _build_dataclass(SplitSpec, dict(cfg.pop("split", {})), "split")

    if seed_flag is not None:
        cfg["seed"] = seed_flag
    config = _build_dataclass(TrainConfig, cfg, "train")
    config.model = model
    config.loss_weights = weights
    config.split = split
    config.validate()
    return config


def _train_config_echo(config: TrainConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["loss_weights"]["alpha_prior"] = config.loss_weights.prior_for(config.model.k)
    return echo


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    scene_cfg, seed = _scene_config(_load_config_file(args.config), args.seed)
    base = Path(args.out) / args.name
    _emit(
        {
            "command": "synth",
            "out": base,
            "seed": seed,
            "scene": {
                **dataclasses.asdict(scene_cfg),
                "bundle_spec": [
                    dataclasses.asdict(s) for s in scene_cfg.resolved_bundle_spec()
                ],
            },
        }
    )
    cube = synth_scene(scene_cfg, np.random.default_rng(seed))
    save_cube(cube, base)
    _emit(
        {
            "scene": base,
            "pixels": cube.n_pixels,
            "bands": cube.bands,
            "endmembers": len(cube.gt_bundles),
        }
    )
    return 0


def cmd_train(args) -> int:
    cube = load_cube(args.data)
    config = _train_config(_load_config_file(args.config), cube, args.seed)
    _emit(
        {
            "command": "train",
            "data": args.data,
            "out": args.out,
            "resume": args.resume,
            "config": _train_config_echo(config),
        }
    )
    checkpoint, log_path = fit(config, cube, args.out, resume=args.resume)
    _emit(
        {
            "checkpoint": Path(args.out) / "checkpoint.ldvt",
            "log": log_path,
            "epoch": checkpoint.epoch,
        }
    )
    return 0


def _predict(args, command: str):
    """Shared front half of eval and unmix: load the checkpoint and cube,
    check their band counts agree, echo the config line and predict every
    pixel. Returns (model config, cube, Prediction); nothing is written."""
    checkpoint = load_checkpoint(args.checkpoint)
    cube = load_cube(args.data)
    model = checkpoint.model
    if model.bands != cube.bands:
        raise DataError(f"checkpoint expects {model.bands} bands, cube has {cube.bands}")
    _emit(
        {
            "command": command,
            "checkpoint": args.checkpoint,
            "data": args.data,
            "out": args.out,
            "model": dataclasses.asdict(model),
        }
    )
    return model, cube, predict_cube(checkpoint.params, model, cube)


def _write_abundances(out_dir, cube: HsiCube, abundances: np.ndarray) -> tuple[Path, Path]:
    """Create the output directory and write the (H, W, K) abundance maps
    there as BSQ. Returns (output directory, path of the .bsq file)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    maps_base = _strip_known_suffix(out / "abundances.bsq")
    _write_bsq(maps_base, abundances.reshape(cube.height, cube.width, -1))
    return out, Path(str(maps_base) + ".bsq")


def cmd_eval(args) -> int:
    _, cube, prediction = _predict(args, "eval")
    means = prediction.endmember_means
    # scoring first: a cube without ground truth fails before any file is written
    report = evaluate(prediction.abundances, means, cube)
    out, maps_path = _write_abundances(args.out, cube, prediction.abundances)
    metrics_path = out / "metrics.csv"
    save_report(report, metrics_path)

    k = len(cube.gt_bundles)
    pred_for_gt = np.empty(k, dtype=np.int64)
    pred_for_gt[report.assignment] = np.arange(k)
    spectra_path = out / "spectra.csv"
    header = ["band"]
    for name in report.names:
        header += [f"pred_{name}", f"gt_{name}"]
    rows = [",".join(header)]
    gt_means = np.stack([b.mean for b in cube.gt_bundles])
    for c in range(cube.bands):
        cells = [str(c)]
        for j in range(k):
            cells.append(f"{means[pred_for_gt[j]][c]:.17g}")
            cells.append(f"{gt_means[j][c]:.17g}")
        rows.append(",".join(cells))
    spectra_path.write_text("\n".join(rows) + "\n")

    _emit(
        {
            "metrics": metrics_path,
            "abundances": maps_path,
            "spectra": spectra_path,
            "avg_sad": report.avg_sad,
            "avg_rmse": report.avg_rmse,
        }
    )
    return 0


def cmd_unmix(args) -> int:
    model, cube, prediction = _predict(args, "unmix")
    out, maps_path = _write_abundances(args.out, cube, prediction.abundances)

    sizes = segment_sizes(model.bands, model.seg_len)
    blocks = packed_chol_to_blocks(prediction.chol_diag, prediction.chol_off, sizes)
    bundles = [
        EndmemberBundle(
            name=f"em{j}",
            mean=prediction.endmember_means[j],
            chol_blocks=[segment[j] for segment in blocks],
            seg_len=model.seg_len,
        )
        for j in range(model.k)
    ]
    bundles_path = out / "bundles.json"
    save_bundles(bundles_path, bundles)

    _emit(
        {
            "abundances": maps_path,
            "bundles": bundles_path,
            "pixels": cube.n_pixels,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="unmix-ldvae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic scene")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--config", help="scene config JSON")
    synth.add_argument("--seed", type=int, help="overrides the config seed")
    synth.add_argument("--name", default="scene", help="base name for the cube files")
    synth.set_defaults(run=cmd_synth)

    train = sub.add_parser("train", help="train on a cube with ground truth")
    train.add_argument("--data", required=True, help="cube base path")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--config", help="training config JSON")
    train.add_argument("--seed", type=int, help="overrides the config seed")
    train.add_argument("--resume", help="checkpoint to continue from")
    train.set_defaults(run=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint against ground truth")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="cube base path")
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(run=cmd_eval)

    unmix = sub.add_parser("unmix", help="inference only: abundances and bundles")
    unmix.add_argument("--checkpoint", required=True)
    unmix.add_argument("--data", required=True, help="cube base path")
    unmix.add_argument("--out", required=True, help="output directory")
    unmix.set_defaults(run=cmd_unmix)

    return parser


_HANDLED = (
    DataError,
    ModelError,
    LossError,
    MetricsError,
    TrainError,
    NumericError,
    ShapeError,
    OSError,
    ValueError,
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except CliError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except _HANDLED as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
