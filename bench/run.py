"""Benchmark of the unmix-ldvae program: two training workloads and one
cube-unmixing workload, one caller in a closed loop.

    python3 bench/run.py --workload fit_standard --seed 3 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. The line before it is the full record (environment, samples,
error rate), also written to ``.bench_out/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fit_standard", "fit_smallbatch", "unmix_cube")
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "px_per_s": "px/s", "op_s_p50": "s", "peak_rss_mb": "MiB"}

TIMED_LAYERS = (
    "numcore.backward",
    *(f"model.{f}" for f in (
        "tokenize_batch", "encode_batch", "alpha_head", "decode_bundles",
        "sample_abundances", "sample_endmembers", "reconstruct",
    )),
    *(f"losses.{f}" for f in (
        "kl_bundle", "kl_dirichlet", "loss_recon", "loss_abundance", "total_loss",
    )),
    "train.adam_step", "train.save_checkpoint", "train.load_checkpoint",
    "data.synth_scene", "data.load_cube", "data.split_pixels",
    "metrics.evaluate", "cli.unmix", "cli.eval",
)
FWD_OPS = ("matmul", "softmax", "multiply", "layer_norm", "add")
TAPE_OPS = ("matmul", "add", "multiply", "softmax", "reshape", "transpose", "slice", "sum_reduce")


def per_layer_units() -> dict:
    units = {}
    for name in TIMED_LAYERS:
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    for op in FWD_OPS:
        units[f"numcore.{op}.fwd_self_ms"] = "ms"
        units[f"numcore.{op}.calls"] = "count"
    units["numcore.primitive_calls_per_batch"] = "count"
    units["numcore.tape_records_per_step"] = "count"
    for op in TAPE_OPS:
        units[f"numcore.tape_records.{op}"] = "count"
    units["numcore.tape_out_mb_per_step"] = "MB"
    units["train.save_checkpoint.bytes"] = "bytes"
    units["data.PatchSource.batch.ms_per_kpx"] = "ms/kpx"
    units["data.PatchSource.batch.calls"] = "count"
    units["cli.import_s"] = "s"
    units["trace.px_per_s_untraced"] = "px/s"
    units["trace.px_per_s_traced"] = "px/s"
    units["trace.overhead_pct"] = "%"
    return units


def import_program():
    sys.path.insert(0, str(SRC))
    from unmix_ldvae import cli, data, losses, model, train
    from unmix_ldvae.numcore import ops

    return SimpleNamespace(cli=cli, data=data, losses=losses, model=model, train=train, ops=ops)


def import_seconds() -> float:
    """Time to import the program's CLI module in a fresh interpreter, as a
    user's command pays it (interpreter start-up itself excluded)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import unmix_ldvae.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip())


# ---------------------------------------------------------------------------
# environment


def _blas_threads(np):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# the closed loop


def closed_loop(wl, seconds: float, tracer=None) -> int:
    """Run cycles until ``seconds`` have passed; a cycle starts only if at
    least half a mean cycle's time is left. Returns the cycle count."""
    start = time.perf_counter()
    cycles = 0
    while True:
        if tracer is not None:
            tracer.iteration = cycles
            tracer.counting = cycles == 0
            with tracer.span(f"bench.{wl.name}.cycle"):
                wl.cycle()
            tracer.counting = False
        else:
            wl.cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if seconds - elapsed < 0.5 * elapsed / cycles:
            return cycles


def setup(wl, tracer=None):
    """Set the workload up SETUP_REPEATS times; each repeat is one import
    in a fresh interpreter plus the in-process preparation."""
    totals, imports = [], []
    for rep in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        if tracer is not None:
            tracer.iteration = -1 - rep
            tracer.counting = True
            with tracer.span("bench.setup"):
                wl.prepare()
            tracer.counting = False
        else:
            wl.prepare()
        totals.append(imported + time.perf_counter() - start)
        imports.append(imported)
    return statistics.median(totals), statistics.median(imports)


def end_to_end(wl, seconds: float) -> tuple[dict, dict]:
    setup_s, import_s = setup(wl)
    cycles = closed_loop(wl, seconds)
    return {
        "setup_s": setup_s,
        "px_per_s": statistics.median(wl.px_rates),
        "op_s_p50": statistics.median(wl.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"cycles": cycles, "import_s": import_s, "op_s": wl.samples, "px_per_s": wl.px_rates}


def traced(wl, pkg, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Half the time untraced, then half traced, so the tracing overhead
    is measured in the same process on the same inputs."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install(pkg)
    try:
        _, import_s = setup(wl, tracer)
    finally:
        tracer.restore()
    closed_loop(wl, seconds / 2)
    untraced_px = statistics.median(wl.px_rates)
    wl.reset()
    tracer.install(pkg)
    try:
        cycles = closed_loop(wl, seconds / 2, tracer)
    finally:
        tracer.restore()
    traced_px = statistics.median(wl.px_rates)
    tracer.write(spans_path)

    counts = tracer.counts
    steps, batches = counts["steps"], counts["batches"]
    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.self_ms"] = tracer.self_ms(name)
        metrics[f"{name}.calls"] = tracer.counted_calls[name]
    for op in FWD_OPS:
        metrics[f"numcore.{op}.fwd_self_ms"] = tracer.self_ms(f"numcore.{op}")
        metrics[f"numcore.{op}.calls"] = tracer.counted_calls[f"numcore.{op}"]
    metrics["numcore.primitive_calls_per_batch"] = (
        counts["primitive_calls"] / batches if batches else 0
    )
    metrics["numcore.tape_records_per_step"] = counts["tape_records"] / steps if steps else 0
    for op in TAPE_OPS:
        metrics[f"numcore.tape_records.{op}"] = (
            counts[f"tape_records.{op}"] / steps if steps else 0
        )
    metrics["numcore.tape_out_mb_per_step"] = (
        counts["tape_out_bytes"] / steps / 1e6 if steps else 0
    )
    metrics["train.save_checkpoint.bytes"] = tracer.checkpoint_bytes
    batch = "data.PatchSource.batch"
    metrics[f"{batch}.ms_per_kpx"] = (
        1e6 * tracer.self_s[batch] / tracer.patch_pixels if tracer.patch_pixels else 0.0
    )
    metrics[f"{batch}.calls"] = tracer.counted_calls[batch]
    metrics["cli.import_s"] = import_s
    metrics["trace.px_per_s_untraced"] = untraced_px
    metrics["trace.px_per_s_traced"] = traced_px
    metrics["trace.overhead_pct"] = 100.0 * (untraced_px - traced_px) / untraced_px
    return metrics, {"cycles": cycles, "spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(ROOT)),
                     "exact_counts": dict(sorted(counts.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "unmix_ldvae" / "__init__.py").is_file():
        print(f"bench: no program source under {SRC}", file=sys.stderr)
        return 2

    pkg = import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    wl = workloads.make(args.workload, pkg, args.seed, workdir, args.tiny)
    try:
        if args.trace:
            metrics, detail = traced(wl, pkg, args.seconds, OUT / f"spans-{tag}.jsonl.gz")
            units = per_layer_units()
        else:
            metrics, detail = end_to_end(wl, args.seconds)
            units = END_TO_END_UNITS
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "attempted": wl.attempted, "failed": wl.failed,
        "error_rate": wl.failed / wl.attempted, "detail": detail, "metrics": metrics,
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
