"""Record the reference loss trajectories the fit workloads are gated on.

    python3 bench/record_reference.py

For every fit workload (full and tiny sizes) and every seed in the table it
runs the benchmark's own preparation and one ``train.fit`` of FIT_EPOCHS
epochs, and stores the per-epoch loss totals in bench/reference.json with
the BLAS thread count they were taken at. Record only on a commit whose
training numerics are the accepted reference; the benchmark then fails any
epoch whose total leaves these values by more than REL_TOL.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

# The totals move in the last digits between 1 and 2 BLAS threads; this
# bound is far above that and matches the golden training test's tolerance.
REL_TOL = 1e-9


def main() -> int:
    pkg = run.import_program()
    env = run.environment()
    table = {}
    run.OUT.mkdir(exist_ok=True)
    for tiny in (False, True):
        for name, spec in (workloads.TINY_SPECS if tiny else workloads.SPECS).items():
            if spec.kind != "fit":
                continue
            key = workloads.reference_key(name, tiny)
            table[key] = {}
            for index in range(workloads.N_SEEDS):
                workdir = tempfile.mkdtemp(dir=run.OUT)
                wl = workloads.make(name, pkg, index, Path(workdir), tiny)
                try:
                    wl.prepare()
                    totals = [total for _, (_, total) in wl.fit_totals()]
                finally:
                    wl.close()
                    shutil.rmtree(workdir)
                if len(totals) != workloads.FIT_EPOCHS:
                    print(f"{key} seed {index}: fit did not complete", file=sys.stderr)
                    return 1
                table[key][str(index)] = totals
                print(f"{key} seed {index}: {totals}", flush=True)
    payload = {
        "rel_tol": REL_TOL,
        "epochs": workloads.FIT_EPOCHS,
        "blas_threads": env["blas_threads"],
        "numpy": env["numpy"],
        "blas": f"{env['blas']} {env['blas_version']}",
        "git_commit": env["git_commit"],
        "workloads": table,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
