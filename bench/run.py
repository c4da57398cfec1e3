#!/usr/bin/env python3
"""avfuse benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload train-small --seed 0 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``. The
untraced run (``--trace 0``) prints the end-to-end metrics: it sets up four
times, trains through the timed window, sets up four more times and reports
the median set-up. The traced run (``--trace 1``) makes one untraced
reference pass and one traced pass, each with half the seconds as its
window, and prints the per-layer metrics; its spans go to ``.bench_out/``. Every run
prints a header (versions, BLAS, a machine-speed probe), each metric as
``metric <name> <value> <unit>``, each gate, and last one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. A failed gate exits 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """The avfuse modules from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "avfuse" / "__init__.py").is_file():
        sys.exit(f"bench: no avfuse package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import avfuse
    from avfuse import autodiff, backbone, fusion, model, serialization, tasks

    if Path(avfuse.__file__).resolve().parent != (src / "avfuse").resolve():
        sys.exit(f"bench: imported avfuse from {avfuse.__file__}, not from {src}")
    return argparse.Namespace(autodiff=autodiff, backbone=backbone, fusion=fusion, model=model,
                              serialization=serialization, tasks=tasks)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads its thread count when it loads, so this precedes numpy.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    av = import_package()

    from harness import measure
    from header import run_header
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    header = run_header(ROOT, av, wl, args, nproc)
    print("header " + json.dumps(header, sort_keys=True), flush=True)

    result = measure(av, wl, args.seed, args.seconds, args.trace, OUT_DIR)
    runs = result.runs
    if args.trace:
        print(f"spans {result.spans} written to {result.spans_path.relative_to(ROOT)}")
        for name, v in sorted(result.self_ms.items(), key=lambda kv: -kv[1]):
            print(f"self_ms_per_step {name} {v:.4f}")
        print(f"accounted_ms_per_step {sum(result.self_ms.values()):.4f} (traced step mean {result.op_mean_ms:.4f})")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    gates = [g for r in runs for g in r.gates.values()]
    correct = all(g.ok for g in gates) and failed == 0
    for r in runs:
        print("record " + json.dumps(r.record, sort_keys=True))
    for g in gates:
        print(f"gate {g.name} {'ok' if g.ok else 'FAILED'}: {g.detail}")
    for r in runs:
        for name, value, note in r.info():
            print(f"info {name} {value:.6g} ({note})")
    metrics = result.metrics
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
