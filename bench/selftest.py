#!/usr/bin/env python3
"""Self-test of the benchmark harness; exits 0 when every check passes.

    python3 bench/selftest.py

Runs every workload on a tiny config for a few operations, untraced and
traced, and checks that:
- the metric tables match BENCHMARK.json, and every end-to-end and per-layer
  metric is emitted with its unit;
- every gate except the accuracy gates passes (a tiny run cannot learn);
- spans nest: each lies inside its parent and siblings do not overlap;
- each span's self time plus its children's durations equals its duration;
- the tracer fails loudly when an entry point is missing or never called.
"""
from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, import_package  # noqa: E402

ACCURACY_GATES = {"accuracy"}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_tables(spec: dict) -> None:
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end differs from workloads.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER],
          "BENCHMARK.json per_layer differs from workloads.PER_LAYER")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for w in spec["workloads"]:
        check(w["why"] == WORKLOADS[w["name"]].why, f"why of {w['name']} differs from workloads.py")


def check_metrics(result, table, label: str) -> None:
    names = [row[0] for row in table]
    check(list(result.metrics) == names, f"{label}: metrics {list(result.metrics)} != {names}")
    for row in table:
        m = result.metrics[row[0]]
        check(m["unit"] == row[1], f"{label}: {row[0]} has unit {m['unit']!r}")
        check(isinstance(m["value"], float) and math.isfinite(m["value"]), f"{label}: {row[0]} = {m['value']!r}")


def check_gates(result, label: str) -> None:
    for run in result.runs:
        check(run.attempted > 0, f"{label}: no operations")
        for g in run.gates.values():
            check(g.ok or g.name in ACCURACY_GATES, f"{label}: gate {g.name} failed: {g.detail}")


def check_spans(tracer, label: str) -> None:
    kids = tracer.children()
    errors = tracer.nesting_errors(kids)
    check(not errors, f"{label}: {errors[:3]}")
    self_s = tracer.self_times(kids)
    for i, ks in enumerate(kids):
        dur = tracer.end[i] - tracer.start[i]
        covered = sum(tracer.end[k] - tracer.start[k] for k in ks)
        check(abs(self_s[i] + covered - dur) <= 1e-9, f"{label}: span {i} self + children != duration")
    check(len(set(tracer.op_kind.values())) == 2, f"{label}: expected step and request operations")


def entry_point_values(av) -> list:
    from spans import entry_points

    return [vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            for _, owner, attr in entry_points(av)]


def check_fails_loudly(av) -> None:
    from harness import REQUIRED, SETUP_REQUIRED
    from spans import TraceError, Tracer

    before = entry_point_values(av)
    saved = av.fusion.mha
    del av.fusion.mha
    try:
        Tracer(av).install()
    except TraceError:
        pass
    else:
        raise AssertionError("installing with fusion.mha missing did not fail")
    finally:
        av.fusion.mha = saved
    check(entry_point_values(av) == before, "a failed install left entry points wrapped")

    idle = Tracer(av)
    try:
        idle.check_called(REQUIRED, SETUP_REQUIRED)
    except TraceError:
        pass
    else:
        raise AssertionError("a tracer that saw no calls passed check_called")


def main() -> int:
    av = import_package()
    from harness import measure
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, tiny

    check_tables(json.loads((ROOT / "BENCHMARK.json").read_text()))
    check_fails_loudly(av)
    originals = entry_point_values(av)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        out = Path(tmp)
        for name, wl in WORKLOADS.items():
            small = tiny(wl)
            plain = measure(av, small, 0, 0.2, False, out)
            check_metrics(plain, END_TO_END, f"{name} untraced")
            check_gates(plain, f"{name} untraced")
            traced = measure(av, small, 0, 0.2, True, out)
            check_metrics(traced, PER_LAYER, f"{name} traced")
            check_gates(traced, f"{name} traced")
            check_spans(traced.tracer, f"{name} traced")
            check(entry_point_values(av) == originals, f"{name}: entry points still wrapped after the run")
            print(f"selftest {name}: ok ({traced.spans} spans)")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
