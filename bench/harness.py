"""One run of one avfuse benchmark workload: set-ups, timed window, gates.

All load comes from this process: one client, no worker pool. The package is
driven only through its public functions (``tasks.generate_dataset``,
``model.TwoStreamModel``, ``tasks.train``, ``tasks.evaluate``,
``save_weights``/``load_weights``), each looked up on its module at call
time so the tracer's wrappers see every call.

A train step is timed from outside, from one return of ``Adam.step`` to the
next (the first from the ``tasks.train`` call). A hook on ``Adam.step`` also
ends ``tasks.train`` at a step boundary by raising ``_Stop``, and a hook on
``tasks.cross_entropy_logits`` records each step's loss.
"""
from __future__ import annotations

import hashlib
import math
import resource
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Patches, TraceError, Tracer
from workloads import END_TO_END, PER_LAYER, Workload


class _Stop(Exception):
    """Ends tasks.train at a step boundary."""


# Set-ups per untraced run, half before the window and half after it;
# setup_s is their median. Splitting them puts both ends of the run, which
# can sit in different host speed regimes, into the median.
SETUPS = 8
# Leading train steps of a window left out of its latency percentile: the
# first steps grow the allocator's arenas and the tape's buffers.
WARMUP_STEPS = 5
# Seconds past the window's end after which training that has not passed the
# accuracy gate stops and fails it.
GIVE_UP_S = 60.0


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def loss_digest(losses: list[float]) -> str:
    """SHA-256 prefix of the float64 bytes of a loss sequence."""
    return hashlib.sha256(np.asarray(losses, dtype="<f8").tobytes()).hexdigest()[:16]


class Run:
    """Set-ups, the timed window and the correctness gates of one workload
    run. With a tracer, every wrapped call inside it is recorded."""

    def __init__(self, av, wl: Workload, seed: int, seconds: float, out_dir: Path, tracer: Tracer | None = None):
        self.av = av
        self.wl = wl
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = tracer
        self.cfg = wl.model_config(av.model.ModelConfig)
        derive = av.autodiff.derive_seed
        self.seeds = {k: derive(seed, k) for k in ("train-data", "test-data", "model", "batches")}
        self.setup_s: list[float] = []
        self.step_ms: list[float] = []
        self.step_failed: list[bool] = []
        self.request_ms: list[float] = []
        self.request_samples = 0
        self.request_failed: list[bool] = []
        self.gates: dict[str, Gate] = {}
        self.save_bytes: list[int] = []
        self.record: dict = {}
        self._patches = Patches()
        self._losses: list[float] = []
        self._t0 = 0.0

    # -- hooks ------------------------------------------------------------------

    def _install(self) -> None:
        if self.tracer is not None:
            self.tracer.install()
        tasks = self.av.tasks
        try:
            self._patches.replace(tasks.Adam, "step", self._adam_hook)
            self._patches.replace(tasks, "cross_entropy_logits", self._loss_hook)
        except TraceError:
            self._uninstall()
            raise

    def _uninstall(self) -> None:
        self._patches.restore()
        if self.tracer is not None:
            self.tracer.uninstall()

    def _adam_hook(self, fn):
        def step(opt):
            fn(opt)
            self._end_op("step", perf_counter())
            if not math.isfinite(self._losses[-1]):
                self.step_failed[-1] = True
            if self._stop_after(len(self._losses)):
                raise _Stop
            self._begin_op("step")

        return step

    def _loss_hook(self, fn):
        def loss(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._losses.append(float(out.data))
            return out

        return loss

    def _begin_op(self, kind: str) -> None:
        self._t0 = perf_counter()
        if self.tracer is not None:
            self.tracer.begin_op(kind, self._t0)

    def _end_op(self, kind: str, t: float) -> None:
        if self.tracer is not None:
            self.tracer.end_op(t)
        ms = (t - self._t0) * 1e3
        if kind == "step":
            self.step_ms.append(ms)
            self.step_failed.append(False)
        else:
            self.request_ms.append(ms)
            self.request_failed.append(False)

    def _gate(self, name: str, ok: bool, detail: str) -> None:
        """Record a gate; a name seen before stays failed once it failed."""
        prev = self.gates.get(name)
        if prev is None or prev.ok:
            self.gates[name] = Gate(name, ok, detail)

    # -- training ---------------------------------------------------------------

    def _stop_after(self, n: int) -> bool:
        wl = self.wl
        now = perf_counter()
        if n >= wl.max_steps or (n >= wl.min_steps and now > self._deadline + GIVE_UP_S):
            self._accuracy = self._score_requests(self._model, self._test)
            return True
        if n < wl.min_steps or n % wl.check_every or now < self._deadline:
            return False
        probe = self.av.tasks.evaluate(self._model, self._test[: wl.probe_count])
        if probe < wl.gate_accuracy:
            return False
        self._accuracy = self._score_requests(self._model, self._test)
        return self._accuracy >= wl.gate_accuracy

    def _train(self, model, train_set, test_set, deadline: float) -> tuple[int, int]:
        """Train until ``deadline`` has passed and the accuracy gate passes,
        or give up; returns the step-list span it timed."""
        tasks = self.av.tasks
        wl = self.wl
        self._model, self._test, self._deadline = model, test_set, deadline
        self._losses = []
        self._accuracy = float("nan")
        first = len(self.step_ms)
        frozen_before = model.frozen_hash()
        cfg = tasks.TrainConfig(lr_adapter=wl.lr, lr_head=wl.lr, steps=wl.max_steps,
                                batch_size=wl.batch, seed=self.seeds["batches"])
        self._begin_op("step")
        try:
            tasks.train(model, train_set, test_set, cfg)
        except _Stop:
            pass
        else:
            raise RuntimeError("tasks.train returned without passing a step boundary hook")
        last = len(self.step_ms)
        losses = self._losses
        frozen_ok = model.frozen_hash() == frozen_before
        acc_ok = self._accuracy >= wl.gate_accuracy
        self._gate("frozen_hash", frozen_ok, "frozen SHA-256 unchanged by training")
        self._gate("accuracy", acc_ok,
                   f"test accuracy {self._accuracy:.4f} after {len(losses)} steps (gate {wl.gate_accuracy})")
        self._gate("finite_loss", all(map(math.isfinite, losses)), "loss finite at every step")
        if not (frozen_ok and acc_ok):
            self.step_failed[first:last] = [True] * (last - first)
        self.record.update({
            "steps": len(losses),
            "final_loss": losses[-1],
            f"loss_at_step_{wl.min_steps}": losses[wl.min_steps - 1],
            f"loss_digest_{wl.min_steps}": loss_digest(losses[: wl.min_steps]),
            "accuracy": self._accuracy,
        })
        return first, last

    def _request(self, model, samples) -> int:
        """One scoring request; returns its hits."""
        self._begin_op("request")
        acc = self.av.tasks.evaluate(model, samples)
        self._end_op("request", perf_counter())
        self.request_samples += len(samples)
        return round(acc * len(samples))

    def _score_requests(self, model, samples) -> float:
        """Score ``samples`` as fixed-size requests; their hits must equal one
        whole-set ``evaluate`` call, or the requests count as failed."""
        size = self.wl.request_size
        first = len(self.request_ms)
        hits = sum(self._request(model, samples[i:i + size]) for i in range(0, len(samples), size))
        whole_hits = round(self.av.tasks.evaluate(model, samples) * len(samples))
        self._gate("request_hits", hits == whole_hits,
                   f"{hits} hits over {len(self.request_ms) - first} requests, {whole_hits} in one whole-set evaluate")
        if hits != whole_hits:
            self.request_failed[first:] = [True] * (len(self.request_ms) - first)
        return hits / len(samples)

    # -- workloads ----------------------------------------------------------------

    def setup(self):
        """Generate the datasets and build the model."""
        wl, cfg, tasks = self.wl, self.cfg, self.av.tasks
        t0 = perf_counter()
        train_set, test_set = [tasks.generate_dataset(self.seeds[n], count, wl.noise, cfg.image_hw, cfg.spec_hw)
                               for n, count in (("train-data", wl.train_count), ("test-data", wl.test_count))]
        model = self.av.model.TwoStreamModel(self.cfg, self.seeds["model"])
        self.setup_s.append(perf_counter() - t0)
        return model, train_set, test_set

    def window(self, state) -> None:
        """Train until the window ends and the gate passes, then check the
        trained weights survive a save/load round trip."""
        model, train_set, test_set = state
        first, last = self._train(model, train_set, test_set, perf_counter() + self.seconds)
        self._model = self._test = None
        if not self._round_trip(model):
            self.step_failed[first:last] = [True] * (last - first)

    def _round_trip(self, trained) -> bool:
        """Save ``trained``, load it into a fresh model, compare full state hashes."""
        av = self.av
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            base = Path(tmp) / "weights"
            trained.save_weights(base)
            self.save_bytes.append(sum(p.stat().st_size for p in Path(tmp).iterdir()))
            loaded = av.model.TwoStreamModel(self.cfg, self.seeds["model"])
            loaded.load_weights(base)
        same = loaded.registry.state_hash(frozen_only=False) == trained.registry.state_hash(frozen_only=False)
        self._gate("round_trip", same, "full registry state hash identical after save_weights/load_weights")
        return same

    def execute(self, setups: int) -> None:
        """``setups`` set-ups, the first half before the window (the last of
        them feeds it) and the rest after it."""
        before = max(1, setups // 2)
        self._install()
        try:
            for _ in range(before):
                state = self.setup()
            self.window(state)
            del state
            for _ in range(setups - before):
                self.setup()
        finally:
            self._uninstall()

    # -- results ------------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return len(self.step_ms) + len(self.request_ms)

    @property
    def failed(self) -> int:
        return sum(self.step_failed) + sum(self.request_failed)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "train_step_ms.p90": percentile(self.step_ms[WARMUP_STEPS:], 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def info(self) -> list[tuple[str, float, str]]:
        """The other throughput and latency figures: printed for the
        reader, not gated, because their run-to-run spread on a shared
        machine exceeds any useful bound (see bench/README.md)."""
        rows = []
        for prefix, ms, per_op, what in (("train", self.step_ms, self.wl.batch * len(self.step_ms), "step"),
                                         ("eval", self.request_ms, self.request_samples, "request")):
            rows += [
                (f"{prefix}_samples_per_s", per_op / (sum(ms) / 1e3), f"samples/s over {len(ms)} {what}s"),
                (f"{prefix}_{what}_ms.p50", percentile(ms, 50), "ms"),
            ]
        rows.append(("eval_request_ms.p90", percentile(self.request_ms, 90), "ms"))
        rows.append(("error_rate", self.failed / self.attempted, f"{self.failed} failed of {self.attempted}"))
        return rows


def _per_op(tr, kind: str, self_ms: list[float]) -> dict:
    """Totals over the operations of one kind: op count, inclusive ms, self
    ms and calls per span name, and the counters."""
    ops = [i for i, k in tr.op_kind.items() if k == kind]
    agg = {"n": len(ops), "incl": {}, "self": {}, "calls": {},
           "counts": {k: sum(tr.op_counts[i][k] for i in ops) for k in tr.op_counts[ops[0]]} if ops else {}}
    ops_set = set(ops)
    for i, name in enumerate(tr.name):
        if tr.op_of[i] in ops_set:
            agg["incl"][name] = agg["incl"].get(name, 0.0) + (tr.end[i] - tr.start[i]) * 1e3
            agg["self"][name] = agg["self"].get(name, 0.0) + self_ms[i] * 1e3
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
    return agg


def per_layer(run: Run, reference_p90: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from a traced run, and the mean self time per span
    name over the window's train steps.

    Scopes are averaged over the window's train steps, except
    ``tasks.evaluate``, which is per scoring request after the window.
    Dataset generation is per set-up and serialization per save or load call.
    """
    tr = run.tracer
    self_ms = tr.self_times(tr.children())
    window = _per_op(tr, "step", self_ms)
    requests = _per_op(tr, "request", self_ms)
    n = window["n"]
    whole: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(tr.name):
        whole[name] = whole.get(name, 0.0) + (tr.end[i] - tr.start[i]) * 1e3
        calls[name] = calls.get(name, 0) + 1

    def ms(agg: dict, name: str) -> float:
        return agg["incl"].get(name, 0.0) / agg["n"]

    def per_call(name: str) -> float:
        return whole[name] / calls[name]

    counts = window["counts"]
    fwd_s = (window["incl"]["model.forward"] + window["incl"]["model.head"]) / 1e3
    p90 = percentile(run.step_ms[WARMUP_STEPS:], 90)
    metrics = {
        "autodiff.graph_nodes": counts["nodes"] / n,
        "autodiff.backward.ms": ms(window, "autodiff.backward"),
        "autodiff.fwd_macs": counts["macs"] / n,
        "autodiff.softmax_elems": counts["softmax_elems"] / n,
        "autodiff.fwd_gmacs_per_s": counts["macs"] / fwd_s / 1e9,
        "backbone.embed.ms": ms(window, "backbone.embed"),
        "backbone.mha.ms": ms(window, "backbone.mha"),
        "backbone.mha.calls": window["calls"]["backbone.mha"] / n,
        "backbone.mlp.ms": ms(window, "backbone.mlp"),
        "backbone.mlp.calls": window["calls"]["backbone.mlp"] / n,
        "fusion.adapter.ms": ms(window, "fusion.adapter"),
        "fusion.adapter.calls": window["calls"]["fusion.adapter"] / n,
        "fusion.compress.ms": ms(window, "fusion.compress"),
        "fusion.fuse.ms": ms(window, "fusion.fuse"),
        "fusion.bottleneck.ms": ms(window, "fusion.bottleneck"),
        "model.forward.ms": ms(window, "model.forward"),
        "model.tokenize.ms": ms(window, "model.tokenize"),
        "model.head.ms": ms(window, "model.head"),
        "tasks.loss.ms": ms(window, "tasks.loss"),
        "tasks.adam.ms": ms(window, "tasks.adam"),
        "tasks.step_self.ms": window["self"]["op.step"] / n,
        "tasks.evaluate.ms": ms(requests, "tasks.evaluate"),
        "tasks.generate_dataset.ms": whole["tasks.generate_dataset"] / len(run.setup_s),
        "serialization.save.ms": per_call("serialization.save"),
        "serialization.load.ms": per_call("serialization.load"),
        "serialization.bytes": sum(run.save_bytes) / len(run.save_bytes),
        "python.gc.ms": counts["gc_ms"] / n,
        "python.gc.collections": counts["gc_collections"] / n,
        "python.gc.collected": counts["gc_collected"] / n,
        "trace.overhead_pct": 100.0 * (p90 - reference_p90) / reference_p90,
    }
    return metrics, {name: v / n for name, v in window["self"].items()}


# Entry points each kind of operation must reach, and entry points that must
# run somewhere. Both kinds run in every workload: the window's train steps
# and the gate's scoring requests after it; the checkpoint follows.
FORWARD_PATH = ["backbone.embed", "backbone.mha", "backbone.mlp", "fusion.adapter", "fusion.compress",
                "fusion.fuse", "fusion.bottleneck", "model.forward", "model.tokenize", "model.head"]
REQUIRED = {
    "step": FORWARD_PATH + ["autodiff.backward", "tasks.loss", "tasks.adam"],
    "request": FORWARD_PATH + ["tasks.evaluate"],
}
SETUP_REQUIRED = ["tasks.generate_dataset", "serialization.save", "serialization.load"]


@dataclass
class Result:
    runs: list[Run]
    metrics: dict[str, dict]  # name -> {"value", "unit"}
    tracer: Tracer | None = None
    self_ms: dict[str, float] | None = None
    op_mean_ms: float = 0.0
    spans: int = 0
    spans_path: Path | None = None


def measure(av, wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    """The untraced run (end-to-end metrics) or the traced run (per-layer
    metrics: an untraced reference pass, then a traced pass, each with half
    of ``seconds`` as its window)."""
    if not trace:
        run = Run(av, wl, seed, seconds, out_dir)
        run.execute(setups=SETUPS)
        values = run.end_to_end()
        return Result([run], {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END})
    reference = Run(av, wl, seed, seconds / 2, out_dir)
    reference.execute(setups=1)
    traced = Run(av, wl, seed, seconds / 2, out_dir, tracer=Tracer(av))
    traced.execute(setups=1)
    tracer = traced.tracer
    tracer.check_called(REQUIRED, SETUP_REQUIRED)
    errors = tracer.nesting_errors(tracer.children())
    if errors:
        raise TraceError(f"{len(errors)} spans do not nest, first: {errors[0]}")
    spans_path = out_dir / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write(spans_path)
    values, self_ms = per_layer(traced, percentile(reference.step_ms[WARMUP_STEPS:], 90))
    ops = traced.step_ms
    return Result(
        [reference, traced],
        {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER},
        tracer=tracer,
        self_ms=self_ms,
        op_mean_ms=sum(ops) / len(ops),
        spans=len(tracer.name),
        spans_path=spans_path,
    )
