"""Analytic parameter and multiply-accumulate accounting.

Conventions, fixed across the package: one MAC is one scalar multiply-add
inside a matmul-family op (dense or grouped), so one MAC equals two FLOPs;
softmax work is tallied separately as one exp+divide pair per matrix element;
elementwise adds, gate scalings and normalization arithmetic are not counted.
The runtime counter in ``autodiff`` uses the same rules, which is what makes
"analytic equals instrumented, exactly" a meaningful assertion.

Token/shape symbols used below: a target stream of n tokens attends toward a
source stream of k tokens through latent_count summary slots, all at the
backbone width.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .backbone import AUDIO, VISUAL, FreezeRegistry
from .fusion import DIRECTIONS, MODE_DIRECTIONS, SOURCE, TARGET

VARIANTS = ("latent", "direct")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ParamEntry:
    name: str
    count: int
    frozen: bool


@dataclass
class ParamReport:
    """Per-parameter counts plus frozen/trainable totals."""

    title: str
    entries: list[ParamEntry] = field(default_factory=list)

    @property
    def frozen_total(self) -> int:
        return sum(e.count for e in self.entries if e.frozen)

    @property
    def trainable_total(self) -> int:
        return sum(e.count for e in self.entries if not e.frozen)

    @property
    def total(self) -> int:
        return self.frozen_total + self.trainable_total

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "entries": [
                {"name": e.name, "count": e.count, "frozen": e.frozen} for e in self.entries
            ],
            "frozen_total": self.frozen_total,
            "trainable_total": self.trainable_total,
            "total": self.total,
        }

    def csv_rows(self) -> list[dict]:
        rows = []
        for e in self.entries:
            rows.append(
                {
                    "name": f"{self.title}.{e.name}",
                    "frozen": e.count if e.frozen else 0,
                    "trainable": 0 if e.frozen else e.count,
                    "macs": "",
                }
            )
        return rows


@dataclass
class MacEntry:
    macs: int
    softmax_elems: int = 0


@dataclass
class MacReport:
    """Per-operation MAC counts for one forward pass of the fusion path at a
    fixed token/shape configuration."""

    config: dict
    ops: dict[str, MacEntry] = field(default_factory=dict)

    @property
    def total_macs(self) -> int:
        return sum(e.macs for e in self.ops.values())

    @property
    def total_softmax_elems(self) -> int:
        return sum(e.softmax_elems for e in self.ops.values())

    def to_json_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "ops": {
                name: {"macs": e.macs, "softmax_elems": e.softmax_elems}
                for name, e in self.ops.items()
            },
            "total_macs": self.total_macs,
            "total_softmax_elems": self.total_softmax_elems,
        }

    def csv_rows(self) -> list[dict]:
        label = self.config.get("variant", "fusion")
        return [
            {"name": f"{label}.{name}", "frozen": "", "trainable": "", "macs": e.macs}
            for name, e in self.ops.items()
        ]


# columns of the combined report rows ``csv_rows`` return
REPORT_COLUMNS = ("name", "frozen", "trainable", "macs")


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------


def count_params(registry: FreezeRegistry, title: str = "model") -> ParamReport:
    """Enumerate a registry into a ParamReport, in registration order."""
    report = ParamReport(title=title)
    for name, tensor, frozen in registry.items():
        report.entries.append(ParamEntry(name, int(tensor.size), frozen))
    return report


def grouped_projection_params(width: int, ratio: int, groups: int) -> int:
    """Weights in one grouped down+up projection pair (no biases):
    2 * width * (width/ratio) / groups."""
    if width % (ratio * groups):
        raise ValueError(f"width {width} is not divisible by ratio*groups = {ratio * groups}")
    narrow = width // ratio
    return 2 * width * narrow // groups


# ---------------------------------------------------------------------------
# fusion MACs
# ---------------------------------------------------------------------------


def mac_fusion(n: int, k: int, latent_count: int, width: int, variant: str = "latent") -> MacReport:
    """MACs for one direction of the cross-modal fusion path: a target of n
    tokens reading a source of k tokens.

    latent variant: compression is two (latent_count x k x width) matmuls
    (scores, then the weighted sum), fusion is two (n x latent_count x width)
    matmuls; linear in n and in k. direct variant: one cross-attention of two
    (n x k x width) matmuls; bilinear in n*k. Softmax exp/div elements are
    reported beside each op.
    """
    if variant not in VARIANTS:
        raise ValueError(f"mac_fusion: unknown variant {variant!r}")
    if min(n, k, latent_count, width) < 1:
        raise ValueError("mac_fusion: all sizes must be >= 1")
    config = {"n": n, "k": k, "latent_count": latent_count, "width": width, "variant": variant}
    report = MacReport(config=config)
    if variant == "latent":
        report.ops["compression"] = MacEntry(macs=2 * latent_count * k * width, softmax_elems=latent_count * k)
        report.ops["fusion"] = MacEntry(macs=2 * n * latent_count * width, softmax_elems=n * latent_count)
    else:
        report.ops["fusion"] = MacEntry(macs=2 * n * k * width, softmax_elems=n * k)
    return report


def target_source(n: int, k: int) -> dict[str, tuple[int, int]]:
    """Each direction's (target tokens, source tokens) for n visual and k
    audio tokens, read off ``fusion.SOURCE`` and ``TARGET``. The one table
    every per-direction cost reads."""
    tokens = {VISUAL: n, AUDIO: k}
    return {d: (tokens[TARGET[d]], tokens[SOURCE[d]]) for d in DIRECTIONS}


def fusion_macs_total(
    n: int, k: int, latent_count: int, width: int, mode: str, use_latents: bool = True
) -> int:
    """Total fusion-path MACs over the enabled directions of one layer.
    Still affine in latent_count for the latent variant and bilinear in n*k
    for the direct one."""
    variant = "latent" if use_latents else "direct"
    tokens = target_source(n, k)
    return sum(
        mac_fusion(*tokens[direction], latent_count, width, variant).total_macs
        for direction in MODE_DIRECTIONS[mode]
    )


def model_fusion_macs(
    layers: int, n: int, k: int, latent_count: int, width: int, mode: str, use_latents: bool
) -> int:
    """Fusion MACs for one full forward pass: every layer injects beside both
    sub-steps, so each enabled direction runs twice per layer."""
    return layers * 2 * fusion_macs_total(n, k, latent_count, width, mode, use_latents)


def mac_bottleneck(tokens: int, width: int, ratio: int, groups: int) -> int:
    """MACs for one grouped bottleneck applied to ``tokens`` rows:
    2 * tokens * width * (width/ratio) / groups."""
    if width % (ratio * groups):
        raise ValueError(f"width {width} is not divisible by ratio*groups = {ratio * groups}")
    return 2 * tokens * width * (width // ratio) // groups
