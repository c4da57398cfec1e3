"""On-disk formats: named-tensor containers, raw arrays with sidecars, CSV.

A tensor container is a pair of files sharing a base path: ``<base>.json``
holds the manifest (entry order, names, shapes, frozen flags, byte offsets)
and ``<base>.bin`` holds the concatenated row-major little-endian float64
payloads in manifest order. The same container carries model weights and
exported datasets; free-form metadata rides in the manifest's "extra" field.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTAINER_FORMAT = "avfuse-tensors-v1"
ARRAY_FORMAT = "avfuse-array-v1"

_ITEMSIZE = 8  # float64


@dataclass
class ContainerEntry:
    name: str
    array: np.ndarray
    frozen: bool


def save_tensors(base: str | Path, entries, extra: dict | None = None) -> None:
    """Write ``entries`` (iterables of (name, array, frozen)) to <base>.json
    plus <base>.bin. Entry order is preserved; duplicate names are an error."""
    base = Path(base)
    manifest_entries = []
    blobs = []
    seen: set[str] = set()
    offset = 0
    for name, array, frozen in entries:
        if name in seen:
            raise ValueError(f"duplicate tensor name in container: {name!r}")
        seen.add(name)
        # np.array keeps 0-d shapes; ascontiguousarray would promote () to (1,)
        arr = np.array(array, dtype=np.float64, order="C")
        raw = arr.astype("<f8", copy=False).tobytes(order="C")
        manifest_entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "frozen": bool(frozen),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format": CONTAINER_FORMAT,
        "dtype": "float64",
        "byteorder": "little",
        "order": "C",
        "tensors": manifest_entries,
        "extra": extra if extra is not None else {},
    }
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(base.with_suffix(".json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(base.with_suffix(".bin"), "wb") as f:
        for raw in blobs:
            f.write(raw)


def load_tensors(base: str | Path) -> tuple[list[ContainerEntry], dict]:
    """Read a container back; returns (entries in manifest order, extra).

    The entries must tile the blob exactly, in manifest order: the first
    starts at byte 0, each next one where the previous one ends, and the last
    one ends at the blob's end. Non-finite payloads are refused.
    """
    base = Path(base)
    with open(base.with_suffix(".json"), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if manifest.get("format") != CONTAINER_FORMAT:
        raise ValueError(f"unrecognized container format: {manifest.get('format')!r}")
    blob = base.with_suffix(".bin").read_bytes()
    entries = []
    lo = 0
    for rec in manifest["tensors"]:
        name = rec["name"]
        shape = tuple(int(s) for s in rec["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * _ITEMSIZE
        if rec["nbytes"] != nbytes:
            raise ValueError(f"container entry {name!r}: byte count {rec['nbytes']} does not match shape {shape}")
        if rec["offset"] != lo:
            raise ValueError(f"container entry {name!r}: offset {rec['offset']} is not where the previous entry ends ({lo})")
        hi = lo + nbytes
        if hi > len(blob):
            raise ValueError(f"container entry {name!r}: payload runs past end of blob")
        arr = np.frombuffer(blob[lo:hi], dtype="<f8").astype(np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"container entry {name!r}: payload holds non-finite values")
        entries.append(ContainerEntry(name, arr, bool(rec["frozen"])))
        lo = hi
    if lo != len(blob):
        raise ValueError(f"container blob holds {len(blob)} bytes but its entries cover {lo}")
    return entries, manifest.get("extra", {})


def save_array(base: str | Path, array: np.ndarray) -> None:
    """Write one raw array to <base>.bin with a <base>.json shape sidecar."""
    base = Path(base)
    arr = np.array(array, dtype=np.float64, order="C")
    sidecar = {
        "format": ARRAY_FORMAT,
        "shape": list(arr.shape),
        "dtype": "float64",
        "byteorder": "little",
        "order": "C",
    }
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(base.with_suffix(".json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(base.with_suffix(".bin"), "wb") as f:
        f.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_array(base: str | Path) -> np.ndarray:
    base = Path(base)
    with open(base.with_suffix(".json"), "r", encoding="utf-8") as f:
        sidecar = json.load(f)
    if sidecar.get("format") != ARRAY_FORMAT:
        raise ValueError(f"unrecognized array format: {sidecar.get('format')!r}")
    shape = tuple(int(s) for s in sidecar["shape"])
    raw = base.with_suffix(".bin").read_bytes()
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if len(raw) != count * _ITEMSIZE:
        raise ValueError(f"array payload of {len(raw)} bytes does not match shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load_array_csv(path: str | Path) -> np.ndarray:
    """Small 2-D fixtures as comma-separated text, one row per line."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise ValueError(f"empty CSV fixture: {path}")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ValueError(f"ragged CSV fixture: {path}")
    return np.asarray(rows, dtype=np.float64)


def format_float(x: float) -> str:
    """Canonical decimal rendering used in every CSV we emit: up to 17
    significant digits, '.' decimal separator, no exponent surprises from
    locale."""
    return format(float(x), ".17g")
