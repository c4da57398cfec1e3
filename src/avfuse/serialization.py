"""On-disk formats: named-tensor containers, JSON files, CSV floats.

A tensor container is a pair of files sharing a base path: ``<base>.json``
holds the manifest (entry order, names, shapes, frozen flags, byte offsets)
and ``<base>.bin`` holds the concatenated row-major little-endian float64
payloads in manifest order. It carries model weights; free-form metadata
rides in the manifest's "extra" field.

Every file is written whole or not at all: ``write_atomic`` writes the bytes
to a temp file beside the target and renames it over the target, so a crash
or a failed write leaves the previous file in place.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONTAINER_FORMAT = "avfuse-tensors-v1"

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
    # the payload first, so the manifest that describes it lands last
    write_atomic(base.with_suffix(".bin"), b"".join(blobs))
    write_json(base.with_suffix(".json"), manifest)


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


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` whole: the bytes go to a temp file in
    the same directory, flushed to disk, which ``os.replace`` then renames
    over ``path``. On any failure the temp file is removed and ``path`` is
    left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def format_float(x: float) -> str:
    """Canonical decimal rendering used in every CSV we emit: up to 17
    significant digits, '.' decimal separator, no exponent surprises from
    locale."""
    return format(float(x), ".17g")
