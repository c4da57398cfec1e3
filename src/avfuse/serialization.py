"""On-disk formats: named-tensor containers, JSON files, CSV tables.

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

# the one payload layout the loader reads, and each manifest entry's fields
# with their JSON types (bool is not taken for int, nor int for bool)
_LAYOUT = {"dtype": "float64", "byteorder": "little", "order": "C"}
_ENTRY_FIELDS = {"name": str, "shape": list, "frozen": bool, "offset": int, "nbytes": int}


@dataclass
class ContainerEntry:
    name: str
    array: np.ndarray
    frozen: bool


def save_tensors(base: str | Path, entries, extra: dict | None = None) -> None:
    """Write ``entries`` (iterables of (name, array, frozen)) to <base>.json
    plus <base>.bin. Entry order is preserved; duplicate names and
    non-finite payloads, which ``load_tensors`` would refuse, and a manifest
    that cannot be encoded are errors raised before either file is
    written."""
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
        if not np.isfinite(arr).all():
            raise ValueError(f"container entry {name!r}: payload holds non-finite values, which a load would refuse")
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
    text = json_bytes(manifest)
    base.parent.mkdir(parents=True, exist_ok=True)
    # the payload first, so the manifest that describes it lands last
    write_atomic(base.with_suffix(".bin"), b"".join(blobs))
    write_atomic(base.with_suffix(".json"), text)


def load_tensors(base: str | Path) -> tuple[list[ContainerEntry], dict]:
    """Read a container back; returns (entries in manifest order, extra).

    The manifest must name the layout written here and give each entry every
    field in its JSON type, or the load is refused naming entry and field.
    The entries must tile the blob exactly, in manifest order: the first
    starts at byte 0, each next one where the previous one ends, and the last
    one ends at the blob's end. Duplicate names and non-finite payloads are
    refused.
    """
    base = Path(base)
    with open(base.with_suffix(".json"), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise ValueError(f"container manifest: need a JSON object, got {type(manifest).__name__}")
    if manifest.get("format") != CONTAINER_FORMAT:
        raise ValueError(f"unrecognized container format: {manifest.get('format')!r}")
    for key, want in _LAYOUT.items():
        if manifest.get(key) != want:
            raise ValueError(f"container manifest: field {key!r} is {manifest.get(key)!r}, but only {want!r} is read")
    if not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"container manifest: field 'tensors' must be a JSON list, got {manifest.get('tensors')!r}")
    blob = base.with_suffix(".bin").read_bytes()
    entries = []
    seen: set[str] = set()
    lo = 0
    for index, rec in enumerate(manifest["tensors"]):
        if not isinstance(rec, dict):
            raise ValueError(f"container entry {index}: need a JSON object, got {type(rec).__name__}")
        name = rec.get("name")
        what = f"container entry {name!r}" if type(name) is str else f"container entry {index}"
        for key, kind in _ENTRY_FIELDS.items():
            if type(rec.get(key)) is not kind:
                got = f"got {rec[key]!r}" if key in rec else "it is missing"
                raise ValueError(f"{what}: field {key!r} must be a JSON {kind.__name__}, {got}")
        if name in seen:
            raise ValueError(f"duplicate tensor name in container: {name!r}")
        seen.add(name)
        shape = tuple(rec["shape"])
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{what}: field 'shape' must list non-negative integers, got {rec['shape']!r}")
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
        entries.append(ContainerEntry(name, arr, rec["frozen"]))
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


def json_bytes(payload: dict) -> bytes:
    """``payload`` as indented UTF-8 JSON with sorted keys and a final
    newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_json(path: str | Path, payload: dict) -> None:
    """Replace ``path`` with ``json_bytes(payload)``."""
    write_atomic(path, json_bytes(payload))


def format_float(x: float) -> str:
    """Canonical decimal rendering used in every CSV we emit: up to 17
    significant digits, '.' decimal separator, no exponent surprises from
    locale."""
    return format(float(x), ".17g")


def csv_text(columns, rows) -> str:
    """Rows (mappings from column name to value) as CSV text: a header of
    ``columns``, LF line endings, floats through ``format_float`` and every
    other value through ``str`` (so "" is an empty cell)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_float(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
