"""Round-trip and byte-layout tests for the on-disk formats."""
import json
import struct

import numpy as np
import pytest

from avfuse import serialization
from avfuse.serialization import (
    ContainerEntry,
    format_float,
    load_tensors,
    save_tensors,
    write_atomic,
)


def test_container_round_trip(tmp_path):
    r = np.random.default_rng(0)
    entries = [
        ("alpha", r.standard_normal((3, 4)), True),
        ("beta", r.standard_normal((2,)), False),
        ("gamma", np.array(2.5), False),
    ]
    base = tmp_path / "weights"
    save_tensors(base, entries, extra={"note": "x"})
    got, extra = load_tensors(base)
    assert extra == {"note": "x"}
    assert [e.name for e in got] == ["alpha", "beta", "gamma"]
    assert [e.frozen for e in got] == [True, False, False]
    for (_, arr, _), e in zip(entries, got):
        np.testing.assert_array_equal(np.asarray(arr, dtype=np.float64), e.array)
    assert got[2].array.shape == ()


def test_container_bytes_are_little_endian_row_major(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    base = tmp_path / "one"
    save_tensors(base, [("m", arr, False)])
    raw = (tmp_path / "one.bin").read_bytes()
    vals = struct.unpack("<4d", raw)
    assert vals == (1.0, 2.0, 3.0, 4.0)


def test_container_duplicate_name_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_tensors(tmp_path / "d", [("x", np.ones(2), False), ("x", np.ones(2), False)])


def test_container_detects_shape_byte_mismatch(tmp_path):
    base = tmp_path / "bad"
    save_tensors(base, [("x", np.ones((2, 2)), False)])
    man = json.loads((tmp_path / "bad.json").read_text())
    man["tensors"][0]["shape"] = [3, 2]
    (tmp_path / "bad.json").write_text(json.dumps(man))
    with pytest.raises(ValueError):
        load_tensors(base)

    save_tensors(base, [("x", np.ones((2, 2)), False)])
    man = json.loads((tmp_path / "bad.json").read_text())
    man["tensors"][0]["shape"] = [2, 3]
    man["tensors"][0]["nbytes"] = 48
    (tmp_path / "bad.json").write_text(json.dumps(man))
    with pytest.raises(ValueError):
        load_tensors(base)


def test_container_rejects_wrong_format_tag(tmp_path):
    base = tmp_path / "fmt"
    save_tensors(base, [("x", np.ones(1), False)])
    man = json.loads((tmp_path / "fmt.json").read_text())
    man["format"] = "something-else"
    (tmp_path / "fmt.json").write_text(json.dumps(man))
    with pytest.raises(ValueError):
        load_tensors(base)


def test_container_deterministic_bytes(tmp_path):
    arr = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    save_tensors(tmp_path / "a", [("w", arr, True)], extra={"k": 1})
    save_tensors(tmp_path / "b", [("w", arr, True)], extra={"k": 1})
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class _FullDisk:
    """A file that takes half of what it is asked to write, then fails."""

    def __init__(self, path, mode):
        self._f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    write_atomic(target, b"old,contents\n")
    monkeypatch.setattr(serialization, "open", _FullDisk, raising=False)
    with pytest.raises(OSError):
        write_atomic(target, b"new,contents,that,are,longer\n")
    assert target.read_bytes() == b"old,contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_rename_keeps_previous_container(tmp_path, monkeypatch):
    base = tmp_path / "w"
    save_tensors(base, [("x", np.ones(3), False)])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(serialization.os, "replace", refuse)
    with pytest.raises(OSError):
        save_tensors(base, [("x", np.zeros(3), False)])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestFormatFloat:
    def test_exact_small_values(self):
        assert format_float(0.5) == "0.5"
        assert format_float(2.0) == "2"
        assert format_float(-1.25) == "-1.25"

    def test_round_trips_through_parse(self):
        r = np.random.default_rng(2)
        for x in r.standard_normal(200) * 10.0 ** r.integers(-8, 8, 200):
            assert float(format_float(x)) == x

    def test_seventeen_digits_max(self):
        s = format_float(1.0 / 3.0)
        digits = s.replace("0.", "")
        assert len(digits) <= 17


def _mutate(tmp_path, base, mutation, r):
    """Apply one corruption to a saved container in place."""
    man_path, bin_path = tmp_path / f"{base.name}.json", tmp_path / f"{base.name}.bin"
    man = json.loads(man_path.read_text())
    blob = bytearray(bin_path.read_bytes())
    recs = man["tensors"]
    i = int(r.integers(1, len(recs)))
    if mutation == "shift-offset":
        recs[i]["offset"] += 8 * int(r.choice([-1, 1]))
    elif mutation == "overlap":
        recs[i]["offset"] = recs[i - 1]["offset"]
    elif mutation == "truncate":
        del blob[-int(r.integers(1, 9)):]
    elif mutation == "append":
        blob += bytes(int(r.integers(1, 17)))
    elif mutation in ("nan", "inf"):
        at = 8 * int(r.integers(0, len(blob) // 8))
        blob[at:at + 8] = struct.pack("<d", float(mutation))
    man_path.write_text(json.dumps(man))
    bin_path.write_bytes(bytes(blob))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mutation", ["shift-offset", "overlap", "truncate", "append", "nan", "inf"])
def test_container_refuses_inconsistent_manifest_or_blob(tmp_path, mutation, seed):
    # random containers of 2-5 entries, 0-d shapes included; the intact
    # container loads, and each corruption of it is refused
    r = np.random.default_rng(seed)
    shapes = [tuple(int(n) for n in r.integers(1, 4, size=r.integers(0, 3))) for _ in range(r.integers(2, 6))]
    entries = [(f"t{k}", r.standard_normal(shape), bool(k % 2)) for k, shape in enumerate(shapes)]
    base = tmp_path / "c"
    save_tensors(base, entries)
    assert [e.name for e in load_tensors(base)[0]] == [name for name, _, _ in entries]
    _mutate(tmp_path, base, mutation, r)
    with pytest.raises(ValueError):
        load_tensors(base)
