"""Round-trip and byte-layout tests for the on-disk formats."""
import json
import re
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


def test_container_refuses_to_load_a_name_twice(tmp_path):
    # the second "a" entry tiles the blob, so only the duplicate name is
    # wrong; a loader that kept the later payload would read a = [9, 9]
    base = tmp_path / "d"
    save_tensors(base, [("a", np.array([1.0, 2.0]), False), ("b", np.array([9.0, 9.0]), False)])
    _edit_manifest(tmp_path / "d.json", lambda m: m["tensors"][1].update(name="a"))
    with pytest.raises(ValueError, match=re.escape("duplicate tensor name in container: 'a'")):
        load_tensors(base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_container_refuses_to_save_non_finite_values(tmp_path, bad):
    # a load refuses non-finite payloads, so a save must not write them: it
    # names the entry and leaves neither file behind
    entries = [("w", np.ones(3), False), ("x", np.array([bad, 1.0]), False)]
    with pytest.raises(ValueError, match=r"container entry 'x': payload holds non-finite values"):
        save_tensors(tmp_path / "w", entries)
    assert list(tmp_path.iterdir()) == []


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


def _edit_manifest(path, edit):
    """Rewrite a container's manifest by ``edit``, which changes it in place
    or returns a replacement."""
    man = json.loads(path.read_text())
    man = edit(man) or man
    path.write_text(json.dumps(man))


# manifest edits the loader does not honour, each with the field its error
# must name: a payload layout other than the one it reads, a field of the
# wrong JSON type (a string shape would be read one character at a time, a
# float dimension truncated, a string flag taken as true), a manifest that is
# not an object
HEADER_EDITS = {
    "dtype": (lambda m: m.update(dtype="float32"), "'dtype'"),
    "byteorder": (lambda m: m.update(byteorder="big"), "'byteorder'"),
    "order": (lambda m: m.update(order="F"), "'order'"),
    "frozen-string": (lambda m: m["tensors"][1].update(frozen="no"), "entry 'w': field 'frozen'"),
    "shape-string": (lambda m: m["tensors"][1].update(shape="64"), "entry 'w': field 'shape'"),
    "shape-float": (lambda m: m["tensors"][1].update(shape=[6.5, 4]), "entry 'w': field 'shape'"),
    "not-an-object": (lambda m: [m], "manifest: need a JSON object"),
    "entry-not-an-object": (lambda m: m["tensors"].__setitem__(1, "w"), "entry 1: need a JSON object"),
}


@pytest.mark.parametrize("case", HEADER_EDITS)
def test_container_refuses_a_header_it_does_not_honour(tmp_path, case):
    # the payload still tiles the blob: a loader that ignored the field
    # would read it, wrongly
    base = tmp_path / "h"
    save_tensors(base, [("v", np.ones(2), False), ("w", np.arange(24.0).reshape(6, 4), True)])
    edit, names = HEADER_EDITS[case]
    _edit_manifest(tmp_path / "h.json", edit)
    with pytest.raises(ValueError, match=re.escape(names)):
        load_tensors(base)


def test_container_refuses_a_shape_whose_count_overflows_int64(tmp_path):
    # 2**62 * 4 elements wrap to 0 in an int64 product, which would match an
    # empty payload's byte count; counted exactly, the byte count is refused
    # naming the entry
    base = tmp_path / "o"
    save_tensors(base, [("v", np.ones(2), False), ("e", np.ones(0), False)])
    _edit_manifest(tmp_path / "o.json", lambda m: m["tensors"][1].update(shape=[2**62, 4]))
    with pytest.raises(ValueError, match=re.escape("container entry 'e': byte count 0 does not match shape")):
        load_tensors(base)


@pytest.mark.parametrize("field", ["name", "shape", "frozen", "offset", "nbytes"])
def test_container_refuses_an_entry_without_a_field(tmp_path, field):
    base = tmp_path / "k"
    save_tensors(base, [("v", np.ones(2), False), ("w", np.ones(3), True)])
    _edit_manifest(tmp_path / "k.json", lambda m: m["tensors"][1].__delitem__(field))
    entry = "1" if field == "name" else "'w'"
    with pytest.raises(ValueError, match=re.escape(f"container entry {entry}: field '{field}' must be a JSON")):
        load_tensors(base)


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


def test_unencodable_extra_keeps_previous_container(tmp_path):
    # the manifest is encoded before either file is replaced, so a save
    # whose extra JSON cannot hold leaves the old pair loadable
    base = tmp_path / "w"
    save_tensors(base, [("x", np.ones(2), False)], extra={"seed": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(TypeError):
        save_tensors(base, [("x", np.zeros(3), False)], extra={"seed": object()})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    entries, extra = load_tensors(base)
    np.testing.assert_array_equal(entries[0].array, np.ones(2))
    assert extra == {"seed": 1}


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
