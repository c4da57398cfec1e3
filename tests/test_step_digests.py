"""Golden step digests: every case of ``tests/step_digest.py`` recomputed and
compared field by field with ``tests/step_digests.txt``.

A line holds the case's node count, a digest of its logits, gradients and
MAC tallies, and a digest of every trainable value after one Adam step, so
a refactor that should keep every output bitwise shows here if it does not.
The digests depend on the BLAS kernels: where the running Python, numpy or
BLAS build differs from the recorded one, the test skips and names the
field. A failure names every case that moved and, per case, each field that
moved (``nodes 18 -> 6``, ``step digest moved``, ``post-Adam digest
moved``), so a deliberate change of the node count is told apart from
numeric drift. A change that means to move a field regenerates the file on
purpose (see ``step_digest.py``)."""
import pytest

import step_digest

FIELDS = ("nodes", "step digest", "post-Adam digest")


def moved_fields(got: str, want: str) -> list[str]:
    """The fields of a case's line that differ from the recorded line's."""
    return [f"{field} {w} -> {g}" if field == "nodes" else f"{field} moved"
            for field, g, w in zip(FIELDS, got.split(" ")[1:], want.split(" ")[1:], strict=True) if g != w]


def test_step_digests_match_the_recorded_file():
    header, recorded = step_digest.read_digests()
    running = step_digest.environment()
    for field in sorted(header.keys() | running.keys()):
        if header.get(field) != running.get(field):
            pytest.skip(f"digests were recorded under {field} {header.get(field)!r}, this run has {running.get(field)!r}")
    names = [name for name, _ in step_digest.cases()]
    assert [line.split(" ", 1)[0] for line in recorded] == names, "the recorded cases are not step_digest's cases"
    moved = []
    for (name, fields), want in zip(step_digest.cases(), recorded):
        fields_moved = moved_fields(step_digest.step_line(name, fields), want)
        if fields_moved:
            moved.append(f"{name}: {', '.join(fields_moved)}")
    assert not moved, "cases moved:\n" + "\n".join(moved)
