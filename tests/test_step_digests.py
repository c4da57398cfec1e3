"""Golden step digests: every case of ``tests/step_digest.py`` recomputed and
compared line by line with ``tests/step_digests.txt``.

A line holds the case's node count, a digest of its logits, gradients and
MAC tallies, and a digest of every trainable value after one Adam step, so
a refactor that should keep every output bitwise shows here if it does not.
The digests depend on the BLAS kernels: where the running Python, numpy or
BLAS build differs from the recorded one, the test skips and names the
field. A change that means to move a digest regenerates the file on purpose
(see ``step_digest.py``)."""
import pytest

import step_digest


def test_step_digests_match_the_recorded_file():
    header, recorded = step_digest.read_digests()
    running = step_digest.environment()
    for field in sorted(header.keys() | running.keys()):
        if header.get(field) != running.get(field):
            pytest.skip(f"digests were recorded under {field} {header.get(field)!r}, this run has {running.get(field)!r}")
    names = [name for name, _ in step_digest.cases()]
    assert [line.split(" ", 1)[0] for line in recorded] == names, "the recorded cases are not step_digest's cases"
    for (name, fields), want in zip(step_digest.cases(), recorded):
        assert step_digest.step_line(name, fields) == want, f"case {name} moved"
