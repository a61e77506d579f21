"""Damaged artifacts end in an exit code, never in a traceback."""

import contextlib
import functools
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from plcpbits.cli import main

# (text, index flags) of the artifacts that get damaged
TEXTS = [(b"banana", ["--rate", "3"]),
         (b"abbab", ["--circular", "--rate", "2"])]
SUFFIXES = [".bwt", ".sisa", ".plcp"]


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@functools.lru_cache(maxsize=None)
def _artifacts(which):
    """Indexed and built artifacts of ``TEXTS[which]``, bytes by suffix."""
    text, flags = TEXTS[which]
    with tempfile.TemporaryDirectory() as directory:
        src = os.path.join(directory, "t.txt")
        pre = os.path.join(directory, "t")
        with open(src, "wb") as fh:
            fh.write(text)
        assert _quiet_main(["index", src, "--output", pre] + flags) == 0
        assert _quiet_main(["build", pre + ".bwt", pre + ".sisa",
                            "-o", pre + ".plcp"]) == 0
        blobs = {}
        for suffix in SUFFIXES:
            with open(pre + suffix, "rb") as fh:
                blobs[suffix] = fh.read()
    return blobs


# an edit: ("flip", index, xor mask), ("cut", index) or ("add", bytes)
EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 63), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 63)),
    st.tuples(st.just("add"), st.binary(min_size=1, max_size=16)),
)


def _damage(blob, edit):
    if edit[0] == "flip" and blob:
        i = edit[1] % len(blob)
        return blob[:i] + bytes([blob[i] ^ edit[2]]) + blob[i + 1 :]
    if edit[0] == "cut":
        return blob[: edit[1] % (len(blob) + 1)]
    if edit[0] == "add":
        return blob + edit[1]
    return blob


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, len(TEXTS) - 1),
       suffix=st.sampled_from(SUFFIXES),
       edits=st.lists(EDITS, min_size=1, max_size=3),
       strategy=st.sampled_from(["external", "hybrid"]))
def test_damaged_artifacts_exit_cleanly(which, suffix, edits, strategy):
    blobs = dict(_artifacts(which))
    for edit in edits:
        blobs[suffix] = _damage(blobs[suffix], edit)
    with tempfile.TemporaryDirectory() as directory:
        pre = os.path.join(directory, "t")
        for name, blob in blobs.items():
            with open(pre + name, "wb") as fh:
                fh.write(blob)
        # external rejects a cutoff before it builds
        cutoff = ["--cutoff", "1"] if strategy == "hybrid" else []
        runs = [["build", pre + ".bwt", pre + ".sisa", "-o", pre + ".out",
                 "--strategy", strategy, *cutoff, "--verify-after-build"],
                ["decode", pre + ".plcp", "--all"],
                ["period", pre + ".bwt"]]
        for argv in runs:
            assert _quiet_main(argv) in (0, 1, 2, 3), argv
