"""How the CLI writes a file: ``cli._write`` encodes its texts 2**16 characters at a time.

The slice is a size branch, so the texts sit just below, at and just above
one slice, and a multi-byte character straddles a slice's byte edge.  The
tracemalloc peaks pin what the writers hold: no bytes copy of a whole file,
and a rates CSV built from one list of row parts.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from facil import cli
from facil.oracle import EvaluationReport
from facil.spaces import build_space, label_column

SLICE = 2**16


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated beyond what existed before it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "texts",
    [
        ("a" * (SLICE - 1),),
        ("a" * SLICE,),
        ("a" * (SLICE + 1),),
        ("",),
        (),
        # a 3-byte character as the last character of the first slice, and a 4-byte one
        # as the first of the second: their bytes cross byte offset 2**16
        ("a" * (SLICE - 1) + "€" + "\U0001f600" + "b" * 10,),
        ("é" * (2 * SLICE + 3),),
        ("x" * (SLICE - 1) + "€", "\n"),  # the pair history.json is written as
        ("first,é\n" * 10_000, "", "second\n" * 20_000),
    ],
)
def test_write_gives_the_utf8_bytes_of_the_joined_texts(tmp_path, texts):
    path = tmp_path / "file.txt"
    path.write_bytes(b"old contents, longer than some of the new ones" * 5_000)
    cli._write(path, *texts)
    assert path.read_bytes() == "".join(texts).encode("utf-8")


def test_write_keeps_no_bytes_copy_of_the_whole_text(tmp_path):
    text = "0123456789abcde\n" * 2**16  # 1 MiB
    _, peak = traced_peak(cli._write, tmp_path / "big.txt", text)
    # one slice as a str and as bytes, plus the file's buffer; a whole-file encode is 1 MiB
    assert peak < 4 * SLICE
    assert (tmp_path / "big.txt").read_bytes() == text.encode("utf-8")


def test_write_fails_naming_the_out_field(tmp_path):
    with pytest.raises(cli.ConfigError, match=r"^out: cannot write "):
        cli._write(tmp_path, "text")  # a directory in the file's place


def test_rates_csv_peaks_near_its_text():
    space = build_space([(f"d{m}", [f"l{j}" for j in range(10)]) for m in range(4)])
    successes = np.random.default_rng(7).integers(0, 6, space.cardinality)
    report = EvaluationReport(space, successes, 5)
    labels = {space.shape: label_column(space.shape)}  # shared by a history's reports
    text, peak = traced_peak(report.to_csv, labels)
    assert text == report.to_csv()
    # The text plus one list of row parts (two pointers a row, about the size of the
    # text here): 2x.  A stack of the rows, its list, the body and the header joined
    # to it reach 3x.
    assert peak < 2.5 * len(text)
