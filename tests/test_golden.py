"""Every row of the golden corpus writes the bytes it wrote when the table was made.

Where this environment's fingerprint (numpy version, BLAS, CPU
architecture) is the table's, each output file and stdout must match its
SHA-256.  In every environment the decoded values must lie within the
table's relative bound of the stored files, and stdout must match with
its numbers masked: the iteration counts and step norms it prints are
the first figures another summation order moves.  See ``golden.py``.
"""

import json

import numpy as np
import pytest

import golden

TABLE = json.loads(golden.TABLE.read_text(encoding="utf-8"))
ROWS = {row["name"]: row for row in TABLE["rows"]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, {row["name"]: row for row in golden.run_rows(workdir)}


def test_table_lists_every_row_in_order():
    assert [(row["name"], row["argv"]) for row in TABLE["rows"]] == [
        (name, list(argv)) for name, argv in golden.ROWS]
    assert TABLE["rel_bound"] == golden.REL_BOUND


@pytest.mark.parametrize("name", list(ROWS))
def test_row_reproduces_its_outputs(results, name):
    workdir, ran = results
    want, got = ROWS[name], ran[name]
    same_environment = TABLE["fingerprint"] == golden.fingerprint()
    assert got["exit_code"] == want["exit_code"] == 0
    assert golden.mask_numbers(got["stdout"]) == golden.mask_numbers(want["stdout"])
    if same_environment:
        assert golden.sha256(got["stdout"].encode("utf-8")) == want["stdout_sha256"]
    for file_name, digest in want["outputs"].items():
        stored = (golden.EXPECTED / file_name).read_bytes()
        written = (workdir / file_name).read_bytes()
        assert golden.sha256(stored) == digest, f"{file_name}: stored file is not the table's"
        if same_environment:
            assert golden.sha256(written) == digest, f"{file_name}: bytes changed"
        layout, values = golden.decode(file_name, written)
        want_layout, want_values = golden.decode(file_name, stored)
        assert layout == want_layout
        assert np.linalg.norm(values - want_values) <= (
            TABLE["rel_bound"] * np.linalg.norm(want_values)), file_name

