"""Every run of the equivalence matrix reproduces its committed record.

A failure here means a change moved a pick, a count, an accuracy or a
parameter bit of a small end-to-end run. If that is intended, regenerate
the record (see ``equivalence_record.py``) and list each changed run,
with its reason, in CHANGES.md.
"""

import json

import pytest

import equivalence_record as er

RECORD = json.loads(er.RECORD_PATH.read_text())
RECORDED_ON = RECORD.pop("blas_core")


def test_record_covers_the_matrix():
    assert sorted(RECORD) == sorted(er.MATRIX)
    assert len(RECORD) >= 35


@pytest.mark.parametrize("run_id", list(er.MATRIX))
def test_run_matches_record(run_id):
    assert er.run_one(er.MATRIX[run_id]) == RECORD[run_id], (
        f"recorded on OpenBLAS core {RECORDED_ON}, run on {er.blas_cores()}"
    )
