"""Extended reals (nan, inf, -inf) survive a round trip through both record
formats in every numeric column."""

import math

import numpy as np
import pytest

from defectcost.analysis import records_matrix
from defectcost.experiments import CSV_COLUMNS, read_records, write_records_csv, write_records_jsonl

from conftest import make_record

NUMERIC_COLUMNS = CSV_COLUMNS[6:-1]  # 20 metrics, 10 confounders, lower, upper, diff
SPECIAL_VALUES = (math.nan, math.inf, -math.inf)
WRITERS = {".csv": write_records_csv, ".jsonl": write_records_jsonl}


@pytest.fixture(scope="module")
def records():
    return [make_record(sample=i, **{column: value})
            for i, (column, value) in enumerate((c, v) for c in NUMERIC_COLUMNS for v in SPECIAL_VALUES)]


def bits(X):
    """The float64 bit patterns of X, every NaN made the same NaN."""
    return np.where(np.isnan(X), np.nan, X).view(np.uint64)


@pytest.mark.parametrize("suffix", sorted(WRITERS))
def test_extended_reals_round_trip(records, suffix, tmp_path):
    assert len(NUMERIC_COLUMNS) == 33 and len(records) == 99
    back = read_records(WRITERS[suffix](records, tmp_path / f"records{suffix}"))
    assert len(back) == len(records)
    X, y = records_matrix(records)
    X_back, y_back = records_matrix(back)
    assert np.array_equal(bits(X_back), bits(X))
    assert np.array_equal(y_back, y)
    # fmt_float and the JSON codecs write each float of these records in a
    # form no other float shares (repr), so equal bytes after writing the
    # read records again mean bitwise-equal values in all 33 columns, the
    # bounds included, and equal identity and potential
    for other, write in WRITERS.items():
        expected = write(records, tmp_path / f"expected{other}").read_bytes()
        assert write(back, tmp_path / f"again{other}").read_bytes() == expected
