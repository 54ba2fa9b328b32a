"""Extended-real arithmetic and the undefined-value marker.

Metrics and cost bounds can be undefined (0/0) or infinite (x/0). Undefined
values are carried as NaN markers, never raised as exceptions; exceptions are
reserved for structural errors. All corner-case rules are written out here so
they can be tested in one place. ``column_sums`` and ``column_medians`` are
here for the same reason: each one's bit-for-bit contract with numpy has one
reference test.
"""

from __future__ import annotations

import math

import numpy as np

UNDEFINED = math.nan
INF = math.inf


def safe_div(num: float, den: float) -> float:
    """Division on the extended reals: 0/0 -> undefined, x/0 -> signed infinity."""
    if den == 0:
        if num == 0:
            return UNDEFINED
        return INF if num > 0 else -INF
    return num / den


def ext_sub(a: float, b: float) -> float:
    """a - b on the extended reals, which IEEE 754 subtraction already is:

    undefined propagates; inf - inf and (-inf) - (-inf) are undefined;
    inf - finite = finite - (-inf) = +inf; -inf - finite = finite - inf = -inf.
    """
    return a - b


def json_number(x: float):
    """Undefined -> None for JSON, infinities -> the sentinel strings of
    json_extended; integral floats stay numeric."""
    if math.isnan(x):
        return None
    return json_extended(x)


def json_extended(x: float):
    """Extended real for JSON with sentinel strings for non-finite values."""
    if math.isnan(x):
        return "nan"
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return x


def parse_extended(v) -> float:
    """Inverse of json_extended and json_number: a number, None or a sentinel
    string; ValueError for any other string."""
    if isinstance(v, str) and v not in ("nan", "inf", "-inf"):
        raise ValueError(f"{v!r} is not a sentinel")
    return UNDEFINED if v is None else float(v)


def fmt_float(x) -> str:
    """Shortest round-trip text form, '-0' for -0.0; 'nan'/'inf'/'-inf' for non-finite."""
    xf = float(x)
    if math.isfinite(xf) and xf.is_integer() and abs(xf) < 1e15:
        return str(int(xf)) if xf or math.copysign(1.0, xf) > 0 else "-0"
    return repr(xf)


def column_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-2)`` bit for bit, and several times faster on C-ordered
    arrays with at least 2 columns: there numpy adds the rows one after
    another, as einsum does without the reduction's buffered loop. numpy sums
    a single contiguous column pairwise and other layouts in other orders, so
    those go to ``sum``."""
    if a.ndim >= 2 and a.shape[-1] >= 2 and a.flags.c_contiguous:
        return np.einsum("...ij->...j", a)
    return a.sum(axis=-2)


def column_medians(X: np.ndarray, part: np.ndarray | None = None) -> np.ndarray:
    """``np.median(X, axis=0)`` bit for bit from one partition of each column,
    copied contiguous, at the upper middle: the lower middle of an even count
    is the largest value below it, and a column holding NaN, which partitions
    last, has median NaN. Unlike np.median it needs no third partition index
    for a NaN check and does not import numpy.ma. The columns are copied into
    ``part``, a C-ordered array shaped like ``X.T``, when one is given."""
    n = len(X)
    if n == 0:
        return np.full(X.shape[1], np.nan)
    half = n // 2
    if part is None:
        part = X.T.copy()
    else:
        np.copyto(part, X.T)
    part.partition(half, axis=1)
    upper = part[:, half:]
    median = upper[:, 0] if n % 2 else (part[:, :half].max(axis=1) + upper[:, 0]) / 2.0
    return np.where(np.isnan(upper.max(axis=1)), np.nan, median)
