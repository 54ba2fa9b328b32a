"""Cost-bound model: predicted/missed defects, lower/upper bounds, diff, potential.

The bounds bracket the unknown cost ratio between a post-release defect and
quality assurance per size unit. A defect counts as predicted only when every
artifact it touches is predicted defective (n-to-m semantics); the lower bound
is the predicted quality-assurance effort per predicted defect, the upper
bound the saved effort per missed defect. Corner cases are values, not errors:
0/0 yields the undefined marker, x/0 a signed infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import compress

import numpy as np

from .extmath import ext_sub, safe_div
from .metrics import Prediction


class Potential(IntEnum):
    """Ordinal cost-saving potential from decadic-logarithmic diff bins."""

    NONE = 0
    MEDIUM = 1
    LARGE = 2
    EXTRA_LARGE = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @staticmethod
    def from_label(label: str) -> "Potential":
        """The level whose ``label`` is exactly ``label``: another case is unknown."""
        try:
            return _POTENTIAL_BY_LABEL[label]
        except KeyError:
            raise ValueError(f"unknown potential level {label!r}") from None


_POTENTIAL_BY_LABEL = {level.label: level for level in Potential}

DEFAULT_BOUNDARIES = (1000.0, 10000.0)


@dataclass(frozen=True)
class DefectOutcome:
    """The ids of the defects whose every artifact is predicted defective, and of the rest."""

    predicted: frozenset[str]
    missed: frozenset[str]


@dataclass(frozen=True)
class CostBounds:
    """The bounds on the cost ratio of one prediction, and ``diff = upper - lower``."""

    lower: float
    upper: float
    diff: float


def defect_outcome(pred: Prediction) -> DefectOutcome:
    """Partition the defects of the prediction's view into predicted and missed sets."""
    view = pred.view
    hit = view.per_defect(np.minimum, pred.labels)
    ids = [view.release.defects[j].id for j in view.defect_rows[2].tolist()]
    predicted = frozenset(compress(ids, hit.tolist()))
    missed = frozenset(ids) - predicted
    return DefectOutcome(predicted=predicted, missed=missed)


def cost_bounds(pred: Prediction) -> CostBounds:
    """lower = predicted size / |predicted defects|; upper = remaining size / |missed|."""
    view, labels = pred.view, pred.labels
    hit = view.per_defect(np.minimum, labels)
    n_predicted = int(np.count_nonzero(hit))
    lower = safe_div(float(view.sizes[labels].sum()), n_predicted)
    upper = safe_div(float(view.sizes[~labels].sum()), hit.size - n_predicted)
    return CostBounds(lower=lower, upper=upper, diff=ext_sub(upper, lower))


def diff_simplified(pred: Prediction) -> float:
    """diff' with tp/fn denominators instead of the defect-set sizes."""
    view, labels = pred.view, pred.labels
    tp = int(view.y[labels].sum())
    fn = int(view.y[~labels].sum())
    upper = safe_div(float(view.sizes[~labels].sum()), fn)
    return ext_sub(upper, safe_div(float(view.sizes[labels].sum()), tp))


def potential_levels(diff, boundaries: tuple[float, float] = DEFAULT_BOUNDARIES) -> np.ndarray:
    """The potential level of each diff as int64: none up to 0 and for NaN, medium
    up to b1, large up to b2, extra large above; boundaries need 0 < b1 < b2."""
    b1, b2 = boundaries
    if not (0 < b1 < b2):
        raise ValueError(f"boundaries must satisfy 0 < b1 < b2, got {boundaries}")
    diff = np.asarray(diff, dtype=np.float64)
    return (diff > 0).astype(np.int64) + (diff > b1) + (diff > b2)  # NaN compares false


def classify_potential(diff: float, boundaries: tuple[float, float] = DEFAULT_BOUNDARIES) -> Potential:
    """The ``Potential`` of one diff, binned by ``potential_levels``."""
    return Potential(int(potential_levels(diff, boundaries)))
