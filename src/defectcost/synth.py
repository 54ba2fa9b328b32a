"""Synthetic corpus generator.

Produces releases whose artifact sizes follow a log-normal distribution (a
small share of very large files carries most of the code volume, as in real
release data) and whose defective artifacts have their feature vectors shifted
by a configurable signal strength, so downstream learnability is controllable:
signal 0 yields AUC ~ 0.5, large signals make the classes separable.

Defects get footprints of 1-3 artifacts to exercise the n-to-m defect/artifact
mapping, and every defect carries a fix timestamp after its release date so
the temporal-leakage rules of the cross-project experiment can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .dataset import Defect, Release

MAX_DEFECT_FOOTPRINT = 3  # artifacts per defect, at most
FIX_DELAY_DAYS = (10, 400)  # days from a release to the fix of one of its defects
FEATURE_BASE = 3.0  # mean of every feature before the defective artifacts get the signal
START = datetime(2015, 1, 1, tzinfo=timezone.utc)  # every project's first release falls within 120 days of it


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic corpus: projects, releases, artifact and defect counts, size
    distribution, feature signal, defect footprints and the release and fix calendar."""

    n_projects: int = 10
    releases_per_project: int = 5
    artifacts_range: tuple[int, int] = (150, 250)
    defect_ratio_range: tuple[float, float] = (0.05, 0.15)
    size_log_mean: float = 4.0
    size_log_sigma: float = 1.0
    n_features: int = 8
    signal: float = 1.0
    release_gap_days: tuple[int, int] = (120, 260)

    def validate(self) -> None:
        if self.n_projects < 1 or self.releases_per_project < 1:
            raise ValueError("need at least one project and one release per project")
        lo, hi = self.artifacts_range
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid artifacts_range {self.artifacts_range}")
        rlo, rhi = self.defect_ratio_range
        if not (0.0 < rlo <= rhi < 1.0):
            raise ValueError(f"invalid defect_ratio_range {self.defect_ratio_range}")
        if not np.all(np.isfinite([self.size_log_mean, self.size_log_sigma, self.signal])):
            raise ValueError("size_log_mean, size_log_sigma and signal must be finite")
        if self.size_log_sigma < 0 or self.n_features < 1:
            raise ValueError("size_log_sigma must be >= 0 and n_features >= 1")
        glo, ghi = self.release_gap_days
        if not (1 <= glo <= ghi):
            raise ValueError(f"invalid release_gap_days {self.release_gap_days}")


def _generate_release(spec: SynthSpec, project: str, release_id: str,
                      released_at: datetime, rng: np.random.Generator) -> Release:
    lo, hi = spec.artifacts_range
    n = int(rng.integers(lo, hi + 1))
    with np.errstate(over="ignore"):
        sizes = np.rint(np.exp(rng.normal(spec.size_log_mean, spec.size_log_sigma, size=n)))
    if not np.all(sizes < 2.0**63):
        raise ValueError("an artifact size draw overflows int64; lower size_log_mean or size_log_sigma")
    sizes = np.maximum(sizes.astype(np.int64), 1)

    ratio = float(rng.uniform(*spec.defect_ratio_range))
    target_defective = max(1, int(round(ratio * n)))

    # grow the defect set until enough distinct artifacts are covered
    defects: list[Defect] = []
    covered: set[int] = set()
    flo, fhi = FIX_DELAY_DAYS
    k = 0
    while len(covered) < target_defective:
        remaining = target_defective - len(covered)
        foot_n = int(rng.integers(1, min(MAX_DEFECT_FOOTPRINT, max(remaining, 1)) + 1))
        fresh = rng.choice(np.array(sorted(set(range(n)) - covered)), size=foot_n, replace=False)
        footprint = set(int(i) for i in fresh)
        # occasionally include an already-defective artifact: n-to-m mapping
        if covered and foot_n > 1 and rng.random() < 0.3:
            footprint.discard(int(fresh[0]))
            footprint.add(int(rng.choice(np.array(sorted(covered)))))
        covered.update(footprint)
        fixed_at = released_at + timedelta(days=int(rng.integers(flo, fhi + 1)))
        defects.append(Defect(id=f"d{k:03d}", artifacts=frozenset(f"f{i:04d}" for i in footprint), fixed_at=fixed_at))
        k += 1

    base = rng.normal(FEATURE_BASE, 1.0, size=(n, spec.n_features))
    shift = np.zeros(n)
    shift[sorted(covered)] = spec.signal
    features = np.maximum(base + shift[:, None], 0.0)  # static metrics are non-negative

    ids = tuple(f"f{i:04d}" for i in range(n))
    return Release(project, release_id, released_at, ids, sizes, features, tuple(defects))


def generate_synthetic(spec: SynthSpec, seed: int) -> list[Release]:
    """Deterministic synthetic corpus: one RNG stream per (project, release)."""
    spec.validate()
    releases = []
    glo, ghi = spec.release_gap_days
    for p in range(spec.n_projects):
        project = f"proj{p:02d}"
        date_rng = np.random.default_rng(np.random.SeedSequence([seed, p, 0xDA7E]))
        released_at = START + timedelta(days=int(date_rng.integers(0, 120)))
        for r in range(spec.releases_per_project):
            rng = np.random.default_rng(np.random.SeedSequence([seed, p, r]))
            releases.append(_generate_release(spec, project, f"r{r}", released_at, rng))
            released_at = released_at + timedelta(days=int(date_rng.integers(glo, ghi + 1)))
    return releases
