"""Shared test oracles and the hypothesis profiles."""

import os
from dataclasses import replace

import numpy as np
from hypothesis import settings

from motr.oracles import AnalyticOracle, AnalyticProblem, NoiseSpec

# The properties draw the same examples on every run, so two runs of one
# commit give the same verdict. HYPOTHESIS_PROFILE=explore searches afresh.
settings.register_profile("repeatable", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repeatable"))


class PoisonedOracle(AnalyticOracle):
    """Noisy test1, except that every sample taken at a point where
    ``is_bad`` (rows of a (B, n) stack -> (B,) bool) holds has NaN values."""

    def __init__(self, is_bad, noise=NoiseSpec(sigma=0.1, bounded=True)):
        super().__init__(AnalyticProblem("test1"), noise)
        self.is_bad = is_bad

    @classmethod
    def at(cls, point, **kwargs):
        point = np.asarray(point, dtype=float)
        return cls(lambda X: np.all(X == point, axis=1), **kwargs)

    def evaluate_batch(self, X, deltas, alpha, rngs, rows, need_hessians=False):
        batch = super().evaluate_batch(X, deltas, alpha, rngs, rows, need_hessians)
        values = batch.values.copy()
        values[self.is_bad(np.asarray(X))] = np.nan
        return replace(batch, values=values)
