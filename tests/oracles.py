"""Reference implementations the tests compare the program against.

They compute one test's features by walking the window cycle by cycle, the
direct reading of the feature definitions in ``testprio.features``; the
program computes every test at once from window matrices.
"""

from __future__ import annotations

import numpy as np

from testprio.domain import HistoryWindow
from testprio.errors import AlphaOutOfRange, UnknownTest
from testprio.features import FeatureConfig


def recency_failure_score(failed_most_recent_first: list[bool], alpha: float) -> float:
    """Sum of alpha**j over failing verdicts, j = 0 for the most recent."""
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1), got {alpha}")
    return float(sum(alpha ** j for j, f in enumerate(failed_most_recent_first) if f))


def build_feature_vector(window: HistoryWindow, test_id: str, cfg: FeatureConfig,
                         as_of_cycle: int) -> np.ndarray:
    """Features of one test as of position ``as_of_cycle`` in the source
    history (must lie inside the window or one past its end); only cycles
    strictly before it contribute.
    """
    if not (window.lo <= as_of_cycle <= window.hi):
        raise ValueError(
            f"as_of_cycle {as_of_cycle} outside window [{window.lo}, {window.hi}]"
        )
    registry = window.source.registry
    if test_id not in registry:
        raise UnknownTest(test_id)

    F = cfg.verdict_window
    values = np.zeros(cfg.dimension)
    past = window.source.cycles[window.lo : as_of_cycle]

    present = 0
    fails = 0
    recency = 0.0
    # chronological Horner recurrence, bit-identical to the vectorized path
    for j, cyc in enumerate(past):
        failed_here = 0.0
        try:
            pos = cyc.test_ids.index(test_id)
        except ValueError:
            pos = -1
        if pos >= 0:
            present += 1
            if cyc.failed[pos]:
                failed_here = 1.0
                fails += 1
                dist = len(past) - 1 - j
                if dist < F:
                    values[dist] = 1.0
        recency = cfg.decay * recency + failed_here
    if past:
        values[F] = present / len(past)
        values[F + 1] = fails / present if present else 0.0
        values[F + 2] = recency
    values[F + 3] = registry[test_id] / max(registry.values())
    return values
