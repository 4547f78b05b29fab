"""Build CI test histories three ways and inspect them.

Run:  python demos/01_build_and_inspect_histories.py
"""

import io

import numpy as np

from testprio import (
    Cycle,
    SyntheticSpec,
    average_suite_duration,
    dataset_stats,
    generate_synthetic,
    parse_canonical,
    slice_recent,
    validate_history,
)
from testprio.domain import DEFAULT_FRACTIONS

# 1. By hand: three cycles of two tests.  validate_history checks the
#    invariants (strictly increasing cycle ids, positive durations, no
#    duplicate test per cycle) and fills the mean-duration registry.
#    A cycle is three parallel columns: test ids, failed flags, durations.
cycles = []
for cid, login_failed in enumerate([True, True, False]):
    cycles.append(Cycle(cid, ("login_test", "search_test"),
                        failed=np.array([login_failed, False]),
                        duration_s=np.array([3.0 + cid, 1.5])))
history = validate_history(cycles)
print("hand-built registry (mean durations):", history.registry)

# 2. From the canonical CSV format.
csv_text = """cycle_id,test_id,verdict,duration_s
0,checkout_test,fail,2.5
0,login_test,pass,3.0
1,checkout_test,pass,2.4
1,login_test,pass,3.1
"""
parsed = parse_canonical(io.BytesIO(csv_text.encode()))
print("parsed:", dataset_stats(parsed))

# 3. Synthetic: 30 tests x 100 cycles with persistent failures.  Same
#    (spec, seed) always regenerates the identical history.
spec = SyntheticSpec(n_tests=30, n_cycles=100, base_failure_prob=0.3,
                     persistence=0.9, flip_prob=0.02)
synthetic = generate_synthetic(spec, seed=42)
print("synthetic:", dataset_stats(synthetic))

# History windows and budgets drive the replay experiments: H1 is the most
# recent 20% of cycles, B5 the average time to run one full cycle.
window = slice_recent(synthetic, 0.2)
print(f"H1 window covers cycles [{window.lo}, {window.hi}) of {synthetic.n_cycles}")
b5 = average_suite_duration(synthetic)
print("budget schedule B1..B5:", [round(f * b5, 2) for f in DEFAULT_FRACTIONS])
