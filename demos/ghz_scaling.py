"""Exhaustive verification at growing photon number.

For N photons there are 4^N hyperentangled GHZ-class inputs.  The QND stage
can only ever produce 4^(N-1) distinct probe signatures, so completeness
hinges on the detector parities separating the four states inside every
signature group.  This script verifies the whole map by enumeration,
walking every detector branch symbolically one degree of freedom at a time,
and reports the group counts.

Run:  python demos/ghz_scaling.py
"""

import time

from hypersa import verify_complete

for n in (2, 3, 4, 5):
    start = time.perf_counter()
    report = verify_complete(n)
    elapsed = time.perf_counter() - start
    branches = sum(check.branches for check in report.per_state)
    print(f"n={n}: {report.correct}/{report.total_states} correct, "
          f"{report.group_count} signature groups "
          f"(expected {4 ** (n - 1)}), {branches} detector branches covered, "
          f"{elapsed:.2f}s")

# Each group holds exactly four states: same bits, the four sign pairs.
report = verify_complete(3)
by_signature = {}
for check in report.per_state:
    by_signature.setdefault(check.signature, []).append(check.label)
sizes = {len(v) for v in by_signature.values()}
print(f"\nn=3 group sizes: {sizes} (every signature group has four members)")
example = min(by_signature)
print(f"example group {example}:")
for member in by_signature[example]:
    print("  ", member)
