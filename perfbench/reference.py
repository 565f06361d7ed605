"""Fixed reference work that gauges the machine's current speed.

    python perfbench/reference.py

The benchmark runs this next to every set-up sample and reports untraced
times scaled by REFERENCE_S / (the median time of this script in the
same run).  A shared machine drifts by tens of percent within minutes,
and the scaling removes most of that drift.  The work resembles the
program's: a fresh interpreter that imports numpy, like every CLI start;
a little small-array numpy work, like the sampler; bit tests over a
million masks, like the exhaustive sweep; and mostly pure-Python graph
search over dicts, sets and tuples, like the checker.
It imports nothing from bergesat, so no change to the program moves it.
"""

from itertools import combinations

import numpy as np

rng = np.random.default_rng(0)
points = np.repeat(np.arange(36), 4)
for _ in range(300):
    trip = np.sort(rng.permutation(points).reshape(-1, 3), axis=1)
    np.unique(trip[:, 0] * 40 + trip[:, 1], return_inverse=True, return_counts=True)

# bit tests over a million masks, like the exhaustive sweep
masks = np.arange(1 << 20, dtype=np.uint64)
code = np.zeros(len(masks), dtype=np.uint32)
for bit in range(10):
    code |= ((masks >> np.uint64(bit)) & np.uint64(1)).astype(np.uint32) << bit

# reachability avoiding one vertex, for the triples through vertices 0-3
adj = {v: [(v * 7 + k) % 60 for k in range(1, 5)] for v in range(60)}
reached = 0
for a, b, c in combinations(range(60), 3):
    if a > 3:
        break
    seen = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen and w != b:
                seen.add(w)
                stack.append(w)
    reached += c in seen
