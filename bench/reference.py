"""Fixed compute work, timed between the benchmark's CLI calls.

The shared machine's speed drifts by up to 2x over minutes.  The benchmark
runs this script in a fresh interpreter every few seconds of a run, next to
a bare ``import numpy``, and scales the run's timings by these two
references (see ``run.py``), so they read as seconds at one fixed machine
speed.  It mirrors the hot path of long CLI calls: dict updates keyed by
tuples of bit-strings, string slicing and complex arithmetic.  It imports
nothing from the program, so no change to the program can move it.
"""

import math

amps = {}
for j in range(60_000):
    key = (format(j & 511, "09b"), format((j >> 3) & 511, "09b"))
    flipped = (key[0][:4] + ("1" if key[0][4] == "0" else "0") + key[0][5:], key[1])
    amps[flipped] = amps.get(flipped, 0j) + complex(math.sqrt(0.5), 0.0) * (j % 7)
sorted(amps.items())
