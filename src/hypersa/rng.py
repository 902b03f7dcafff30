"""Seeds, named random streams and the one weighted draw.

A stream is ``random.Random(f"{seed}:{name}")``, the Mersenne Twister
(Matsumoto & Nishimura 1998).  ``random`` hashes a string seed with SHA-512,
so a stream draws the same numbers on every Python version and under any
``PYTHONHASHSEED``.  Copies and pickles continue from where it is.
"""

from __future__ import annotations

import random

from .states import _checked_int


def stream(seed: int, name: str) -> random.Random:
    """Named child stream, ``random.Random(f"{seed}:{name}")``: all
    randomness flows from one seed, split by purpose ("probe:alpha1",
    "detection", ...) so streams never collide."""
    seed = _checked_int("seed", seed, "an integer >= 0", 0)
    return random.Random(f"{seed}:{name}")


def pick(weighted, rng):
    """Inverse-CDF draw from ``(item, weight)`` pairs: the first pair whose
    running weight sum exceeds one ``rng.random()``, or the last pair when
    float rounding leaves the sum short of the draw.  Every draw of the
    package is one ``pick``: ``rng`` is anything with a ``random()`` method,
    such as ``stream(seed, name)``, and anything else raises ValueError."""
    if not hasattr(rng, "random"):
        raise ValueError(f"a draw requires a generator, such as stream(seed, name), got {rng!r}")
    u, acc, pair = rng.random(), 0.0, None
    for pair in weighted:
        acc += pair[1]
        if u < acc:
            break
    if pair is None:
        raise ValueError("nothing to draw from: the distribution is empty")
    return pair
