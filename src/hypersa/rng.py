"""Seeds and named random streams, from the standard library.

A :class:`Stream` draws what ``random.Random(f"{seed}:{name}")``, the
Mersenne Twister (Matsumoto & Nishimura 1998), draws.  ``random`` hashes a
string seed with SHA-512, so a stream draws the same numbers on every Python
version and under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import copy
import operator
import random
from typing import Union


class Stream:
    """The draws of ``random.Random(f"{seed}:{name}")``, seeded on the first
    draw, so a stream that is never drawn costs nothing.  Copies and pickles
    continue from where the stream is, apart from it."""

    __slots__ = ("_key", "_rng")

    def __init__(self, seed: int, name: str):
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"expected an integer seed, got {seed!r}") from None
        if seed < 0:
            raise ValueError(f"expected a non-negative seed, got {seed}")
        self._key, self._rng = f"{seed}:{name}", None

    def __copy__(self) -> Stream:  # a shallow copy would share the generator
        return copy.deepcopy(self)

    def _generator(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self._key)
        return self._rng

    def random(self, count: int | None = None):
        """A uniform double in [0, 1), or a list of ``count`` of them."""
        draw = self._generator().random
        return draw() if count is None else [draw() for _ in range(count)]

    def integers(self, low: int, high: int, count: int) -> list[int]:
        """``count`` ints ``low + randrange(high - low)``, for a width of 1 to
        2**32; a width of 1 draws nothing."""
        width = high - low
        if not 1 <= width <= 1 << 32:
            raise ValueError(f"expected 1 <= high - low <= 2**32, got {width}")
        if width == 1:
            return [low] * count
        below = self._generator().randrange
        return [low + below(width) for _ in range(count)]


#: A seed: an int, or a generator (anything with a ``random()`` method).
Seed = Union[int, Stream, random.Random]


def as_generator(seed: Seed | None):
    """The one seed-to-generator rule: ``None`` and a generator (a
    :class:`Stream`, a ``random.Random``, a numpy ``Generator``) pass
    through, and an int becomes the stream with the empty name."""
    if seed is None or hasattr(seed, "random"):
        return seed
    return Stream(seed, "")
