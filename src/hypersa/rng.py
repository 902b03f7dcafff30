"""Seeds and named random streams, in pure Python.

A :class:`Stream` draws what numpy's ``Generator`` on ``PCG64(SeedSequence(
entropy=seed, spawn_key=key))`` draws, without numpy: it copies the
``SeedSequence`` hash, PCG64 (O'Neill 2014, XSL-RR output) and the
``random`` and ``integers`` rules of ``Generator``, the latter Lemire's
(2019, "Fast random integer generation in an interval").  So no command
loads numpy: ``analyze`` draws scalars, ``montecarlo`` and the gaussian
``verify`` noise study draw lists, the ideal verifier and the tables draw
nothing.  A caller's own ``numpy.random.Generator`` is accepted as a seed.
"""

from __future__ import annotations

import operator
from itertools import cycle, islice
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

#: What a sampling function takes as its seed.
Seed = Union[int, "np.random.Generator", "Stream"]

_M32, _M53, _M64, _M128 = ((1 << b) - 1 for b in (32, 53, 64, 128))
_ULP = 2.0 ** -53  # takes a 53-bit int to a double in [0, 1)
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, ``[0]`` for 0."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's 32-bit ``hashmix``, whose constant steps on each call."""
    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    result = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return result ^ result >> 16


def _seed_sequence_state(seed: int, key: tuple[int, ...]) -> list[int]:
    """``SeedSequence(entropy=seed, spawn_key=key).generate_state(4, uint64)``."""
    entropy = _words(seed)
    spawn = [w for k in key for w in _words(k)]
    if spawn:
        entropy += [0] * (_POOL - len(entropy))
    entropy += spawn
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(value))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), islice(cycle(pool), 8)))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64_seed(seed: int, key: tuple[int, ...]) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` after numpy seeds it (``srandom``)."""
    s0, s1, i0, i1 = _seed_sequence_state(seed, key)
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    state = (inc + (s0 << 64 | s1)) & _M128
    return (state * _PCG_MULT + inc) & _M128, inc


class Stream:
    """What numpy's ``Generator`` on ``PCG64(SeedSequence(entropy=seed,
    spawn_key=key))`` draws, for the draws the package makes.  The seed is
    hashed on the first draw, so a stream that is never drawn costs
    nothing.  It copies and pickles with its state."""

    __slots__ = ("_seed", "_key", "_pcg", "_half")

    def __init__(self, seed: int, key: tuple[int, ...]):
        if seed < 0:
            raise ValueError(f"expected a non-negative seed, got {seed}")
        # _half: the unused high half of a word integers() split (numpy's uinteger)
        self._seed, self._key, self._pcg, self._half = seed, key, None, None

    def random(self, count: int | None = None):
        """A uniform double in [0, 1), or a list of ``count`` of them
        (``Generator.random(count)``): one PCG64 step each, top 53 bits."""
        state, inc = self._pcg or _pcg64_seed(self._seed, self._key)
        out = []
        for _ in range(1 if count is None else count):
            state = (state * _PCG_MULT + inc) & _M128
            word = (state >> 64 ^ state) & _M64
            # rotate right by the top 6 state bits, keep the top 53 bits
            out.append((((word << 64 | word) >> (state >> 122) + 11) & _M53) * _ULP)
        self._pcg = state, inc
        return out[0] if count is None else out

    def integers(self, low: int, high: int, count: int) -> list[int]:
        """``count`` ints uniform in [low, high), as ``Generator.integers``
        draws them (int64) for a width up to 2**32: Lemire's multiply-shift
        with rejection over 32-bit halves of PCG64 words, low half first.
        A width of 1 draws nothing."""
        width = high - low
        if not 1 <= width <= 1 << 32:
            raise ValueError(f"expected 1 <= high - low <= 2**32, got {width}")
        if width == 1:
            return [low] * count
        state, inc = self._pcg or _pcg64_seed(self._seed, self._key)
        half, threshold, out = self._half, (1 << 32) % width, []
        for _ in range(count):
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    word = (state >> 64 ^ state) & _M64
                    word = ((word << 64 | word) >> (state >> 122)) & _M64
                    u, half = word & _M32, word >> 32
                else:
                    u, half = half, None
                if (scaled := u * width) & _M32 >= threshold:
                    break
            out.append(low + (scaled >> 32))
        self._pcg, self._half = (state, inc), half
        return out


def as_generator(seed: Seed | None):
    """The one seed-to-generator rule: ``None`` and a :class:`Stream` pass
    through, an int or numpy integer becomes the stream that
    ``numpy.random.default_rng(seed)`` stands for (``SeedSequence(seed)``,
    empty spawn key), and a ``Generator`` passes as it is; anything else
    goes to ``default_rng``."""
    if seed is None or isinstance(seed, Stream):
        return seed
    try:
        index = operator.index(seed)
    except TypeError:  # only numpy makes a Generator, so it is loaded already
        import numpy as np
        return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return Stream(index, ())
