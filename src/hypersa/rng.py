"""Seeds and named random streams.

A stream draws what numpy's ``Generator`` on ``PCG64(SeedSequence(entropy=
seed, spawn_key=key))`` draws.  Scalar ``random()`` calls, the only draws
``analyze`` makes, come from a pure-Python copy of numpy's ``SeedSequence``
hash and of PCG64 (O'Neill 2014, XSL-RR output), so a process that draws
only scalars never loads numpy.  Array draws (``montecarlo`` and the
gaussian ``verify`` noise study) build the numpy generator, which takes
over the stream's state.  The ideal verifier and the table emitters draw
nothing.
"""

from __future__ import annotations

import operator
from itertools import cycle, islice
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

#: What a sampling function takes as its seed.
Seed = Union[int, "np.random.Generator", "Stream"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
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
    """A numpy ``Generator`` seeded by ``SeedSequence(entropy=seed,
    spawn_key=key)``, without numpy until an array is drawn.

    ``random()`` with no arguments steps a pure-Python PCG64.  Any other
    attribute builds the numpy generator on that seed, hands it the current
    PCG64 state and forwards to it; from then on every draw, scalars
    included, goes to numpy.  Such a lookup builds it, ``hasattr`` included,
    so code that only passes a stream on must not probe it."""

    __slots__ = ("_seed", "_key", "_pcg", "_rng")

    def __init__(self, seed: int, key: tuple[int, ...]):
        if seed < 0:
            raise ValueError(f"expected a non-negative seed, got {seed}")
        self._seed, self._key, self._pcg, self._rng = seed, key, None, None

    def random(self, *args, **kwargs):
        """A uniform double in [0, 1), or numpy's ``Generator.random``."""
        if args or kwargs or self._rng is not None:
            return self._generator().random(*args, **kwargs)
        state, inc = self._pcg or _pcg64_seed(self._seed, self._key)
        state = (state * _PCG_MULT + inc) & _M128
        self._pcg = state, inc
        rot = state >> 122
        word = (state >> 64 ^ state) & _M64
        word = (word >> rot | word << (64 - rot)) & _M64
        return (word >> 11) * 2.0 ** -53

    def _generator(self):
        if self._rng is None:
            import numpy as np
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=self._key))
            if self._pcg is not None:
                state, inc = self._pcg
                rng.bit_generator.state = {
                    "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
            self._rng = rng
        return self._rng

    def __getattr__(self, name: str):  # reached only for names not in slots
        if name.startswith("__"):  # copy and pickle probe for hooks; build nothing
            raise AttributeError(name)
        return getattr(self._generator(), name)


def as_generator(seed: Seed | None):
    """The one seed-to-generator rule: ``None`` and a :class:`Stream` pass
    through unbuilt, an int or numpy integer becomes the stream that
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
