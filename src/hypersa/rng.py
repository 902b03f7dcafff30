"""Seeds and named random streams; numpy is imported on the first draw.

The ideal verifier and the table emitters draw nothing, so a process that
runs only them never loads numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

#: What a sampling function takes as its seed.
Seed = Union[int, "np.random.Generator", "Stream"]


class Stream:
    """A numpy ``Generator`` seeded by ``SeedSequence(entropy=seed,
    spawn_key=key)``, built on first use; every attribute is forwarded to
    it.  Any lookup builds it, ``hasattr`` included, so code that only
    passes a stream on must not probe it."""

    __slots__ = ("_seed", "_key", "_rng")

    def __init__(self, seed: int, key: tuple[int, ...]):
        self._seed, self._key, self._rng = seed, key, None

    def __getattr__(self, name: str):  # reached only for names not in slots
        if name.startswith("__"):  # copy and pickle probe for hooks; build nothing
            raise AttributeError(name)
        if self._rng is None:
            import numpy as np
            self._rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=self._key))
        return getattr(self._rng, name)


def as_generator(seed: Seed | None):
    """The one seed-to-generator rule: ``None`` and a :class:`Stream` pass
    through unbuilt, a ``Generator`` as it is, and an int or numpy integer
    seeds ``numpy.random.default_rng``."""
    if seed is None or isinstance(seed, Stream):
        return seed
    import numpy as np
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
