"""The product-basis detection stage.

Detection projects onto the per-photon {H,V} x {path 1, path 2} product
basis.  The wave plates and beam splitters before it are
:func:`hypersa.states.apply_gate`, the Hadamard on polarization or path.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .rng import pick
from .states import NORM_TOL, PhotonState


class PhotonRecord(NamedTuple):
    """Detection record for one photon: its index, which spatial-mode
    detector fired (1 or 2), and the polarization it saw (H or V)."""

    photon: int
    mode: int
    pol: str


class DetectorOutcome(NamedTuple):
    """A full coincidence event: one record per photon, with its
    probability under the measured state."""

    records: tuple[PhotonRecord, ...]
    probability: float


@functools.cache
def _records(n: int) -> tuple[dict[tuple[str, str], PhotonRecord], ...]:
    """Photon i's record for each (polarization, spatial) bit pair, i < n."""
    return tuple({(p, s): PhotonRecord(i, int(s) + 1, "H" if p == "0" else "V")
                  for p in "01" for s in "01"} for i in range(n))


def detection_distribution(state: PhotonState) -> list[DetectorOutcome]:
    """Full support of the product-basis measurement, exact probabilities.

    The input must be normalized within 1e-10.  Outcomes are ordered
    lexicographically on the per-photon (mode, polarization) records so
    output is stable across runs.
    """
    # per-photon (spatial, polarization) bits sort as the (mode, pol) records
    items = sorted(state._amps.items(),
                   key=lambda item: "".join(map(str.__add__, item[0].spa_bits,
                                                item[0].pol_bits)))
    total = sum(abs(a) ** 2 for _, a in items)
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized (sum of probabilities {total!r})")
    table = _records(state.n_photons)
    outcomes = []
    for (pol, spa), amp in items:
        records = tuple(map(dict.__getitem__, table, zip(pol, spa)))
        outcomes.append(DetectorOutcome(records, abs(amp) ** 2))
    return outcomes


def sample_outcome(state: PhotonState, rng) -> DetectorOutcome:
    """One detection event, a :func:`~hypersa.rng.pick` from ``rng``."""
    return pick(((o, o.probability) for o in detection_distribution(state)), rng)[0]


def photon_name(index: int) -> str:
    """Display name for a photon index: A, B, C, ..."""
    return chr(ord("A") + index)


def outcome_tokens(outcome: DetectorOutcome) -> str:
    """Token string like ``A1+ B2-`` (+ is H, - is V; digit is the path)."""
    return " ".join(
        f"{photon_name(r.photon)}{r.mode}{'+' if r.pol == 'H' else '-'}"
        for r in outcome.records)


def outcome_json(outcome: DetectorOutcome) -> list[dict]:
    """JSON-ready array form: [{"photon": "A", "mode": 1, "pol": "H"}, ...]."""
    return [{"photon": photon_name(r.photon), "mode": r.mode, "pol": r.pol}
            for r in outcome.records]
