import math

import pytest
from hypothesis import given, strategies as st

from hypersa.kerr import JointState, homodyne_measure
from hypersa.optics import detection_distribution, sample_outcome
from hypersa.rng import pick, stream
from hypersa.states import BasisKet, PhotonState

# the largest double below 1, the highest uniform random() can return
TOP = 1 - 2 ** -53


class Scripted:
    """A generator whose ``random()`` returns one value, counting its draws."""

    def __init__(self, value: float):
        self.value, self.calls = value, 0

    def random(self) -> float:
        self.calls += 1
        return self.value


def running_sum_walk(pairs, u):
    """The index of the first pair whose running weight sum exceeds ``u``,
    or None when the sum never does."""
    acc = 0.0
    for i, (_, weight) in enumerate(pairs):
        acc += weight
        if u < acc:
            return i
    return None


class TestPick:
    @given(weights=st.lists(st.floats(0, 0.5), min_size=1, max_size=12),
           u=st.floats(0, 1, exclude_max=True))
    def test_pick_is_the_running_sum_walk(self, weights, u):
        pairs = [(f"item{i}", w) for i, w in enumerate(weights)]
        rng = Scripted(u)
        index = running_sum_walk(pairs, u)
        # a sum short of the draw, from float rounding or weights below 1,
        # falls back to the last pair
        assert pick(pairs, rng) == pairs[-1 if index is None else index]
        assert rng.calls == 1

    def test_an_empty_distribution_raises(self):
        # a joint state whose every branch was pruned has no magnitude class
        empty = JointState(1, ("alpha1",), {})
        for draw in (lambda: pick([], Scripted(0.5)),
                     lambda: homodyne_measure(empty, "alpha1", rng=stream(1, ""))):
            with pytest.raises(ValueError, match="distribution is empty"):
                draw()

    def test_sample_outcome_falls_back_to_the_last_outcome(self):
        # two outcomes whose probabilities sum to 1 - 2e-12: normalized to
        # within the 1e-10 tolerance, but short of the top draw
        amp = math.sqrt(0.5 - 1e-12)
        state = PhotonState(1, {BasisKet("0", "0"): amp, BasisKet("1", "1"): amp})
        dist = detection_distribution(state)
        assert len(dist) == 2 and sum(o.probability for o in dist) < TOP
        assert sample_outcome(state, Scripted(TOP)) == dist[-1]

    def test_homodyne_falls_back_to_the_largest_magnitude(self):
        # three branches in magnitude classes 0, 1 and 2 whose weights sum
        # short of the top draw
        amp = math.sqrt((1 - 3e-12) / 3)
        joint = JointState(1, ("alpha1",), {
            (BasisKet("0", "0"), (0,)): amp, (BasisKet("1", "0"), (-1,)): amp,
            (BasisKet("1", "1"), (2,)): amp})
        collapsed, readout = homodyne_measure(joint, "alpha1", rng=Scripted(TOP))
        assert (readout.magnitude, readout.classes) == (2, 3)
        assert readout.p == abs(amp) ** 2
        assert [key for key, _ in collapsed.items()] == [(BasisKet("1", "1"), ())]

    def test_a_misread_is_a_draw_below_misread_prob(self):
        # the misread flag is a pick: a uniform equal to misread_prob reports
        # the true magnitude, the double just below it reports the misread
        certain = JointState(1, ("alpha1",), {(BasisKet("1", "0"), (1,)): 1})
        for u, reported, p in ((0.25, 1, 0.75), (math.nextafter(0.25, 0.0), 0, 0.25)):
            rng = Scripted(u)
            _, readout = homodyne_measure(certain, "alpha1", 0.25, rng)
            assert (readout.magnitude, readout.p, rng.calls) == (reported, p, 1)


class TestGenerators:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_an_int_is_no_generator(self, seed):
        # a seed enters only through stream(seed, name): an int where a
        # sampler must draw raises instead of drawing
        amp = math.sqrt(0.5)
        state = PhotonState(1, {BasisKet("0", "0"): amp, BasisKet("1", "1"): amp})
        mixed = JointState(1, ("alpha1",), {(BasisKet("0", "0"), (0,)): amp,
                                            (BasisKet("1", "0"), (1,)): amp})
        certain = JointState(1, ("alpha1",), {(BasisKet("1", "0"), (1,)): 1})
        for draw in (lambda: pick([], seed),
                     lambda: sample_outcome(state, seed),
                     lambda: homodyne_measure(mixed, "alpha1", rng=seed),
                     lambda: homodyne_measure(certain, "alpha1", 0.25, seed)):
            with pytest.raises(ValueError, match=r"requires a generator, such as "
                                                 rf"stream\(seed, name\), got {seed}$"):
                draw()
