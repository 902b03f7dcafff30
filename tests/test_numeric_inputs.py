"""Every number a caller passes to the library meets one rule: a bool is no
number, and a non-number, NaN or a value out of range raises
``ValueError: {name} must be {rule}, got {value!r}``."""

import math
import re

import numpy as np
import pytest

from hypersa.kerr import JointState, attach_probes, gaussian_error_prob, homodyne_measure
from hypersa.noise import predicted_error_rate, wilson_interval
from hypersa.protocols import RunConfig, probe_ids
from hypersa.rng import stream
from hypersa.states import (BasisKet, PhotonState, bell_state, canonical_bit_strings,
                            parse_state_literal)

REFUSED = (True, np.True_, "1", None, math.nan, math.inf)
NONE_ALLOWED = (True, np.True_, "1", math.nan, math.inf)  # where None means "not given"

COUNT = ("n_photons", "an integer >= 1")
SEED = ("seed", "an integer >= 0")
AMPLITUDE = ("amplitude", "a finite complex number")
KET = BasisKet("0", "0")

#: entry point -> (argument, rule, call with that argument set[, values refused])
GUARDED = {
    "RunConfig-theta": ("theta", "finite and in (0, pi/2)", lambda v: RunConfig(theta=v)),
    "RunConfig-alpha": ("alpha", "finite and > 0", lambda v: RunConfig(alpha=v)),
    "RunConfig-model": ("model", "one of ideal, gaussian", lambda v: RunConfig(model=v)),
    "RunConfig-trials": ("trials", "an integer >= 1", lambda v: RunConfig(trials=v)),
    "RunConfig-seed": (*SEED, lambda v: RunConfig(seed=v)),
    "gaussian_error_prob-alpha": ("alpha", "finite and > 0",
                                  lambda v: gaussian_error_prob(v, 0.1)),
    "gaussian_error_prob-theta": ("theta", "finite and in [0, pi/2)",
                                  lambda v: gaussian_error_prob(1.0, v)),
    "homodyne_measure-misread_prob": (
        "misread_prob", "a real number in [0, 1]",
        lambda v: homodyne_measure(attach_probes(bell_state("phi+", "P"), ["alpha1"]),
                                   "alpha1", v, rng=stream(1, ""))),
    "wilson_interval-trials": ("trials", "an integer in [1, inf]",
                               lambda v: wilson_interval(0, v)),
    "wilson_interval-errors": ("errors", "an integer in [0, 10]",
                               lambda v: wilson_interval(v, 10)),
    "stream-seed": (*SEED, lambda v: stream(v, "detection")),
    "PhotonState-n_photons": (*COUNT, lambda v: PhotonState(v, {})),
    "JointState-n_photons": (*COUNT, lambda v: JointState(v, (), {})),
    "canonical_bit_strings-n": (*COUNT, canonical_bit_strings),
    "probe_ids-n": (*COUNT, probe_ids),
    "predicted_error_rate-n": (*COUNT, lambda v: predicted_error_rate(v, RunConfig())),
    # None means "no count given"
    "parse_state_literal-n": (*COUNT, lambda v: parse_state_literal("P:+0;S:+0", v),
                              NONE_ALLOWED),
    "PhotonState-amplitude": (*AMPLITUDE, lambda v: PhotonState(1, {KET: v})),
    "JointState-amplitude": (*AMPLITUDE, lambda v: JointState(1, (), {(KET, ()): v})),
    "JointState-multiple": ("phase multiple", "an integer",
                            lambda v: JointState(1, ("a",), {(KET, (v,)): 1}),
                            REFUSED + (1.5,)),
}


@pytest.mark.parametrize("name, rule, call, value", [
    pytest.param(name, rule, call, value, id=f"{where}-{value!r}")
    for where, (name, rule, call, *values) in GUARDED.items()
    for value in (values[0] if values else REFUSED)])
def test_every_guarded_argument_refuses_what_is_no_number(name, rule, call, value):
    message = f"{name} must be {rule}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
