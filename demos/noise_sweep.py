"""Probe-amplitude sweep under the finite-distinguishability readout model.

Homodyne detection separates the shifted from the unshifted probe only as
well as two unit-variance Gaussians 2*alpha*(1-cos theta) apart allow.  A
run is misclassified when any of its 2(N-1) probes misreads, so the
aggregate error should follow 1-(1-p)^(2(N-1)) and fall as alpha grows.
This script prints observed vs predicted rates as CSV for plotting.

Each row runs on its own seed.  With one seed shared, every row would
compare the same uniforms against its own error probability, so the rows
would err high or low together instead of scattering independently.

Run:  python demos/noise_sweep.py
"""

from hypersa import (HomodyneModel, RunConfig, gaussian_error_prob,
                     monte_carlo_misclassification)

N = 2
THETA = 0.2
TRIALS = 4000

print("alpha,per_probe_error,predicted,observed,wilson_low,wilson_high")
for row, alpha in enumerate((10.0, 20.0, 40.0, 80.0, 120.0, 160.0)):
    cfg = RunConfig(theta=THETA, alpha=alpha,
                    model=HomodyneModel.GAUSSIAN, trials=TRIALS, seed=11 + row)
    stats = monte_carlo_misclassification(N, cfg)
    per_probe = gaussian_error_prob(alpha, THETA)
    print(f"{alpha:g},{per_probe:.6f},{stats.predicted:.6f},"
          f"{stats.rate:.6f},{stats.wilson_low:.6f},{stats.wilson_high:.6f}")
