"""Adaptive importance sampling with spiked Gaussian sampling laws.

The package splits into a numerical core (seeding, numerics, gauss_core),
the rare-event problem definitions (targets), the weighted estimators and
their diagnostics (estimators), the adaptive schemes themselves
(ce_schemes), the sample-size phase laboratory (phase_lab), and the
plotting plus command line layer (svg, config, cli). The API is those
submodules; the package root exports only the version.
"""

__version__ = "0.1.0"
