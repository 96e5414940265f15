"""Ultrametric diffusion on Q_p^n for exponential-type energy landscapes.

The package computes, for the nonlocal evolution equation
``du/dt = J*u - u`` driven by a normalized radial jump kernel
``J(|x|_p) = c |x|_p^gamma e^{-C1 |x|_p}``:

* sphere volumes and the Monte Carlo's random streams (`padic`);
* the radial Fourier transform ``Jhat``: ``1 - Jhat`` as one cached
  series, its quadrature oracle and the log-space divergence diagnostic
  (`landscape`);
* heat-kernel densities, survival probabilities, and the coset chain
  lumped onto coset norms (`heat`);
* exact compound-Poisson path simulation on Q_p^n / Z_p^n (`sim`);
* the first-passage pipeline: re-entry flux, the first-passage density
  and P(tau <= T) in closed form, Laplace ladder, and a recurrence verdict
  (`fpt`);
* a reproducible CLI with manifests (`cli`).

Every analytic series ships with an independent oracle in the test suite;
the oracles no command needs (coset arithmetic on Q_p^n / Z_p^n, exact
character integrals, ball transition probabilities) live in
``tests/oracles.py``. Records are ``NamedTuple`` or ``__slots__`` classes,
which cost the import no generated code.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GammaOutOfRange,
    NonPositiveRate,
    NonPositiveS,
    SeriesDiverged,
    UltradiffError,
    ZeroPoint,
)
from .padic import (
    DEFAULT_DEPTH_CAP,
    ZERO_NORM,
    SpaceParams,
    sphere_volume,
    split_stream,
)
from .landscape import (
    LandscapeParams,
    SpectralCache,
    UnitBallKernel,
    divergence_diagnostic,
    exterior_mass,
    normalize,
    spectral_by_quadrature,
    spectral_gap_at_one,
)
from .heat import (
    HeatState,
    chapman_kolmogorov_defect,
    conservation_audits,
    decay_bound_check,
    du_dt,
    pde_residual,
    survival,
    u_table,
    ztilde_table,
)
from .sim import (
    JumpNormTable,
    SimConfig,
    run_paths,
)
from .fpt import (
    LaplaceEval,
    RecurrenceReport,
    laplace_G,
    recurrence_diagnostic,
)
