"""Ultrametric diffusion on Q_p^n for exponential-type energy landscapes.

The package computes, for the nonlocal evolution equation
``du/dt = J*u - u`` driven by a normalized radial jump kernel
``J(|x|_p) = c |x|_p^gamma e^{-C1 |x|_p}``:

* the radial Fourier transform ``Jhat`` and its diagnostics (`landscape`);
* heat-kernel densities, survival probabilities, and transition
  probabilities on the coset chain (`heat`);
* exact compound-Poisson path simulation on Q_p^n / Z_p^n (`sim`);
* the first-passage pipeline: re-entry flux, Volterra-solved density,
  Laplace ladder, and a recurrence verdict (`fpt`);
* a reproducible CLI with manifests (`cli`).

Every analytic series ships with an independent oracle in the test suite.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DepthOverflow,
    GammaOutOfRange,
    NonPositiveRate,
    NonPositiveS,
    SeriesDiverged,
    StepTooCoarse,
    UltradiffError,
    ZeroPoint,
)
from .padic import (
    DEFAULT_DEPTH_CAP,
    ZERO_NORM,
    CosetPoint,
    SpaceParams,
    character_sphere_integral,
    coset_add,
    coset_neg,
    padic_fractional_part,
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
    nonintegrable_demo,
    spectral,
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
    transition_prob,
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
    VolterraGrid,
    laplace_G,
    recurrence_diagnostic,
    solve_volterra,
)
