"""Resonance statistics of finite-volume multi-particle Anderson operators.

Builds n-particle lattice Hamiltonians with i.i.d. (in particular two-point)
disorder on cubes, computes their spectra, decides each resonance event
as one margin on the spectra at most eps, and estimates event
probabilities by reproducible counter-based Monte Carlo.
"""

from .errors import CapacityError, DimensionMismatchError, DistributionError
from .hamiltonian import (
    InteractionSpec,
    SymMatrix,
    build_hamiltonian,
    interaction_sup_norm,
)
from .lattice import Cube, Site, sup_norm
from .randomfield import DistributionSpec, sample_field, validate
from .spectral import (
    Spectrum,
    count_below,
    dist_to_spectrum,
    full_spectrum,
    resolvent_norm,
    smallest_singular_value,
)
from .tensor import verify_decomposition
from .transfer import LyapunovEstimate, lyapunov, transfer_matrix
from .wegner import (
    DecayFit,
    EventQuery,
    MCResult,
    decay_fit,
    delta0,
    fixed_energy_event,
    h_star,
    mc_estimate,
    perturbation_check,
    two_volume_event,
    variable_energy_event,
    wilson_interval,
)

__version__ = "0.1.0"
