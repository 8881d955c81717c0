"""freemimo: free-probability capacity scaling for large MIMO systems.

A numpy library pairing closed-form large-system results (binary entropy
loss, deviation from linear growth, S-transform calculus) with Monte Carlo
simulation of finite random-matrix channels that validates every one of
them.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, DomainError, QuadratureError
from .spectra import (
    BernoulliProjector,
    Dirac,
    EmpiricalSpectrum,
    FreeProduct,
    ProjectorScaled,
    Restricted,
    SpectralFamily,
    SquareIidGram,
    binary_entropy,
    entropy_integral_check,
    eta_inverse,
    eta_transform,
    log_mean,
    psi_inverse,
    psi_transform,
    s_transform,
)
from .infotheory import (
    InfoDecomposition,
    decompose,
    harmonic_mean_measure,
    multiplexing_rate_finite,
    multiplexing_rate_harmonic,
    multiplexing_rate_s,
    mutual_info_finite,
    mutual_info_measure,
    waterfilling_capacity,
)
from .asymptotics import (
    binary_entropy_loss,
    deviation_additivity_check,
    deviation_from_linear,
    deviation_iid,
    deviation_product_iid,
    square_system_loss,
    transmit_side_loss,
)
from .montecarlo import (
    EnsembleSpec,
    ErgodicEstimate,
    ProjectorSpec,
    TrialStats,
    apply_projector,
    empirical_spectrum,
    ergodic_deviation,
    ergodic_loss,
    limiting_family,
    sample_matrix,
    trial_rng,
    trial_stats,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    emit,
    load_table,
    run_experiment,
)
