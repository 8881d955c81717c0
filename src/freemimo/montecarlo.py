"""Finite random-matrix sampling and ergodic Monte Carlo estimation.

Reproducibility contract.  Every sampling operation is a pure function of
(spec, seed, trial): trial t draws from a Philox4x64 counter-based generator
keyed by the 64-bit seed with initial counter (0, 0, t, 0), so trials are
independent streams that reproduce bit-identically.  ``trial_stats`` is the
one Monte Carlo engine: it stacks trials in chunks and factors each stack in
one batched LAPACK call, and every matrix of a stack is factored on its own,
so chunking never changes a result byte.  Trial reductions (mean, standard
error) are computed over an array indexed by trial, which numpy sums in a
fixed order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .infotheory import _gram_smaller_side
from .spectra import Dirac, EmpiricalSpectrum, FreeProduct, SquareIidGram

ENSEMBLE_KINDS = (
    "iid_complex_gaussian",
    "iid_real_gaussian",
    "haar_unitary",
    "product_iid",
)

STATS = ("mi", "mr")

# Trials are stacked in chunks of about this many bytes of complex draws: one
# 512 x 512 draw, so large systems still run one trial at a time.
CHUNK_BYTES = 4 * 2 ** 20


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one random channel draw.

    ``variance`` is the ensemble scale sigma^2: iid entries have per-entry
    variance sigma^2 / N with N = rows for a single R x T draw and N = the
    factor dimension for each square factor of a product.  Haar draws are
    exactly unitary.  ``factors`` is the number of iid factors multiplied
    together (product_iid only).
    """

    kind: str
    rows: int
    cols: int
    variance: float = 1.0
    factors: int = 1

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if self.kind in ("haar_unitary", "product_iid") and self.rows != self.cols:
            raise ValueError(f"{self.kind} requires a square matrix")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if self.factors < 1:
            raise ValueError(f"factors must be >= 1, got {self.factors}")


@dataclass(frozen=True)
class ProjectorSpec:
    """Antenna removal: keep the leading beta-fraction of rows or columns."""

    side: str
    beta: float
    mode: str = "leading"

    def __post_init__(self):
        if self.side not in ("receive", "transmit"):
            raise ValueError(f"side must be receive or transmit, got {self.side!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.mode != "leading":
            raise ValueError(f"unsupported projector mode {self.mode!r}")


@dataclass(frozen=True)
class TrialStats:
    """Per-trial statistics, each of shape (len(gammas), trials).

    ``mi_*`` is the mutual information and ``mr_*`` the multiplexing rate,
    in bits per transmit antenna of the reference draw (``*_ref``) or of
    its projection (``*_proj``).  Statistics that were not requested, and
    the projected ones when there is no projector, are None.
    """

    mi_ref: np.ndarray | None = None
    mi_proj: np.ndarray | None = None
    mr_ref: np.ndarray | None = None
    mr_proj: np.ndarray | None = None


@dataclass(frozen=True)
class ErgodicEstimate:
    """Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    trials: int
    master_seed: int


def trial_rng(master_seed, trial=0):
    """Generator for one trial: Philox keyed by master_seed, counter (0,0,trial,0)."""
    return np.random.Generator(
        np.random.Philox(key=master_seed, counter=[0, 0, trial, 0]))


def kept_count(beta, dim):
    """Entries kept by a beta-projector: round-half-up of beta*dim, minimum 1."""
    return max(1, int(math.floor(beta * dim + 0.5)))


def sample_matrix(spec, seed, trial=0):
    """Draw one channel matrix; bit-identical for identical (spec, seed, trial)."""
    rng = trial_rng(seed, trial)
    r, t = spec.rows, spec.cols
    if spec.kind == "iid_complex_gaussian":
        scale = math.sqrt(spec.variance / (2.0 * r))
        return scale * (rng.standard_normal((r, t))
                        + 1j * rng.standard_normal((r, t)))
    if spec.kind == "iid_real_gaussian":
        return math.sqrt(spec.variance / r) * rng.standard_normal((r, t))
    if spec.kind == "haar_unitary":
        z = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        q, upper = np.linalg.qr(z)
        d = np.diagonal(upper)
        # Phase correction makes the QR draw exactly Haar-distributed.
        return q * (d / np.abs(d))
    # product_iid: left-to-right product of square factors drawn in order.
    scale = math.sqrt(spec.variance / (2.0 * r))
    h = None
    for _ in range(spec.factors):
        f = scale * (rng.standard_normal((r, r))
                     + 1j * rng.standard_normal((r, r)))
        h = f if h is None else h @ f
    return h


def apply_projector(h, proj):
    """Keep the leading rows (receive side) or columns (transmit side) of a
    matrix or of each matrix in a stack."""
    r, t = h.shape[-2:]
    if proj.side == "receive":
        out = h[..., :kept_count(proj.beta, r), :]
    else:
        out = h[..., :kept_count(proj.beta, t)]
    if out.shape[-2] == 0 or out.shape[-1] == 0:
        raise ValueError("projector removed every antenna")
    return out


def empirical_spectrum(spec, seed, trial=0):
    """Full T-dimensional Gram spectrum of one sampled matrix."""
    h = sample_matrix(spec, seed, trial)
    gram = h.conj().T @ h
    w = np.linalg.eigvalsh(gram)
    return EmpiricalSpectrum(np.maximum(w, 0.0))


def limiting_family(spec):
    """The large-system Gram law of a square ensemble draw.

    Real and complex iid entries share the same limiting law; rectangular
    draws are handled by callers through projector scaling.
    """
    if spec.kind == "haar_unitary":
        return Dirac(1.0)
    if spec.kind == "product_iid":
        return FreeProduct(*[SquareIidGram(spec.variance)] * spec.factors)
    return SquareIidGram(spec.variance)


def _mutual_info(stack, gammas):
    """(len(gammas), k) mutual information of a (k, r, t) stack, from the
    eigenvalues of each smaller-side Gram."""
    w = np.maximum(np.linalg.eigvalsh(_gram_smaller_side(stack)), 0.0)
    return np.stack([np.sum(np.log2(1.0 + g * w), axis=1) for g in gammas]
                    ) / stack.shape[-1]


def _multiplexing_rate(stack, gammas):
    """(len(gammas), k) multiplexing rate of a (k, r, t) stack.

    Every ensemble draw has full rank min(r, t) almost surely, so the rate
    is (rank log2 gamma + log2 det G) / t with G the smaller-side Gram.  The
    log-det is 2 sum log2 |R_ii| from a QR factorization of the tall
    orientation of H itself, which does not square H's condition number.
    """
    r, t = stack.shape[-2:]
    tall = stack if r >= t else stack.swapaxes(-1, -2)
    upper = np.linalg.qr(tall, mode="r")
    logdet = 2.0 * np.sum(
        np.log2(np.abs(np.diagonal(upper, axis1=-2, axis2=-1))), axis=1)
    return (min(r, t) * np.log2(gammas)[:, None] + logdet) / t


_STAT_FNS = {"mi": _mutual_info, "mr": _multiplexing_rate}


def trial_stats(spec, proj, gammas, trials, master_seed, stats=STATS):
    """Per-trial statistics of the reference draw and of its projection.

    Trial t draws ``sample_matrix(spec, master_seed, t)`` once; the same
    draw feeds the projected system (common random numbers) and every gamma
    of the grid.  Only the statistics named in ``stats`` (a subset of
    ``STATS``) are computed.  Returns a ``TrialStats``.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    unknown = sorted(set(stats) - set(STATS))
    if unknown:
        raise ValueError(f"unknown statistics {unknown}; choose from {STATS}")
    gam = np.atleast_1d(np.asarray(gammas, dtype=float))
    if np.any(gam <= 0.0):
        raise DomainError(f"requires gamma > 0, got {gammas}")
    sides = ("ref",) if proj is None else ("ref", "proj")
    out = {f"{stat}_{side}": np.empty((gam.size, trials))
           for stat in stats for side in sides}
    chunk = max(1, CHUNK_BYTES // (16 * spec.rows * spec.cols))
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        block = np.stack([sample_matrix(spec, master_seed, t)
                          for t in range(lo, hi)])
        systems = {"ref": block}
        if proj is not None:
            systems["proj"] = apply_projector(block, proj)
        for side, stack in systems.items():
            for stat in stats:
                out[f"{stat}_{side}"][:, lo:hi] = _STAT_FNS[stat](stack, gam)
    return TrialStats(**out)


def _estimate(values, master_seed):
    n = values.size
    stderr = float(np.std(values, ddof=1) / math.sqrt(n))
    return ErgodicEstimate(float(np.mean(values)), stderr, n, master_seed)


def ergodic_mutual_info(spec, proj, gamma, trials, master_seed):
    """Ergodic mutual information in bits per transmit antenna of the
    (possibly projected) system."""
    s = trial_stats(spec, proj, [gamma], trials, master_seed, ("mi",))
    return _estimate((s.mi_ref if proj is None else s.mi_proj)[0], master_seed)


def ergodic_loss(spec, proj, gamma, trials, master_seed):
    """Paired mutual-information loss per reference transmit antenna.

    The same draw feeds the reference and the projected term (common random
    numbers).  Receive side: I(H) - I(P H).  Transmit side the projected term
    is weighted by the kept fraction so both are per reference antenna.
    """
    if proj is None:
        raise ValueError("ergodic_loss requires a projector")
    s = trial_stats(spec, proj, [gamma], trials, master_seed, ("mi",))
    weight = 1.0
    if proj.side == "transmit":
        weight = kept_count(proj.beta, spec.cols) / spec.cols
    return _estimate(s.mi_ref[0] - weight * s.mi_proj[0], master_seed)


def ergodic_multiplexing_rate(spec, proj, gamma, trials, master_seed):
    """Ergodic multiplexing rate (nonzero-eigenvalue log sum) per transmit
    antenna of the (possibly projected) system."""
    s = trial_stats(spec, proj, [gamma], trials, master_seed, ("mr",))
    return _estimate((s.mr_ref if proj is None else s.mr_proj)[0], master_seed)


def ergodic_deviation(spec, beta, gamma, trials, master_seed):
    """Paired estimate of the deviation from linear growth, per antenna.

    For a square N x N ensemble: multiplexing rate of the beta-row-projected
    system minus the kept fraction times the reference multiplexing rate,
    both normalized by N and sharing the same draw.
    """
    if spec.rows != spec.cols:
        raise ValueError("deviation estimation requires a square ensemble")
    frac = kept_count(beta, spec.rows) / spec.rows
    s = trial_stats(spec, ProjectorSpec("receive", beta), [gamma], trials,
                    master_seed, ("mr",))
    return _estimate(s.mr_proj[0] - frac * s.mr_ref[0], master_seed)
