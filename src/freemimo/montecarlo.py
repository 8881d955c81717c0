"""Finite random-matrix sampling and ergodic Monte Carlo estimation.

Reproducibility contract.  Every sampling operation is a pure function of
(spec, seed, trial): trial t draws from a Philox4x64 counter-based generator
keyed by the 64-bit seed with initial counter (0, 0, t, 0), so trials are
independent streams that reproduce bit-identically.  ``trial_stats`` builds
one such Philox per call and re-keys it for each trial by setting its
counter, which yields exactly the stream of ``trial_rng(seed, t)``;
``sample_matrix`` is the one-trial case of the same sampling path.  The
engine stacks trials in chunks, fills each chunk's normals trial by trial
and transforms them in one step, then factors the stack in one batched
LAPACK call.  Every matrix of a stack is drawn and factored on its own, so
chunking never changes a result byte.  When a call has several chunks of
more than one trial each and the process may run on two or more CPUs, one
helper thread draws the next chunk while the caller factors the current
one; the helper is then the only thread that uses the call's streams.
Each trial's stream is fixed by (seed, trial), so which thread draws a
trial never changes a byte.  Trial reductions (mean, standard error) are
computed over an array indexed by trial, which numpy sums in a fixed order.

Factorizations.  Mutual information at a single gamma is a log-det from a
Cholesky factorization of I + gamma G (G the smaller-side Gram); over a
grid of gammas it comes from one ``eigvalsh`` of G per draw.  One Gram
product per draw serves the reference and its projection when both Grams
are indexed by the kept side (e.g. a receive cut of 64 x 32 to 48 x 32):
the reference Gram is the projected one plus the Gram of the removed
antennas.  Other cuts give each system its own Gram.  The
multiplexing rate is a log-det of H itself: an LU factorization
(``slogdet``) for square H and a QR factorization of the tall orientation
otherwise.  Neither squares H's condition number.
"""

import contextlib
import math
import os
import queue
import threading
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

# Trials are stacked in chunks of about this many bytes of complex draws; a
# draw over 128 KiB runs one trial at a time.  Small chunks keep each
# chunk's temporaries in memory the allocator reuses: at 4 MiB, a 3000-trial
# 64 x 32 call took ~48,000 page faults and 1.3x the time.
CHUNK_BYTES = 256 * 2 ** 10


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
        if not self.variance > 0.0:
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


class _TrialStreams:
    """One Philox keyed by a master seed, re-keyed to each trial's stream.

    Re-keying sets the counter to (0, 0, t, 0) with an empty buffer, the
    state ``trial_rng(master_seed, t)`` starts from, at a fraction of the
    cost of building a new generator.
    """

    def __init__(self, master_seed):
        rng = trial_rng(master_seed)
        self._bits = rng.bit_generator
        self._start = self._bits.state
        self._normal = rng.standard_normal
        self._paused = {}

    def fill(self, out, trials, resume=False, pause=False):
        """Fill out[i] with standard normals from the stream of trials[i]:
        from its start, or with ``resume`` from where the last call with
        ``pause`` left that stream."""
        bits, start, normal = self._bits, self._start, self._normal
        for i, trial in enumerate(trials):
            if resume:
                bits.state = self._paused.pop(trial)
            else:
                start["state"]["counter"][2] = trial
                bits.state = start
            normal(out=out[i])
            if pause:
                self._paused[trial] = bits.state


def _complex_draws(streams, trials, scale, out, resume=False, pause=False):
    """Fill out, a (len(trials), r, t) complex stack, with scale * (re + 1j
    im), each trial's re then im normals drawn from its stream in one call.

    The normals fill the output's own memory, re block then im block per
    trial, and are then spread in place to (re, im) pairs: the im block is
    copied out, and re value j moves to slot 2j in blocks [n/2, n),
    [n/4, n/2), ..., each landing at or above every value still to move.
    So no second buffer of normals is needed: the peak is the draws plus
    half of them, not twice them.
    """
    k, n = len(trials), out[0].size
    flat = out.view(float).reshape(k, 2 * n)
    streams.fill(flat, trials, resume, pause)
    flat *= scale
    im = flat[:, n:].copy()
    hi = n
    while hi > 0:
        lo = hi // 2
        flat[:, 2 * lo:2 * hi:2] = flat[:, lo:hi]
        hi = lo
    flat[:, 1::2] = im
    return out


def _sample_chunk(spec, streams, trials, spent=None):
    """(len(trials), rows, cols) stack of the draws of the given trials.

    ``spent`` is an earlier stack of the same spec, at least as long, that
    is no longer needed; the draws are written into its memory.  Each
    trial's draw is the same whichever chunk it falls in.  A product draws
    its factors in order from each trial's stream, one factor across the
    whole chunk at a time.
    """
    r, t = spec.rows, spec.cols
    k = len(trials)
    real = spec.kind == "iid_real_gaussian"
    out = (np.empty((k, r, t), dtype=float if real else complex)
           if spent is None else spent[:k])
    if real:
        streams.fill(out, trials)
        return np.multiply(out, math.sqrt(spec.variance / r), out=out)
    if spec.kind == "haar_unitary":
        q, upper = np.linalg.qr(_complex_draws(streams, trials, 1.0, out))
        d = np.diagonal(upper, axis1=-2, axis2=-1)
        # Phase correction makes the QR draw exactly Haar-distributed.
        return np.multiply(q, (d / np.abs(d))[:, None, :], out=out)
    # iid_complex_gaussian, or product_iid: the left-to-right product of
    # square factors.
    scale = math.sqrt(spec.variance / (2.0 * r))
    layers = spec.factors if spec.kind == "product_iid" else 1
    h = _complex_draws(streams, trials, scale, out, pause=layers > 1)
    for layer in range(1, layers):
        f = _complex_draws(streams, trials, scale, np.empty_like(out),
                           resume=True, pause=layer + 1 < layers)
        h = h @ f
    return h


def _serial_draws(spec, streams, chunks):
    """Each chunk's stack, drawn into the memory of the last, whose
    statistics are taken: one stack is alive at a time and its pages stay
    mapped."""
    block = None
    for trials in chunks:
        block = _sample_chunk(spec, streams, trials, block)
        yield block


_STOP = object()  # tells the helper of _pipelined_draws to return


def _pipelined_draws(spec, streams, chunks):
    """Each chunk's stack, the next one drawn on a helper thread while the
    caller takes the statistics of this one.

    Two stacks alternate: the caller hands each stack back once its
    statistics are taken, and the helper draws the chunk after next into
    it.  Philox fills release the GIL, so they overlap the caller's Gram
    and factorization work.  The helper is the only thread that touches
    ``streams`` and it draws the chunks in order, so every byte is the
    serial loop's.  A draw's exception is raised here; closing the
    generator stops the helper after the draw in flight and joins it.
    """
    spares, drawn = queue.SimpleQueue(), queue.SimpleQueue()

    def draw():
        try:
            for trials in chunks:
                spare = spares.get()
                if spare is _STOP:
                    return
                drawn.put(_sample_chunk(spec, streams, trials, spare))
        except BaseException as exc:  # raised again in the caller's thread
            drawn.put(exc)

    helper = threading.Thread(target=draw)
    helper.start()
    try:
        spares.put(None)  # the first two chunks take new stacks
        spares.put(None)
        for _ in chunks:
            block = drawn.get()
            if isinstance(block, BaseException):
                raise block
            yield block
            spares.put(block)
    finally:
        spares.put(_STOP)
        helper.join()


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def sample_matrix(spec, seed, trial=0):
    """Draw one channel matrix; bit-identical for identical (spec, seed, trial)."""
    return _sample_chunk(spec, _TrialStreams(seed), [trial])[0]


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


def _paired_grams(block, proj):
    """Smaller-side Grams of a (k, r, t) stack of draws and of its
    projection, sharing one Gram product per draw where they can.

    A transmit cut keeps the leading rows of W = H^H, whose Grams have the
    determinants of H's, so both cuts keep the leading k of the a rows of
    an a x b matrix W.  With k >= b the reference Gram is the projected
    W_k^H W_k plus the removed rows' Gram (rank update); otherwise each
    system gets its own Gram.
    """
    receive = proj.side == "receive"
    a, b = block.shape[-2:] if receive else block.shape[:0:-1]
    k = kept_count(proj.beta, a)
    if k < b:
        return (_gram_smaller_side(block),
                _gram_smaller_side(apply_projector(block, proj)))
    conj = block.conj()
    w, wh = ((block, conj.swapaxes(-1, -2)) if receive
             else (conj.swapaxes(-1, -2), block))
    proj_gram = wh[..., :k] @ w[:, :k]
    gram = wh[..., k:] @ w[:, k:]
    gram += proj_gram
    return gram, proj_gram


def _mutual_info(gram, cols, gammas):
    """(len(gammas), k) mutual information, in bits per transmit antenna of
    systems with ``cols`` of them, from a (k, n, n) stack of their Grams.

    One gamma takes a Cholesky log-det of I + gamma G; a grid, or an
    I + gamma G that rounds to singular at extreme SNR, takes the
    eigenvalues of G once for every gamma.
    """
    if gammas.size == 1:
        a = gammas[0] * gram
        a += np.eye(gram.shape[-1])
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass
        else:
            diag = np.diagonal(chol, axis1=-2, axis2=-1).real
            return 2.0 * np.sum(np.log2(diag), axis=1)[None, :] / cols
    w = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return np.stack([np.sum(np.log2(1.0 + g * w), axis=1) for g in gammas]
                    ) / cols


def _multiplexing_rate(stack, gammas):
    """(len(gammas), k) multiplexing rate of a (k, r, t) stack.

    Every ensemble draw has full rank min(r, t) almost surely, so the rate
    is (rank log2 gamma + log2 det G) / t with G the smaller-side Gram.
    log2 det G = 2 log2 |det H| comes from an LU factorization (``slogdet``)
    of a square H, and otherwise from 2 sum log2 |R_ii| of a QR
    factorization of the tall orientation of H.
    """
    r, t = stack.shape[-2:]
    if r == t:
        logdet = 2.0 * np.linalg.slogdet(stack)[1] / math.log(2.0)
    else:
        tall = stack if r > t else stack.swapaxes(-1, -2)
        upper = np.linalg.qr(tall, mode="r")
        logdet = 2.0 * np.sum(
            np.log2(np.abs(np.diagonal(upper, axis1=-2, axis2=-1))), axis=1)
    return (min(r, t) * np.log2(gammas)[:, None] + logdet) / t


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
    if not np.all(gam > 0.0):
        raise DomainError(f"requires gamma > 0, got {gammas}")
    sides = ("ref",) if proj is None else ("ref", "proj")
    out = {f"{stat}_{side}": np.empty((gam.size, trials))
           for stat in stats for side in sides}
    chunk = max(1, CHUNK_BYTES // (16 * spec.rows * spec.cols))
    chunks = [range(lo, min(lo + chunk, trials))
              for lo in range(0, trials, chunk)]
    # A one-trial chunk is a draw over 128 KiB, where a second stack costs
    # more memory than the overlap saves; on one CPU there is no overlap.
    pipelined = chunk > 1 and len(chunks) > 1 and _usable_cpus() > 1
    draws = (_pipelined_draws if pipelined else _serial_draws)(
        spec, _TrialStreams(master_seed), chunks)
    with contextlib.closing(draws):
        for batch, block in zip(chunks, draws):
            at = slice(batch.start, batch.stop)
            systems = {"ref": block}
            if proj is not None:
                systems["proj"] = apply_projector(block, proj)
            if "mi" in stats:
                grams = ((_gram_smaller_side(block),) if proj is None
                         else _paired_grams(block, proj))
                for (side, stack), gram in zip(systems.items(), grams):
                    out[f"mi_{side}"][:, at] = _mutual_info(
                        gram, stack.shape[-1], gam)
            if "mr" in stats:
                for side, stack in systems.items():
                    out[f"mr_{side}"][:, at] = _multiplexing_rate(stack, gam)
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
