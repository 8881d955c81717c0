"""Finite random-matrix sampling and paired ergodic Monte Carlo estimation:
every trial pairs a reference draw with its projection (``trial_stats``).

Reproducibility contract.  Every sampling operation is a pure function of
(spec, seed, trial): trial t draws from a Philox4x64 counter-based generator
keyed by the 64-bit seed with initial counter (0, 0, t, 0), so trials are
independent streams that reproduce bit-identically.  ``trial_stats`` builds
one such Philox per call and re-keys it for each trial by setting its
counter, which yields exactly the stream of ``trial_rng(seed, t)``;
``sample_matrix`` is the one-trial case of the same sampling path.  The
engine stacks trials in chunks.  Each chunk is sampled in two steps: a fill
writes each trial's standard normals into one block, trial by trial, and
``_sample_chunk`` turns the block into the chunk's draws in its own memory
(scale, re/im interleave, Haar QR or the product of the factors).  The
stack is then reduced, by batched LAPACK calls or by a closed form (see
Factorizations).  Every matrix of a stack is drawn and reduced on its own,
so chunking never changes a result byte.
When a call has several chunks of more than one trial each, one helper
thread fills the next chunk's normals while the caller samples and reduces
the current one.  The helper runs nothing but the fills, which release the
GIL, and it is then the only thread that uses the call's streams;
everything else runs on the calling thread, on the same path as the serial
loop that serves one-chunk calls and one-trial chunks.  Each trial's stream
is fixed by (seed, trial), so which thread fills a trial never changes a
byte.
Trial reductions (mean, standard error: ``mean_stderr``) are computed over
an array indexed by trial, which numpy sums in a fixed order.

Factorizations.  A system with two antennas on its smaller side (4 x 2,
2 x 2, 2 x 4) is reduced without BLAS or LAPACK: its 2 x 2 Gram's
invariants are sums over H's two columns (two rows, for a wide H), its
eigenvalues have a closed form (``_two_antenna_invariants``), and one
expression in them gives the mutual information at one gamma and over a
grid.  iid draws are sampled without BLAS too, so their two-antenna
statistics do not depend on the BLAS thread count.  Every other system is
factored by the kernels of ``infotheory`` that also serve
``mutual_info_finite`` and ``multiplexing_rate_finite``: a Cholesky
log-det of I + gamma G (G the smaller-side Gram) at one gamma, one
``eigvalsh`` of G over a grid, and an LU or QR log-det of H itself for the
multiplexing rate.  The engine forms each chunk's I + gamma G in an array
of its scratch.  One Gram product per draw serves the reference and its
projection when both Grams are indexed by the kept side (e.g. a receive
cut of 64 x 32 to 48 x 32): the reference Gram is the projected one plus
the Gram of the removed antennas.  Other cuts give each system its own
Gram.
"""

import contextlib
import functools
import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_integer
from .infotheory import (_gram_smaller_side, _log2_one_plus,
                         _multiplexing_rate, _mutual_info)
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
# 64 x 32 call took ~48,000 page faults and 1.3x the time.  The caller's
# per-chunk arrays (the interleave's im copy, the conjugate, the Grams and
# I + gamma G) are allocated once per call (``_scratch_array``): the same
# call took about 36,000 minor faults when each chunk allocated its own
# while the sampler thread ran, and about 225 with them allocated once.
CHUNK_BYTES = 256 * 2 ** 10


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one random channel draw.

    ``variance`` is the ensemble scale sigma^2: iid entries have per-entry
    variance sigma^2 / N with N = rows for a single R x T draw and N = the
    factor dimension for each square factor of a product.  Haar draws are
    exactly unitary.  ``factors`` is the number of iid factors multiplied
    together; every other kind draws one matrix and takes factors = 1.
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
        if not 0.0 < self.variance < math.inf:
            raise ValueError(f"variance must be finite > 0, got {self.variance}")
        if self.factors < 1:
            raise ValueError(f"factors must be >= 1, got {self.factors}")
        if self.kind != "product_iid" and self.factors != 1:
            raise ValueError(f"{self.kind} draws one matrix: factors must "
                             f"be 1, got {self.factors}")


@dataclass(frozen=True)
class ProjectorSpec:
    """Antenna removal: keep the leading beta-fraction of rows or columns."""

    side: str
    beta: float

    def __post_init__(self):
        if self.side not in ("receive", "transmit"):
            raise ValueError(f"side must be receive or transmit, got {self.side!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")


@dataclass(frozen=True)
class TrialStats:
    """Per-trial statistics, each of shape (len(gammas), trials).

    ``mi_*`` is the mutual information and ``mr_*`` the multiplexing rate,
    in bits per transmit antenna of the reference draw (``*_ref``) or of
    its projection (``*_proj``); statistics not requested are None.
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
    # A uint64 array: numpy would read a list holding 2^64 - 1 as a float.
    counter = np.array([0, 0, trial, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=master_seed,
                                                counter=counter))


def kept_count(beta, dim):
    """Entries kept by a beta-projector: round-half-up of beta*dim, minimum 1."""
    return max(1, int(math.floor(beta * dim + 0.5)))


class _TrialStreams:
    """One Philox keyed by a master seed, re-keyed to each trial's stream.

    Re-keying assigns a state of plain Python ints: counter (0, 0, t, 0)
    with an empty buffer, the state ``trial_rng(master_seed, t)`` starts
    from.  The state setter reads Python ints faster than the arrays the
    state getter returns (about 1.0 against 2.7 us a trial on a 2-core
    x86-64 VM), and either way it costs a fraction of building a new
    generator.
    """

    def __init__(self, master_seed):
        rng = trial_rng(master_seed)
        self._bits = rng.bit_generator
        self._normal = rng.standard_normal
        start = self._bits.state
        self._counter = [0, 0, 0, 0]
        self._start = {**start, "buffer": [0, 0, 0, 0], "state": {
            "counter": self._counter,
            "key": [int(word) for word in start["state"]["key"]]}}

    def fill(self, out, trials):
        """Fill out[i] with the first out[i].size standard normals of the
        stream of trials[i]; return out."""
        bits, start, counter, normal = (self._bits, self._start,
                                        self._counter, self._normal)
        for i, trial in enumerate(trials):
            counter[2] = trial
            bits.state = start
            normal(out=out[i])
        return out


def _normals_shape(spec, k):
    """(k, m): the standard normals k trials of ``spec`` draw, one row per
    trial in stream order.  A complex matrix takes its real parts, then its
    imaginary parts; a product takes its factors in order."""
    per = spec.rows * spec.cols
    if spec.kind == "iid_real_gaussian":
        return k, per
    return k, 2 * per * (spec.factors if spec.kind == "product_iid" else 1)


def _scratch_array(scratch, shape, dtype, name):
    """An uninitialised (shape) array named ``name`` in ``scratch``.

    A call's chunks share the arrays of a ``scratch`` dict, allocated at the
    first, largest chunk, so their pages stay mapped; a shorter last chunk
    takes the leading part.  With ``scratch`` None the array is new.
    """
    if scratch is None:
        return np.empty(shape, dtype)
    key = name, shape[1:], dtype
    buf = scratch.get(key)
    if buf is None:
        buf = scratch[key] = np.empty(shape, dtype)
    return buf[:shape[0]]


def _interleave(flat, scale, scratch=None):
    """The (k, n) complex view of a (k, 2n) block of normals, each row re
    then im values, with entries scale * (re + 1j im).

    The values are spread in place to (re, im) pairs: the im block is
    copied out, and re value j moves to slot 2j in blocks [n/2, n),
    [n/4, n/2), ..., each landing at or above every value still to move.
    So the peak is the block plus half of it, not twice it.
    """
    n = flat.shape[1] // 2
    flat *= scale
    im = _scratch_array(scratch, (len(flat), n), float, "im")
    np.copyto(im, flat[:, n:])
    hi = n
    while hi > 0:
        lo = hi // 2
        flat[:, 2 * lo:2 * hi:2] = flat[:, lo:hi]
        hi = lo
    flat[:, 1::2] = im
    return flat.view(complex)


def _sample_chunk(spec, normals, trials, scratch=None):
    """(len(trials), rows, cols) stack of the draws of the given trials,
    made from their normals in the memory of ``normals``.

    ``normals`` is a ``_normals_shape(spec, len(trials))`` block filled by
    ``_TrialStreams.fill``.  Each trial's draw is the same whichever chunk
    it falls in.  A product multiplies its square factors left to right.
    """
    r, t = spec.rows, spec.cols
    k = len(trials)
    if spec.kind == "iid_real_gaussian":
        np.multiply(normals, math.sqrt(spec.variance / r), out=normals)
        return normals.reshape(k, r, t)
    if spec.kind == "haar_unitary":
        h = _interleave(normals, 1.0, scratch).reshape(k, r, t)
        q, upper = np.linalg.qr(h)
        d = np.diagonal(upper, axis1=-2, axis2=-1)
        # Phase correction makes the QR draw exactly Haar-distributed.
        return np.multiply(q, (d / np.abs(d))[:, None, :], out=h)
    # iid_complex_gaussian, or product_iid: the left-to-right product of
    # square factors.
    scale = math.sqrt(spec.variance / (2.0 * r))
    width = 2 * r * t
    factors = [_interleave(normals[:, lo:lo + width], scale, scratch
                           ).reshape(k, r, t)
               for lo in range(0, normals.shape[1], width)]
    return functools.reduce(np.matmul, factors)


_STOP = object()  # tells the helper of _pipelined_normals to return


def _pipelined_normals(streams, shape, chunks):
    """Each chunk's normals, the next chunk's filled on a helper thread
    while the caller makes and reduces this chunk's draws.

    The helper only runs ``streams.fill``, which releases the GIL.  Two
    blocks alternate: the caller hands each block back when it asks for
    the next chunk, after the draws made in the block's memory have been
    reduced, and the helper fills the chunk after next into it.  The helper
    is the only thread that touches ``streams`` and it fills the chunks in
    order, so every byte is the serial loop's.  A fill's exception is
    raised here; closing the generator stops the helper after the fill in
    flight and joins it.
    """
    spares, filled = queue.SimpleQueue(), queue.SimpleQueue()

    def fill():
        try:
            for trials in chunks:
                spare = spares.get()
                if spare is _STOP:
                    return
                normals = spare[:len(trials)]
                streams.fill(normals, trials)
                filled.put(normals)
        except BaseException as exc:  # raised again in the caller's thread
            filled.put(exc)

    spares.put(np.empty(shape))
    spares.put(np.empty(shape))
    helper = threading.Thread(target=fill)
    helper.start()
    try:
        for _ in chunks:
            normals = filled.get()
            if isinstance(normals, BaseException):
                raise normals
            yield normals
            spares.put(normals)
    finally:
        spares.put(_STOP)
        helper.join()


def sample_matrix(spec, seed, trial=0):
    """Draw one channel matrix; bit-identical for identical (spec, seed, trial)."""
    normals = np.empty(_normals_shape(spec, 1))
    _TrialStreams(seed).fill(normals, [trial])
    return _sample_chunk(spec, normals, [trial])[0]


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
    """Full T-dimensional Gram spectrum of one sampled R x T matrix: the
    eigenvalues of its smaller-side Gram and T - min(R, T) exact zeros."""
    gram = _gram_smaller_side(sample_matrix(spec, seed, trial))
    w = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return EmpiricalSpectrum(np.concatenate([np.zeros(spec.cols - w.size), w]))


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


def _paired_grams(block, proj, scratch=None):
    """Smaller-side Grams of a (k, r, t) stack of draws and of its
    projection, sharing one Gram product per draw where they can.

    A transmit cut keeps the leading rows of W = H^H, whose Grams have the
    determinants of H's, so both cuts keep the leading k of the a rows of
    an a x b matrix W.  With k >= b the reference Gram is the projected
    W_k^H W_k plus the removed rows' Gram (rank update); otherwise each
    system gets its own Gram.  The rank update writes its conjugate and
    Grams into arrays of ``scratch`` (see ``_scratch_array``).
    """
    receive = proj.side == "receive"
    a, b = block.shape[-2:] if receive else block.shape[:0:-1]
    k = kept_count(proj.beta, a)
    if k < b:
        return (_gram_smaller_side(block),
                _gram_smaller_side(apply_projector(block, proj)))
    conj = np.conjugate(
        block, out=_scratch_array(scratch, block.shape, block.dtype, "conj"))
    w, wh = ((block, conj.swapaxes(-1, -2)) if receive
             else (conj.swapaxes(-1, -2), block))
    shape = len(block), b, b
    proj_gram = np.matmul(wh[..., :k], w[:, :k], out=_scratch_array(
        scratch, shape, block.dtype, "proj_gram"))
    gram = np.matmul(wh[..., k:], w[:, k:],
                     out=_scratch_array(scratch, shape, block.dtype, "gram"))
    gram += proj_gram
    return gram, proj_gram


def _inner(u, v):
    """(Re u^H v, Im u^H v) of each row pair of two (k, n) arrays; Im is
    None for real arrays.  The sums are of real products, which numpy's
    complex multiply (fused on some CPUs) is not, so v = u gives exactly
    (|u|^2, 0)."""
    if not np.iscomplexobj(u):
        return np.sum(u * v, axis=1), None
    ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
    return (np.sum(ur * vr + ui * vi, axis=1),
            np.sum(ur * vi - ui * vr, axis=1))


def _two_antenna_invariants(stack):
    """(lam_max, lam_min, log2 det G), each of shape (k,), of the 2 x 2
    smaller-side Gram G of each draw of a (k, r, t) stack with
    min(r, t) = 2.

    G is the Gram of two vectors u, v: H's columns, or its rows when H is
    wide.  With a = |u|^2, d = |v|^2 and g = u^H v, the larger eigenvalue
    is (a + d)/2 + hypot((a - d)/2, |g|), a sum of nonnegative terms.  det G
    is the product p q of p = a and q = |v - (g/a) u|^2, the residual of v
    off u, without the cancellation of a d - |g|^2 (q = d when u = 0, so
    det G = 0).  The smaller eigenvalue is (p / lam_max) q, which neither
    overflows nor underflows where det G would.  A draw with a zero vector
    or two equal vectors has det G = 0 exactly, so log2 det G = -inf.
    """
    r, t = stack.shape[1:]
    u, v = ((stack[:, :, 0], stack[:, :, 1]) if r >= t
            else (stack[:, 0], stack[:, 1]))
    a, d = _inner(u, u)[0], _inner(v, v)[0]
    g_re, g_im = _inner(u, v)
    a_safe = np.where(a > 0.0, a, 1.0)  # u = 0 has g = 0
    coef = g_re / a_safe
    if g_im is not None:
        coef = coef + 1j * (g_im / a_safe)
    residual = v - coef[:, None] * u
    p, q = a, _inner(residual, residual)[0]
    g_abs = np.abs(g_re) if g_im is None else np.hypot(g_re, g_im)
    lam_max = 0.5 * (a + d) + np.hypot(0.5 * (a - d), g_abs)
    lam_min = p / np.where(lam_max > 0.0, lam_max, 1.0) * q  # H = 0: 0
    with np.errstate(divide="ignore"):
        logdet = np.log2(p) + np.log2(q)
    return lam_max, lam_min, logdet


def _two_antenna_stats(stack, gammas, stats):
    """{statistic: (len(gammas), k) array} of the requested ``stats`` of a
    (k, r, t) stack with min(r, t) = 2, from its closed-form invariants.

    The mutual information sums log2(1 + gamma lam) over both eigenvalues,
    one entry per (gamma, draw), so one gamma gives the bits of the grid's
    entry at that gamma.  The multiplexing rate is
    (2 log2 gamma + log2 det G) / t.
    """
    lam_max, lam_min, logdet = _two_antenna_invariants(stack)
    gam, cols = gammas[:, None], stack.shape[-1]
    values = {}
    if "mi" in stats:
        values["mi"] = (_log2_one_plus(gam, lam_max)
                        + _log2_one_plus(gam, lam_min)) / cols
    if "mr" in stats:
        values["mr"] = (2.0 * np.log2(gam) + logdet) / cols
    return values


def trial_stats(spec, proj, gammas, trials, master_seed, stats=STATS):
    """Per-trial statistics of the reference draw and of its projection.

    Trial t draws ``sample_matrix(spec, master_seed, t)`` once; the same
    draw feeds the projected system (common random numbers) and every gamma
    of the grid; ``proj`` is a ``ProjectorSpec`` (beta = 1 keeps every
    antenna).  Only the statistics named in ``stats`` (a subset of
    ``STATS``) are computed.  Returns a ``TrialStats``.
    """
    if not isinstance(proj, ProjectorSpec):
        raise ValueError(f"proj: every trial pairs its draw with a projection"
                         f"; pass a ProjectorSpec (beta = 1 keeps every "
                         f"antenna), got {proj!r}")
    if not is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    unknown = sorted(set(stats) - set(STATS))
    if unknown:
        raise ValueError(f"unknown statistics {unknown}; choose from {STATS}")
    gam = np.atleast_1d(np.asarray(gammas, dtype=float))
    if not np.all((gam > 0.0) & (gam < math.inf)):
        raise DomainError(f"requires finite gamma > 0, got {gammas}")
    out = {f"{stat}_{side}": np.empty((gam.size, trials))
           for stat in stats for side in ("ref", "proj")}
    chunk = max(1, CHUNK_BYTES // (16 * spec.rows * spec.cols))
    chunks = [range(lo, min(lo + chunk, trials))
              for lo in range(0, trials, chunk)]
    # A one-chunk call has nothing to overlap.  A one-trial chunk is a draw
    # over 128 KiB: a second block of normals would cost more memory than
    # the overlap saves.  The serial loop gives each chunk a new block that
    # only the caller holds, so a one-trial chunk's draw and temporaries are
    # freed once reduced, and the peak stays one draw and its factorization.
    streams = _TrialStreams(master_seed)
    shape = _normals_shape(spec, len(chunks[0]))
    normals = (_pipelined_normals(streams, shape, chunks)
               if chunk > 1 and len(chunks) > 1 else
               (streams.fill(np.empty(shape), batch) for batch in chunks))
    scratch = {} if chunk > 1 else None
    with contextlib.closing(normals):
        for batch in chunks:
            # No name here holds a chunk's draws, so they are freed before
            # the next chunk is sampled.
            values = _chunk_stats(
                _sample_chunk(spec, next(normals), batch, scratch), proj, gam,
                stats, scratch)
            for name, value in values.items():
                out[name][:, batch.start:batch.stop] = value
    return TrialStats(**out)


def _chunk_stats(block, proj, gam, stats, scratch):
    """The requested statistics of a (k, r, t) stack of draws, as
    {``TrialStats`` field: (len(gam), k) array}."""
    systems = {"ref": block, "proj": apply_projector(block, proj)}
    values, lapack = {}, {}
    for side, stack in systems.items():
        if min(stack.shape[1:]) != 2:
            lapack[side] = stack
            continue
        for stat, value in _two_antenna_stats(stack, gam, stats).items():
            values[f"{stat}_{side}"] = value
    if "mi" in stats and lapack:
        # _paired_grams shares a Gram product only between systems with the
        # same smaller side, so a system left here alone has its own Gram
        # there too.
        grams = (_paired_grams(block, proj, scratch) if len(lapack) == 2
                 else [_gram_smaller_side(s) for s in lapack.values()])
        for (side, stack), gram in zip(lapack.items(), grams):
            values[f"mi_{side}"] = _mutual_info(
                gram, stack.shape[-1], gam,
                _scratch_array(scratch, gram.shape, gram.dtype, "a"))
    if "mr" in stats:
        for side, stack in lapack.items():
            values[f"mr_{side}"] = _multiplexing_rate(stack, gam)
    return values


def mean_stderr(values):
    """Means and standard errors over the last axis (the trials)."""
    return (np.mean(values, axis=-1),
            np.std(values, axis=-1, ddof=1) / math.sqrt(values.shape[-1]))


def _estimate(values, master_seed):
    mean, stderr = mean_stderr(values)
    return ErgodicEstimate(float(mean), float(stderr), values.size, master_seed)


def ergodic_loss(spec, proj, gamma, trials, master_seed):
    """Paired mutual-information loss per reference transmit antenna.

    The same draw feeds the reference and the projected term (common random
    numbers).  Receive side: I(H) - I(P H).  Transmit side the projected term
    is weighted by the kept fraction so both are per reference antenna.
    """
    s = trial_stats(spec, proj, [gamma], trials, master_seed, ("mi",))
    weight = 1.0
    if proj.side == "transmit":
        weight = kept_count(proj.beta, spec.cols) / spec.cols
    return _estimate(s.mi_ref[0] - weight * s.mi_proj[0], master_seed)


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
