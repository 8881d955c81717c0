import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import digamma

from freemimo import asymptotics as asy
from freemimo import infotheory as it
from freemimo import montecarlo as mc
from freemimo import spectra as sp

LN2 = math.log(2.0)


def _svd_stats(m, gamma):
    """(mutual information, multiplexing rate) of one matrix from its
    singular values: an inline reference independent of the kernels."""
    sigma2 = np.linalg.svd(m, compute_uv=False) ** 2
    return (np.sum(np.log2(1.0 + gamma * sigma2)) / m.shape[1],
            np.sum(np.log2(gamma * sigma2)) / m.shape[1])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic():
    spec = mc.EnsembleSpec("iid_complex_gaussian", 16, 8, 2.0)
    a = mc.sample_matrix(spec, 99, trial=3)
    b = mc.sample_matrix(spec, 99, trial=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, mc.sample_matrix(spec, 99, trial=4))
    assert not np.array_equal(a, mc.sample_matrix(spec, 100, trial=3))


# sha256 of sample_matrix(EnsembleSpec(kind, rows, cols, 2.0), 12345, trial=7)
# as little-endian bytes.  Gaussian draws are Philox normals times a scale,
# so any change to stream selection or scaling shows here; the odd sizes
# cover a re/im split that is not a power of two.  Haar and product draws go
# through LAPACK/BLAS and are left unpinned.
PINNED_DRAWS = {
    ("iid_complex_gaussian", 8, 4):
        "bc77bcb848e224906d06005bd1e1f2faec90bcbc45c0602b650e8dae5952bd04",
    ("iid_complex_gaussian", 3, 5):
        "eed0b6b9f1a55b30a3595a30c7b0c9aa7c0d9c293b0dca78d3a35643c8cfd055",
    ("iid_real_gaussian", 8, 4):
        "71c5419dca3702a977c94fc13a1bfb9550367dade992f84c656aa76e17981e5f",
    ("iid_real_gaussian", 5, 3):
        "145a00bf3a9c0d8746fa84acf8fe79cceb2ab7a7a5aaae34af656e77198dc8e0",
}


@pytest.mark.parametrize("kind, rows, cols", sorted(PINNED_DRAWS))
def test_gaussian_draw_bytes_are_pinned(kind, rows, cols):
    h = mc.sample_matrix(mc.EnsembleSpec(kind, rows, cols, 2.0), 12345, trial=7)
    data = np.ascontiguousarray(h, dtype=h.dtype.newbyteorder("<")).tobytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_DRAWS[kind, rows, cols]


# Seeds and trials at the ends of the 64-bit range and at a word boundary.
EDGE_SEEDS = (0, 2 ** 63, 2 ** 64 - 1)
EDGE_TRIALS = (0, 2 ** 32, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_rekeyed_streams_are_trial_rng_streams(seed):
    # The Python-int start state re-keys to exactly the stream of
    # trial_rng(seed, t), in any trial order and after any earlier fill.
    # Split over blocks (a product's factors), a trial's row takes the
    # numbers of one fill of the whole row.
    streams = mc._TrialStreams(seed)
    trials = EDGE_TRIALS + EDGE_TRIALS[::-1]
    out = np.empty((len(trials), 37))
    streams.fill([out], trials)
    split = streams.fill([np.empty((len(trials), 15)),
                          np.empty((len(trials), 22))], trials)
    for row, trial in zip(out, trials):
        expected = mc.trial_rng(seed, trial).standard_normal(37)
        assert row.tobytes() == expected.tobytes()
    assert np.hstack(split).tobytes() == out.tobytes()


def test_haar_unitarity():
    u = mc.sample_matrix(mc.EnsembleSpec("haar_unitary", 64, 64), 1)
    assert np.max(np.abs(u.conj().T @ u - np.eye(64))) < 1e-12


def test_iid_trace_normalization():
    # (1/T) E[tr H^H H] = sigma^2 for a single factor
    spec = mc.EnsembleSpec("iid_complex_gaussian", 512, 512, 1.0)
    h = mc.sample_matrix(spec, 2)
    assert abs(np.real(np.trace(h.conj().T @ h)) / 512 - 1.0) < 0.1
    spec = mc.EnsembleSpec("iid_real_gaussian", 512, 256, 3.0)
    h = mc.sample_matrix(spec, 3)
    assert abs(np.trace(h.T @ h) / 256 - 3.0 * (512 / 512)) < 0.3


def test_product_factors():
    spec = mc.EnsembleSpec("product_iid", 64, 64, 1.0, factors=3)
    h = mc.sample_matrix(spec, 4)
    assert h.shape == (64, 64)
    assert np.iscomplexobj(h)


def _product_reference(spec, seed, trial):
    """A product draw made independently of the engine: the trial's
    ``trial_rng`` normals, scaled into complex factors, multiplied left to
    right with @."""
    n, m = spec.rows, spec.factors
    z = mc.trial_rng(seed, trial).standard_normal((m, 2, n, n))
    z *= math.sqrt(spec.variance / (2 * n))
    factors = np.empty((m, n, n), complex)
    factors.real, factors.imag = z[:, 0], z[:, 1]
    prod = factors[0]
    for x in factors[1:]:
        prod = prod @ x
    return prod


@pytest.mark.parametrize("n", [65, 129, 257, 512])
@pytest.mark.parametrize("m", [2, 3])
def test_product_bytes_match_independent_reference(monkeypatch, m, n):
    # The running product is formed in the first factor's memory, one block
    # of rows at a time.  Its bytes are @'s, with blocks of the module's
    # size and with 64-row blocks (so 65, 129 and 257 rows end in a one-row
    # block that joins the one before it), in one-trial draws and in the
    # stacked chunks of 3 trials: 2 + 1 on the helper thread, 3 in one.
    spec = mc.EnsembleSpec("product_iid", n, n, 2.0, factors=m)
    expected = np.stack([_product_reference(spec, 31, t) for t in range(3)])
    drawn = []
    sample_chunk = mc._sample_chunk

    def recording(*args):
        drawn.append(sample_chunk(*args).copy())
        return drawn[-1]

    monkeypatch.setattr(mc, "_chunk_stats", lambda *args: {})
    for block_bytes in (mc.PRODUCT_BLOCK_BYTES, 1):
        monkeypatch.setattr(mc, "PRODUCT_BLOCK_BYTES", block_bytes)
        one = np.stack([mc.sample_matrix(spec, 31, t) for t in range(3)])
        assert one.tobytes() == expected.tobytes()
        monkeypatch.setattr(mc, "_sample_chunk", recording)
        for per_chunk in (1, 2, 3):
            drawn.clear()
            monkeypatch.setattr(mc, "CHUNK_BYTES", 16 * n * n * per_chunk)
            mc.trial_stats(spec, KEEP_ALL, [1.0], 3, 31, ("mr",))
            assert [len(d) for d in drawn] == [
                min(per_chunk, 3 - lo) for lo in range(0, 3, per_chunk)]
            assert np.concatenate(drawn).tobytes() == expected.tobytes()
        monkeypatch.setattr(mc, "_sample_chunk", sample_chunk)


@pytest.mark.parametrize("m, bound_mib", [(2, 10.5), (3, 11.0)])
def test_one_trial_product_holds_two_factors(m, bound_mib):
    # A one-trial product fills each factor's normals as it multiplies it
    # in, into one array shared by factors 2..m, and forms the product in
    # the first factor's memory: two draws (4 MiB each) and the
    # interleave's im copy (2 MiB), whatever m is.  With every factor's
    # normals in one block and each partial product new, the peak was
    # 12 MiB at m = 2 and 20 MiB at m = 3.
    spec = mc.EnsembleSpec("product_iid", 512, 512, 1.0, factors=m)
    tracemalloc.start()
    try:
        h = mc.sample_matrix(spec, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.tobytes() == _product_reference(spec, 5, 0).tobytes()
    assert peak <= bound_mib * 2 ** 20


def test_ensemble_validation():
    with pytest.raises(ValueError):
        mc.EnsembleSpec("haar_unitary", 4, 2)
    with pytest.raises(ValueError):
        mc.EnsembleSpec("bogus", 4, 4)
    with pytest.raises(ValueError):
        mc.EnsembleSpec("iid_real_gaussian", 4, 4, variance=0.0)
    # An infinite or NaN scale would make every statistic NaN.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="variance"):
            mc.EnsembleSpec("iid_complex_gaussian", 4, 2, variance=bad)
    with pytest.raises(ValueError):
        mc.EnsembleSpec("product_iid", 4, 4, factors=0)
    # Only a product multiplies factors; another kind would ignore them.
    for kind, rows, cols in (("iid_complex_gaussian", 4, 2),
                             ("iid_real_gaussian", 4, 2),
                             ("haar_unitary", 4, 4)):
        with pytest.raises(ValueError, match="factors"):
            mc.EnsembleSpec(kind, rows, cols, factors=3)
        assert mc.EnsembleSpec(kind, rows, cols, factors=1).factors == 1


def test_spec_fields_follow_the_number_rule():
    # Dimensions and factor counts are integers, scales real numbers, and a
    # bool is neither: True would pass factors >= 1 and draw one factor, or
    # pass 0 < beta <= 1 and keep every antenna.
    for field, args in (("rows", (4.5, 4)), ("rows", (True, 4)),
                        ("cols", (4, 4.0)), ("variance", (4, 4, "1")),
                        ("variance", (4, 4, True)),
                        ("factors", (4, 4, 1.0, 2.0)),
                        ("factors", (4, 4, 1.0, True))):
        with pytest.raises(ValueError, match=field):
            mc.EnsembleSpec("product_iid", *args)
    for beta in (True, "0.5"):
        with pytest.raises(ValueError, match="beta"):
            mc.ProjectorSpec("receive", beta)
    spec = mc.EnsembleSpec("product_iid", np.int64(4), np.int64(4),
                           np.float32(2.0), factors=np.int64(2))
    assert mc.sample_matrix(spec, 0).shape == (4, 4)
    assert mc.ProjectorSpec("receive", np.float64(0.5)).beta == 0.5


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

def test_projector_examples():
    h = np.arange(8, dtype=float).reshape(4, 2)
    assert np.array_equal(mc.apply_projector(h, mc.ProjectorSpec("receive", 1.0)), h)
    top = mc.apply_projector(h, mc.ProjectorSpec("receive", 0.5))
    assert np.array_equal(top, h[:2, :])
    left = mc.apply_projector(h.T, mc.ProjectorSpec("transmit", 0.5))
    assert np.array_equal(left, h.T[:, :2])


def test_kept_count_round_half_up():
    assert mc.kept_count(0.5, 5) == 3
    assert mc.kept_count(0.5, 4) == 2
    assert mc.kept_count(1.0, 7) == 7
    assert mc.kept_count(0.01, 10) == 1


def test_projected_iid_stays_iid():
    # trace/variance oracle over many draws: per-entry variance unchanged
    spec = mc.EnsembleSpec("iid_complex_gaussian", 16, 8, 1.0)
    proj = mc.ProjectorSpec("receive", 0.5)
    acc = 0.0
    for t in range(1000):
        hp = mc.apply_projector(mc.sample_matrix(spec, 55, t), proj)
        acc += np.mean(np.abs(hp) ** 2)
    assert abs(acc / 1000 - 1.0 / 16) < 0.005 * (1.0 / 16) * 10


# ---------------------------------------------------------------------------
# empirical spectra of sampled ensembles
# ---------------------------------------------------------------------------

def test_haar_spectrum_is_unit():
    spec = mc.empirical_spectrum(mc.EnsembleSpec("haar_unitary", 32, 32), 6)
    assert np.max(np.abs(spec.eigenvalues - 1.0)) < 1e-10


def test_square_iid_spectral_edge():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 1024, 1024, 1.0), 7)
    assert abs(spec.eigenvalues[-1] - 4.0) < 0.3


def test_empirical_spectrum_holds_no_second_draw():
    spec = mc.EnsembleSpec("iid_complex_gaussian", 1024, 512)
    h = mc.sample_matrix(spec, 3)
    w = np.maximum(np.linalg.eigvalsh(h.conj().T @ h), 0.0)
    del h
    tracemalloc.start()
    try:
        got = mc.empirical_spectrum(spec, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.eigenvalues.tobytes() == w.tobytes()
    # The draw (8 MiB) is dropped before eigvalsh, and its Gram (4 MiB) is
    # built one 2 MiB block at a time: at one product and with the draw
    # kept alive, the peak was 20 MiB.
    assert peak <= 15 * 2 ** 20


def test_vanishing_variance_spectrum():
    spec = mc.empirical_spectrum(
        mc.EnsembleSpec("iid_complex_gaussian", 16, 16, 1e-28), 8)
    assert spec.eigenvalues[-1] < 1e-27


# ---------------------------------------------------------------------------
# ergodic estimators
# ---------------------------------------------------------------------------

# A beta = 1 cut keeps every antenna: the reference statistics of a call
# that takes it are those of the draw alone.
KEEP_ALL = mc.ProjectorSpec("receive", 1.0)


def _ergodic_mutual_info(spec, gamma, trials, seed):
    """(mean, stderr) of the reference draw's mutual information."""
    s = mc.trial_stats(spec, KEEP_ALL, [gamma], trials, seed, ("mi",))
    return mc.mean_stderr(s.mi_ref[0])


def test_ergodic_mutual_info_haar():
    mean, stderr = _ergodic_mutual_info(
        mc.EnsembleSpec("haar_unitary", 16, 16), 7.0, 10, 1)
    assert abs(mean - math.log2(8.0)) < 1e-12
    assert stderr < 1e-12


def test_ergodic_mutual_info_vanishing_variance():
    mean, _ = _ergodic_mutual_info(
        mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1e-28), 10.0, 5, 1)
    assert mean < 1e-20


def test_ergodic_mutual_info_self_consistency():
    # same estimator at two trial counts agrees within combined error bars
    spec = mc.EnsembleSpec("iid_complex_gaussian", 2, 2, 1.0)
    small = _ergodic_mutual_info(spec, 1e3, 3000, 12)
    large = _ergodic_mutual_info(spec, 1e3, 30000, 13)
    gap = abs(small[0] - large[0])
    assert gap < 3.0 * math.hypot(small[1], large[1])


# sha256 of the little-endian bytes of mi_ref then mr_ref of
# trial_stats(spec, KEEP_ALL, gammas, trials, 12345), at one gamma (1e3)
# and on a grid (1, 1e3, 1e8).  They are the bytes the reference draw's
# statistics had when trial_stats also took no projector: keeping every
# antenna changes none of them.
PINNED_REFERENCE_STATS = {
    "complex4x2": (mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 2.0), 300, (
        "ad23005ede9ae0b390c5a749aa538f25c3cb5e0404b3d261a83478bbec0341c3",
        "6f061c04be482014f1956b8ca741dd014eaf242d0745f65a5d345260e3e13faf")),
    "complex64x32": (mc.EnsembleSpec("iid_complex_gaussian", 64, 32, 2.0),
                     20, (
        "46c314e1268ca3e953d40932b8a905fb9b0b5968b668ec45491db13c1ba03527",
        "84d739ce2595f0b9d5ba47ded32e3b420465a675b7cda70e8d731bb481af4107")),
    "haar16": (mc.EnsembleSpec("haar_unitary", 16, 16), 20, (
        "348b2dacf3f85aa5b49482edf1eae3b29ec85afd64fe028c553b032a7b936c33",
        "8a791a0331b16540f9c6ce0a7210267b6e56e8ebdd5da812ceacdbd9b3a3ee93")),
    "product8x3": (mc.EnsembleSpec("product_iid", 8, 8, 2.0, factors=3), 20, (
        "edff647b33f928af33ea1843aa8bc57f199e2ef108de39d014ff73c3837795d9",
        "cbfa16fe535ecfc9626b83e4af0cc67bf52af981f5fa838930a4a8e47e1b86c8")),
}


@pytest.mark.parametrize("case", sorted(PINNED_REFERENCE_STATS))
def test_keep_all_reference_stats_are_pinned(case):
    spec, trials, digests = PINNED_REFERENCE_STATS[case]
    for gammas, digest in zip(([1e3], [1.0, 1e3, 1e8]), digests):
        s = mc.trial_stats(spec, KEEP_ALL, gammas, trials, 12345)
        data = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                        for a in (s.mi_ref, s.mr_ref))
        assert hashlib.sha256(data).hexdigest() == digest


def test_ergodic_loss_beta_one_is_zero():
    est = mc.ergodic_loss(mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1.0),
                          mc.ProjectorSpec("receive", 1.0), 10.0, 10, 3)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_paired_loss_is_pathwise_nonnegative():
    spec = mc.EnsembleSpec("iid_complex_gaussian", 8, 4, 1.0)
    proj = mc.ProjectorSpec("receive", 0.75)
    for t in range(50):
        h = mc.sample_matrix(spec, 77, t)
        hp = mc.apply_projector(h, proj)
        assert (it.mutual_info_finite(h, 100.0)
                - it.mutual_info_finite(hp, 100.0)) > -1e-12


def test_ergodic_loss_matches_wishart_oracle():
    # At gamma = 1e8 the finite-SNR remainder is ~1e-8; the exact mean of the
    # paired log-det loss follows from Wishart log-determinant moments.
    est = mc.ergodic_loss(mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1.0),
                          mc.ProjectorSpec("receive", 0.5), 1e8, 4000, 21)
    exact = (digamma(4) + digamma(3) - digamma(2) - digamma(1)) / (2 * LN2)
    assert abs(est.mean - exact) < 3.0 * est.stderr + 1e-6


def test_ergodic_loss_transmit_side():
    # removing columns: loss per reference transmit antenna, beta-weighted
    spec = mc.EnsembleSpec("iid_complex_gaussian", 2, 4, 1.0)
    proj = mc.ProjectorSpec("transmit", 0.5)
    trials = 64
    est = mc.ergodic_loss(spec, proj, 1e4, trials, 31)
    manual = np.mean([
        _svd_stats(mc.sample_matrix(spec, 31, t), 1e4)[0]
        - 0.5 * _svd_stats(
            mc.apply_projector(mc.sample_matrix(spec, 31, t), proj), 1e4)[0]
        for t in range(trials)])
    assert est.mean > 0.0
    assert abs(est.mean - float(manual)) < 1e-12


def test_ergodic_deviation_unitary_is_zero_to_rounding():
    # unit spectra make every trial zero up to eigensolver rounding
    est = mc.ergodic_deviation(mc.EnsembleSpec("haar_unitary", 64, 64),
                               0.5, 1e6, 10, 5)
    assert abs(est.mean) < 1e-12
    assert est.stderr < 1e-12


def test_ergodic_loss_monotone_in_gamma_common_seeds():
    spec = mc.EnsembleSpec("iid_complex_gaussian", 32, 16, 1.0)
    proj = mc.ProjectorSpec("receive", 0.75)
    means = []
    for gdb in (0.0, 10.0, 20.0, 30.0, 40.0):
        est = mc.ergodic_loss(spec, proj, 10.0 ** (gdb / 10.0), 100, 66)
        means.append(est.mean)
    assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))


def test_finite_size_losses_match_digamma_oracle():
    # MC estimate vs the exact finite-N Wishart mean, at gamma large enough
    # that the finite-SNR remainder is negligible.
    gamma = 1e8
    for n, trials in ((16, 4000), (64, 800)):
        t_cols, kept = n // 2, int(0.75 * n)
        spec = mc.EnsembleSpec("iid_complex_gaussian", n, t_cols, 1.0)
        s = mc.trial_stats(spec, mc.ProjectorSpec("receive", 0.75), [gamma],
                           trials, 42, ("mi",))
        loss = s.mi_ref[0] - s.mi_proj[0]
        mean = float(np.mean(loss))
        se = float(np.std(loss, ddof=1) / math.sqrt(trials))
        ks = np.arange(t_cols)
        exact = float(np.sum(digamma(n - ks) - digamma(kept - ks)) / (t_cols * LN2))
        assert abs(mean - exact) < 3.0 * se + 1e-7


def test_exact_finite_size_discrepancy_shrinks_with_n():
    # Large-system convergence, checked on the exact Wishart means.
    target = asy.binary_entropy_loss(0.5, 0.75)
    discs = []
    for n in (64, 128, 256, 512):
        t_cols, kept = n // 2, int(0.75 * n)
        ks = np.arange(t_cols)
        exact = float(np.sum(digamma(n - ks) - digamma(kept - ks)) / (t_cols * LN2))
        discs.append(abs(exact - target))
    assert all(a > b for a, b in zip(discs, discs[1:]))


def test_sup_property_of_deviation():
    # mutual-information deviation increases with SNR and is capped by the
    # multiplexing-rate deviation
    n, beta, trials = 256, 0.5, 40
    spec = mc.EnsembleSpec("iid_complex_gaussian", n, n, 1.0)
    gammas = [1.0, 1e2, 1e4, 1e6]
    s = mc.trial_stats(spec, mc.ProjectorSpec("receive", beta), gammas, trials,
                       91, ("mi",))
    dev = s.mi_proj - beta * s.mi_ref
    means = np.mean(dev, axis=1)
    ses = np.std(dev, axis=1, ddof=1) / math.sqrt(trials)
    for i in range(1, len(gammas)):
        assert means[i] >= means[i - 1] - 3.0 * (ses[i] + ses[i - 1])
    cap = asy.deviation_iid(beta)
    assert means[-1] <= cap + 3.0 * ses[-1]


def test_limiting_family_map():
    assert isinstance(mc.limiting_family(
        mc.EnsembleSpec("haar_unitary", 8, 8)), sp.Dirac)
    fam = mc.limiting_family(mc.EnsembleSpec("product_iid", 8, 8, 2.0, factors=3))
    assert isinstance(fam, sp.FreeProduct) and len(fam.factors) == 3
    assert isinstance(mc.limiting_family(
        mc.EnsembleSpec("iid_real_gaussian", 8, 4)), sp.SquareIidGram)


def test_trials_floor():
    with pytest.raises(ValueError):
        mc.trial_stats(mc.EnsembleSpec("haar_unitary", 4, 4), KEEP_ALL,
                       [1.0], 1, 0)


# ---------------------------------------------------------------------------
# the batched trial kernel
# ---------------------------------------------------------------------------

# One Gram product per draw serves the reference and its projection when
# both Grams are indexed by the kept side (a rank update, see
# montecarlo._paired_grams); every other cut gives each system its own
# Gram: a transmit cut of a tall draw, a receive cut of a wide or square
# one, and a cut that flips the smaller side.
GRAM_RULE_CASES = [
    ("rank_update", mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1.0),
     mc.ProjectorSpec("receive", 0.5)),
    ("rank_update", mc.EnsembleSpec("iid_real_gaussian", 4, 2, 1.0),
     mc.ProjectorSpec("receive", 0.5)),
    ("rank_update", mc.EnsembleSpec("iid_complex_gaussian", 2, 4, 1.0),
     mc.ProjectorSpec("transmit", 0.5)),
    ("rank_update", mc.EnsembleSpec("iid_complex_gaussian", 64, 32, 1.0),
     mc.ProjectorSpec("receive", 0.75)),
    ("rank_update", mc.EnsembleSpec("product_iid", 8, 8, 1.0, factors=2),
     mc.ProjectorSpec("receive", 1.0)),
    ("separate", mc.EnsembleSpec("haar_unitary", 16, 16),
     mc.ProjectorSpec("receive", 0.5)),
    ("separate", mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1.0),
     mc.ProjectorSpec("transmit", 0.5)),
    ("separate", mc.EnsembleSpec("iid_complex_gaussian", 2, 4, 1.0),
     mc.ProjectorSpec("receive", 0.5)),
    ("separate", mc.EnsembleSpec("iid_complex_gaussian", 64, 32, 1.0),
     mc.ProjectorSpec("receive", 0.25)),
    ("rank_update", mc.EnsembleSpec("iid_real_gaussian", 2, 2, 1.0),
     mc.ProjectorSpec("receive", 1.0)),
]
GRAM_RULE_IDS = ["complex4x2", "real4x2", "transmit2x4", "complex64x32",
                 "product8", "haar16", "transmit4x2", "receive2x4",
                 "complex64x32-beta0.25", "real2x2-beta1"]


@pytest.mark.parametrize("spec, proj", [c[1:] for c in GRAM_RULE_CASES],
                         ids=GRAM_RULE_IDS)
def test_trial_stats_match_reference_path(spec, proj):
    # A system with two antennas on its smaller side (4 x 2, 2 x 2, 2 x 4)
    # takes the closed form at every gamma; any other takes the eigenvalue
    # route over a grid and the Cholesky route at one gamma.  The reference
    # is the SVD of H.  The engine's mutual information works on a Gram
    # matrix, which squares the condition number kappa of H; its rounding
    # is about eps * kappa^2, so that is allowed on top of 1e-12.  The
    # grid's ends, 1e-12 and 1e300, check that neither route loses the
    # small-SNR slope or overflows at extreme SNR.
    trials = 60
    for gammas in ([1e-12, 1.0, 1e3, 1e8, 1e300], [1e3]):
        s = mc.trial_stats(spec, proj, gammas, trials, 5)
        for t in range(trials):
            h = mc.sample_matrix(spec, 5, t)
            for m, mi, mr in ((h, s.mi_ref, s.mr_ref),
                              (mc.apply_projector(h, proj), s.mi_proj,
                               s.mr_proj)):
                tol = 1e-12 + np.finfo(float).eps * np.linalg.cond(m) ** 2
                for i, g in enumerate(gammas):
                    mi_svd, mr_svd = _svd_stats(m, g)
                    assert abs(mi[i, t] - mi_svd) < tol
                    assert abs(mr[i, t] - mr_svd) < tol


@pytest.mark.parametrize("rule, spec, proj", GRAM_RULE_CASES,
                         ids=GRAM_RULE_IDS)
def test_paired_grams_take_the_named_rule(rule, spec, proj):
    block = np.stack([mc.sample_matrix(spec, 3, t) for t in range(4)])
    gram, proj_gram = mc._paired_grams(block, proj)
    assert (gram.shape == proj_gram.shape) == (rule == "rank_update")
    # Each Gram has the determinant of its system's own smaller-side Gram.
    for g, h in ((gram, block), (proj_gram, mc.apply_projector(block, proj))):
        direct = it._gram_smaller_side(h)
        assert np.allclose(np.linalg.slogdet(g)[1],
                           np.linalg.slogdet(direct)[1], rtol=0, atol=1e-9)


def test_trial_stats_only_computes_requested():
    spec = mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1.0)
    s = mc.trial_stats(spec, KEEP_ALL, [10.0], 4, 1, ("mr",))
    assert s.mr_ref.shape == s.mr_proj.shape == (1, 4)
    assert s.mi_ref is None and s.mi_proj is None
    with pytest.raises(ValueError):
        mc.trial_stats(spec, KEEP_ALL, [10.0], 4, 1, ("capacity",))
    with pytest.raises(ValueError):
        mc.trial_stats(spec, KEEP_ALL, [10.0], 1, 1)
    # A count must be an integer: a float is named, not passed to range.
    for trials in (3.0, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            mc.trial_stats(spec, KEEP_ALL, [10.0], trials, 1)
    for trials in (3, np.int64(3)):
        assert mc.trial_stats(spec, KEEP_ALL, [10.0], trials, 1,
                              ("mr",)).mr_ref.shape == (1, 3)


def test_trial_stats_requires_a_projector():
    # Every trial pairs its draw with a projection; beta = 1 keeps all.
    spec = mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 1.0)
    with pytest.raises(ValueError, match="proj"):
        mc.trial_stats(spec, None, [10.0], 4, 1)


def _assert_chunking_never_changes_a_byte(monkeypatch, spec, proj, trials,
                                          prefix_trials):
    gammas = [10.0, 1e4]
    full = mc.trial_stats(spec, proj, gammas, trials, 8)
    prefix = mc.trial_stats(spec, proj, gammas, prefix_trials, 8)
    monkeypatch.setattr(mc, "CHUNK_BYTES", 1)
    one_at_a_time = mc.trial_stats(spec, proj, gammas, trials, 8)
    for name in ("mi_ref", "mi_proj", "mr_ref", "mr_proj"):
        assert np.array_equal(getattr(full, name)[:, :prefix_trials],
                              getattr(prefix, name))
        assert np.array_equal(getattr(full, name),
                              getattr(one_at_a_time, name))


def test_trial_stats_chunking_never_changes_a_byte(monkeypatch):
    # 64x32 complex draws stack 8 to a chunk, so 300 trials span 38
    # pipelined chunks and a 130-trial run ends mid-chunk.
    _assert_chunking_never_changes_a_byte(
        monkeypatch, mc.EnsembleSpec("iid_complex_gaussian", 64, 32, 1.0),
        mc.ProjectorSpec("receive", 0.75), 300, 130)


def test_two_antenna_chunking_never_changes_a_byte(monkeypatch):
    # 4x2 draws stack 2048 to a chunk, so 4500 trials span three
    # pipelined chunks and a 2100-trial run ends mid-chunk.
    _assert_chunking_never_changes_a_byte(
        monkeypatch, mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 16.0),
        mc.ProjectorSpec("receive", 0.5), 4500, 2100)


def test_product_multiplexing_rate_matches_slogdet():
    # The Gram of a product of two 512x512 factors has genuine eigenvalues
    # below max * dim * 2^-40; a relative rank threshold would drop them
    # and bias the rate.
    n, gamma = 512, 1e6
    spec = mc.EnsembleSpec("product_iid", n, n, 1.0, factors=2)
    proj = mc.ProjectorSpec("receive", 0.5)
    s = mc.trial_stats(spec, proj, [gamma], 3, 307, ("mr",))
    for t in range(3):
        h = mc.sample_matrix(spec, 307, t)
        hp = mc.apply_projector(h, proj)
        _, logdet = np.linalg.slogdet(h)
        _, logdet_p = np.linalg.slogdet(hp @ hp.conj().T)
        ref = (n * math.log2(gamma) + 2.0 * logdet / LN2) / n
        proj_ref = (hp.shape[0] * math.log2(gamma) + logdet_p / LN2) / n
        assert abs(s.mr_ref[0, t] - ref) < 1e-9
        assert abs(s.mr_proj[0, t] - proj_ref) < 1e-9


def test_one_gamma_mutual_info_falls_back_when_cholesky_fails():
    # At gamma = 1e30, I + gamma G of this rank-one Gram rounds to a
    # singular matrix: Cholesky fails, and the one-gamma route must give
    # the grid route's value instead of raising, for one matrix too.
    stack = np.ones((1, 4, 2))
    gram = it._gram_smaller_side(stack)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.eye(2) + 1e30 * gram[0])
    assert abs(it.mutual_info_finite(stack[0], 1e30)
               - math.log2(8e30) / 2) < 1e-12
    one = mc._mutual_info(gram, 2, np.array([1e30]))
    grid = mc._mutual_info(gram, 2, np.array([1e30, 1.0]))
    assert np.array_equal(one[0], grid[0])
    assert abs(one[0, 0] - math.log2(8e30) / 2) < 1e-12


def test_log2_one_plus_patches_only_overflowing_entries():
    gam = np.array([[1.0], [1e300]])
    lam = np.array([0.0, 1e-300, 2.0, 1e10, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = it._log2_one_plus(gam, lam)
    with np.errstate(over="ignore"):
        plain = np.log2(1.0 + gam * lam)
        finite = np.isfinite(gam * lam)
    assert got[finite].tobytes() == plain[finite].tobytes()
    assert abs(got[1, 3] - (math.log2(1e300) + math.log2(1e10))) < 1e-12
    assert got[0, 4] == got[1, 4] == math.inf


@pytest.mark.parametrize("rows, cols", [(4, 2), (8, 4)], ids=["4x2", "8x4"])
def test_mutual_info_survives_gamma_lambda_overflow(rows, cols):
    # sigma^2 = 1e300 puts the Gram eigenvalues near 1e300, so gamma lambda
    # at gamma = 1e30 passes the largest double, yet log2(1 + gamma lambda)
    # is log2 gamma + log2 lambda to rounding.  4 x 2 and its cut take the
    # closed form.  8 x 4 and its cut take Cholesky, whose factor of
    # I + gamma G is then not finite, and fall back to the eigenvalue route.
    spec = mc.EnsembleSpec("iid_complex_gaussian", rows, cols, 1e300)
    proj = mc.ProjectorSpec("receive", 0.5)
    gamma = 1e30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = mc.trial_stats(spec, proj, [gamma], 3, 7, ("mi",))
        grid = mc.trial_stats(spec, proj, [gamma, 1.0], 3, 7, ("mi",))
    assert s.mi_ref.tobytes() == grid.mi_ref[:1].tobytes()
    assert s.mi_proj.tobytes() == grid.mi_proj[:1].tobytes()
    for t in range(3):
        h = mc.sample_matrix(spec, 7, t)
        for m, mi in ((h, s.mi_ref), (mc.apply_projector(h, proj), s.mi_proj)):
            lam = np.linalg.eigvalsh(it._gram_smaller_side(m))
            expected = np.sum(math.log2(gamma) + np.log2(lam)) / cols
            assert abs(mi[0, t] - expected) < 1e-9


def test_cholesky_fallback_fires_per_system(monkeypatch):
    # The reference draws have full rank, but the three kept rows of the
    # first have rank two: its first two are dependent, and their Gram is
    # that of the test above.  So only the projected I + gamma G rounds to
    # singular at gamma = 1e30: the projection falls back to eigvalsh, and
    # the reference keeps its Cholesky log-det.  (Three columns: a
    # two-antenna draw takes no Cholesky at all.)
    eye = np.eye(3)
    block = np.array([[[2.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                       *eye], [*eye, *eye]])
    spec = mc.EnsembleSpec("iid_real_gaussian", 6, 3, 1.0)
    proj = mc.ProjectorSpec("receive", 0.5)
    gamma = 1e30
    monkeypatch.setattr(mc, "_sample_chunk",
                        lambda spec, streams, trials, scratch=None:
                        block[:len(trials)])
    eig_calls = []
    eigvalsh = np.linalg.eigvalsh

    def spying(a):
        eig_calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spying)
    s = mc.trial_stats(spec, proj, [gamma], 2, 0, ("mi",))
    assert eig_calls == [(2, 3, 3)]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.eye(3) + gamma * it._gram_smaller_side(
            block[0, :3]))
    for t in range(2):
        assert abs(s.mi_ref[0, t] - _svd_stats(block[t], gamma)[0]) < 1e-12
    w = np.linalg.eigvalsh(it._gram_smaller_side(block[:, :3]))
    expected = np.sum(np.log2(1.0 + gamma * np.maximum(w, 0.0)), axis=1) / 3
    assert np.array_equal(s.mi_proj[0], expected)
    assert abs(s.mi_proj[0, 0] - (math.log2(8e30) + math.log2(1e30)) / 3
               ) < 1e-12


def test_two_antenna_rank_one_cut_at_extreme_snr(monkeypatch):
    # Full-rank 4 x 2 draws whose two kept rows have rank one (the first)
    # or full rank (the second).  At gamma = 1e30 the Cholesky route fails
    # on the rank-one kept rows; the closed form gives the singular Gram's
    # one eigenvalue, 8, and an exact zero, and the full-rank references
    # match their SVD.
    block = np.array([[[2.0, 2.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                      [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]])
    spec = mc.EnsembleSpec("iid_real_gaussian", 4, 2, 1.0)
    proj = mc.ProjectorSpec("receive", 0.5)
    gamma = 1e30
    monkeypatch.setattr(mc, "_sample_chunk",
                        lambda spec, streams, trials, scratch=None:
                        block[:len(trials)])
    s = mc.trial_stats(spec, proj, [gamma], 2, 0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.eye(2) + gamma * it._gram_smaller_side(
            block[0, :2]))
    assert abs(s.mi_proj[0, 0] - math.log2(8e30) / 2) < 1e-12
    assert s.mr_proj[0, 0] == -math.inf
    for t in range(2):
        assert abs(s.mi_ref[0, t] - _svd_stats(block[t], gamma)[0]) < 1e-12


@pytest.mark.parametrize("spec, proj", [
    (mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 16.0),
     mc.ProjectorSpec("receive", 0.5)),
    (mc.EnsembleSpec("iid_real_gaussian", 4, 2, 16.0),
     mc.ProjectorSpec("receive", 0.5)),
    (mc.EnsembleSpec("iid_complex_gaussian", 2, 4, 1.0),
     mc.ProjectorSpec("transmit", 0.5)),
], ids=["complex4x2", "real4x2", "transmit2x4"])
def test_two_antenna_trial_stats_call_no_linalg(monkeypatch, spec, proj):
    # 4100 trials span three chunks, the last of 4 trials.
    calls = []

    def spy(name, function):
        def spying(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return spying

    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if not isinstance(function, type):  # LinAlgError
            monkeypatch.setattr(np.linalg, name, spy(name, function))
    for gammas in ([1e3], [1.0, 1e3, 1e8]):
        s = mc.trial_stats(spec, proj, gammas, 4100, 2)
        assert np.all(np.isfinite(s.mi_ref)) and np.all(np.isfinite(s.mr_ref))
    assert calls == []


def _qr_logdet_bits(h):
    upper = np.linalg.qr(h, mode="r")
    return 2.0 * float(np.sum(np.log2(np.abs(np.diagonal(upper)))))


@pytest.mark.parametrize("spec, trials", [
    (mc.EnsembleSpec("iid_complex_gaussian", 8, 8, 1.0), 40),
    (mc.EnsembleSpec("product_iid", 8, 8, 1.0, factors=3), 40),
    (mc.EnsembleSpec("haar_unitary", 16, 16), 20),
    (mc.EnsembleSpec("product_iid", 512, 512, 1.0, factors=2), 2),
], ids=["iid8", "product8x3", "haar16", "product512"])
def test_square_multiplexing_rate_lu_matches_qr(spec, trials):
    # Square draws take an LU log-det (slogdet); the rectangular route's QR
    # log-det of the same draw is the reference.
    n, gamma = spec.rows, 1e6
    s = mc.trial_stats(spec, KEEP_ALL, [gamma], trials, 17, ("mr",))
    for t in range(trials):
        h = mc.sample_matrix(spec, 17, t)
        ref = (n * math.log2(gamma) + _qr_logdet_bits(h)) / n
        assert abs(s.mr_ref[0, t] - ref) < 1e-9


@pytest.mark.parametrize("spec", [
    mc.EnsembleSpec("iid_complex_gaussian", 3, 5, 2.0),
    mc.EnsembleSpec("iid_real_gaussian", 4, 2, 2.0),
    mc.EnsembleSpec("haar_unitary", 5, 5),
    mc.EnsembleSpec("product_iid", 4, 4, 3.0, factors=3),
], ids=lambda spec: spec.kind)
@pytest.mark.parametrize("per_chunk", [1, 3, 10])
def test_engine_draws_match_sample_matrix(monkeypatch, spec, per_chunk):
    # The engine's chunked draws are byte for byte the one-trial draws,
    # whether 10 trials run one, three (3+3+3+1) or ten to a chunk.
    blocks = []
    sample_chunk = mc._sample_chunk

    def recording(*args):
        block = sample_chunk(*args)
        blocks.append(block.copy())
        return block

    monkeypatch.setattr(mc, "_sample_chunk", recording)
    monkeypatch.setattr(mc, "CHUNK_BYTES", 16 * spec.rows * spec.cols * per_chunk)
    mc.trial_stats(spec, KEEP_ALL, [1.0], 10, 9, ("mr",))
    assert [len(b) for b in blocks] == [
        min(per_chunk, 10 - lo) for lo in range(0, 10, per_chunk)]
    drawn = np.concatenate(blocks)
    expected = np.stack([mc.sample_matrix(spec, 9, t) for t in range(10)])
    assert drawn.dtype == expected.dtype
    assert drawn.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", [
    mc.EnsembleSpec("iid_complex_gaussian", 3, 5, 2.0),
    mc.EnsembleSpec("iid_real_gaussian", 4, 2, 2.0),
    mc.EnsembleSpec("product_iid", 4, 4, 3.0, factors=3),
], ids=lambda spec: spec.kind)
def test_one_trial_chunks_refill_one_block(monkeypatch, spec):
    # A call's one-trial chunks are each drawn in the same array, which
    # keeps its pages mapped from trial to trial.
    blocks = []
    sample_chunk = mc._sample_chunk

    def recording(*args):
        blocks.append(sample_chunk(*args))
        return blocks[-1]

    monkeypatch.setattr(mc, "_sample_chunk", recording)
    monkeypatch.setattr(mc, "CHUNK_BYTES", 1)
    mc.trial_stats(spec, KEEP_ALL, [1.0], 4, 9, ("mr",))
    assert len(blocks) == 4
    assert all(np.shares_memory(blocks[0], block) for block in blocks)


# ---------------------------------------------------------------------------
# drawing the next chunk on a helper thread
# ---------------------------------------------------------------------------

PIPELINE_SPECS = [
    (mc.EnsembleSpec("iid_complex_gaussian", 8, 4, 2.0),
     mc.ProjectorSpec("receive", 0.5)),
    (mc.EnsembleSpec("iid_real_gaussian", 8, 4, 2.0),
     mc.ProjectorSpec("transmit", 0.5)),
    (mc.EnsembleSpec("haar_unitary", 6, 6), mc.ProjectorSpec("receive", 0.5)),
    (mc.EnsembleSpec("product_iid", 4, 4, 3.0, factors=3),
     mc.ProjectorSpec("receive", 0.75)),
]
PIPELINE_CALLS = [([1e3], ("mi",)), ([1.0, 1e3, 1e8], mc.STATS),
                  ([1e6], ("mr",))]


def _three_trial_chunks(monkeypatch, spec):
    """Stack 3 trials to a chunk (10 trials: 3 + 3 + 3 + 1) and return the
    threads that fill chunks with Philox normals."""
    monkeypatch.setattr(mc, "CHUNK_BYTES", 16 * spec.rows * spec.cols * 3)
    drawers = []
    fill = mc._TrialStreams.fill

    def recording(self, out, trials):
        drawers.append(threading.current_thread())
        return fill(self, out, trials)

    monkeypatch.setattr(mc._TrialStreams, "fill", recording)
    return drawers


def _stacked_reference(spec, proj, gammas, trials, seed):
    """Every statistic of the stack of one-trial draws, in one chunk.  A
    projection with two antennas on its smaller side (the real draw's
    transmit cut to 8 x 2) takes the closed form, and its reference then
    has its own Gram."""
    h = np.stack([mc.sample_matrix(spec, seed, t) for t in range(trials)])
    hp = mc.apply_projector(h, proj)
    gam = np.asarray(gammas, dtype=float)
    if min(hp.shape[1:]) == 2:
        closed = mc._two_antenna_stats(hp, gam, mc.STATS)
        return {"mi_ref": mc._mutual_info(mc._gram_smaller_side(h),
                                          h.shape[-1], gam),
                "mi_proj": closed["mi"],
                "mr_ref": mc._multiplexing_rate(h, gam),
                "mr_proj": closed["mr"]}
    gram, proj_gram = mc._paired_grams(h, proj)
    return {"mi_ref": mc._mutual_info(gram, h.shape[-1], gam),
            "mi_proj": mc._mutual_info(proj_gram, hp.shape[-1], gam),
            "mr_ref": mc._multiplexing_rate(h, gam),
            "mr_proj": mc._multiplexing_rate(hp, gam)}


@pytest.mark.parametrize("spec, proj", PIPELINE_SPECS,
                         ids=[spec.kind for spec, _ in PIPELINE_SPECS])
def test_pipelined_trial_stats_match_stacked_draws(monkeypatch, spec, proj):
    # Every chunk's normals are filled on the helper thread, and every byte
    # is that of the one-trial draws stacked and reduced in one chunk.
    drawers = _three_trial_chunks(monkeypatch, spec)
    for gammas, stats in PIPELINE_CALLS:
        drawers.clear()
        s = mc.trial_stats(spec, proj, gammas, 10, 21, stats)
        assert len(drawers) == 4
        assert threading.main_thread() not in drawers
        expected = _stacked_reference(spec, proj, gammas, 10, 21)
        for name, value in expected.items():
            got = getattr(s, name)
            assert (got is None) == (name[:2] not in stats)
            if got is not None:
                assert got.tobytes() == value.tobytes()


@pytest.mark.parametrize("spec, proj", PIPELINE_SPECS,
                         ids=[spec.kind for spec, _ in PIPELINE_SPECS])
def test_helper_thread_only_fills_normals(monkeypatch, spec, proj):
    # In a pipelined call the helper runs Philox fills and nothing else:
    # scaling, the re/im interleave, the Haar QR, the product's matmuls,
    # the Grams and every factorization run on the calling thread.
    drawers = _three_trial_chunks(monkeypatch, spec)
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def spying(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spying)

    for name in ("_sample_chunk", "_interleave", "_paired_grams",
                 "_gram_smaller_side", "_mutual_info", "_multiplexing_rate",
                 "_two_antenna_stats"):
        spy(mc, name)
    spy(np.linalg, "qr")
    spy(np, "matmul")
    mc.trial_stats(spec, proj, [1.0, 1e3], 10, 21)
    assert len(drawers) == 4
    assert len(set(drawers)) == 1
    assert drawers[0] is not threading.main_thread()
    assert {thread for _, thread in calls} == {threading.main_thread()}
    names = {name for name, _ in calls}
    # The real draw's transmit cut to 8 x 2 takes the closed form, and its
    # 8 x 4 reference its own Gram.
    two_antenna = spec.kind == "iid_real_gaussian"
    assert {"_sample_chunk", "_mutual_info", "_multiplexing_rate",
            "_two_antenna_stats" if two_antenna else "_paired_grams"} <= names
    assert ("_interleave" in names) == (spec.kind != "iid_real_gaussian")
    if spec.kind == "haar_unitary":
        assert "qr" in names
    if spec.kind == "product_iid":
        assert "matmul" in names


def test_helper_never_draws_into_a_stack_in_use(monkeypatch):
    # Statistics that take far longer than a draw: a helper that wrote
    # into the stack being reduced would change the bytes.
    spec, proj = PIPELINE_SPECS[0]
    _three_trial_chunks(monkeypatch, spec)
    rate = mc._multiplexing_rate

    def slow(stack, gam):
        before = stack.copy()
        time.sleep(0.005)
        assert np.array_equal(stack, before)
        return rate(stack, gam)

    monkeypatch.setattr(mc, "_multiplexing_rate", slow)
    s = mc.trial_stats(spec, proj, [1e3], 10, 21, ("mr",))
    expected = _stacked_reference(spec, proj, [1e3], 10, 21)
    assert s.mr_ref.tobytes() == expected["mr_ref"].tobytes()


def test_draw_error_propagates_and_joins_the_helper(monkeypatch):
    spec = mc.EnsembleSpec("iid_complex_gaussian", 8, 4, 1.0)
    drawers = _three_trial_chunks(monkeypatch, spec)
    fill = mc._TrialStreams.fill

    def failing_second(self, out, trials):
        if len(drawers) == 1:
            raise RuntimeError("draw failed")
        return fill(self, out, trials)

    monkeypatch.setattr(mc._TrialStreams, "fill", failing_second)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        mc.trial_stats(spec, KEEP_ALL, [10.0], 10, 4)
    assert len(drawers) == 1 and drawers[0] is not threading.main_thread()
    assert threading.active_count() == threads


def test_stats_error_joins_the_helper(monkeypatch):
    spec = mc.EnsembleSpec("iid_complex_gaussian", 8, 4, 1.0)
    _three_trial_chunks(monkeypatch, spec)
    calls = []

    def failing_second(*args):
        # Each chunk takes the rates of its draws and of their projection,
        # so the third call is the second chunk's.
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("statistics failed")
        return np.zeros((1, len(args[0])))

    monkeypatch.setattr(mc, "_multiplexing_rate", failing_second)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="statistics failed"):
        mc.trial_stats(spec, KEEP_ALL, [10.0], 10, 4, ("mr",))
    assert threading.active_count() == threads


def test_one_trial_chunks_draw_on_the_calling_thread(monkeypatch):
    spec = mc.EnsembleSpec("iid_complex_gaussian", 8, 4, 1.0)
    drawers = _three_trial_chunks(monkeypatch, spec)
    monkeypatch.setattr(mc, "CHUNK_BYTES", 1)
    mc.trial_stats(spec, KEEP_ALL, [10.0], 5, 4)
    assert drawers == [threading.main_thread()] * 5


def test_concurrent_pipelined_calls_share_nothing(monkeypatch):
    # Three callers, each with its own helper, on fewer cores, switching
    # threads every 10 us: every call still gets the bytes of the serial
    # loop's one-trial chunks.
    spec, proj = PIPELINE_SPECS[0]
    monkeypatch.setattr(mc, "CHUNK_BYTES", 1)
    serial = mc.trial_stats(spec, proj, [1e3], 30, 8)
    _three_trial_chunks(monkeypatch, spec)
    results = [None] * 3

    def call(i):
        results[i] = mc.trial_stats(spec, proj, [1e3], 30, 8)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for s in results:
        assert s.mi_ref.tobytes() == serial.mi_ref.tobytes()
        assert s.mi_proj.tobytes() == serial.mi_proj.tobytes()
