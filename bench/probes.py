"""Per-layer probes: each times one layer's public functions at the
workloads' shapes, from outside the library, with no wrappers installed.

A probe repeats its timed unit (one call, or a batch of calls when one call
takes microseconds) and reports the median.  Each timed unit is recorded as
one span named after the layer function it calls, with the metric name as
its job id.  The two counts come from counting subclasses: they are exact
and must repeat run to run.
"""

import contextlib
import io
import math
import os
import statistics
import time

import freemimo.acceptance as acc
import freemimo.asymptotics as asy
import freemimo.cli as cli
import freemimo.experiments as ex
import freemimo.infotheory as it
import freemimo.montecarlo as mc
import freemimo.quadrature as quad
import freemimo.spectra as sp


class CountingFactor(sp.SpectralFamily):
    """A spectral factor that counts its S-transform evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.s_evals = 0

    @property
    def alpha(self):
        return self.inner.alpha

    def s_transform(self, z):
        self.s_evals += 1
        return self.inner.s_transform(z)


class CountingFreeProduct(sp.FreeProduct):
    """A free product that counts its Psi evaluations (quadrature nodes)."""

    def __init__(self, *factors):
        super().__init__(*factors)
        object.__setattr__(self, "psi_evals", 0)

    def psi(self, z):
        object.__setattr__(self, "psi_evals", self.psi_evals + 1)
        return super().psi(z)


def _runge(x):
    return 1.0 / (1.0 + 25.0 * x * x)


class Probes:
    def __init__(self, tracer, seed, out_dir, reduced):
        self.tracer = tracer
        self.seed = seed * 1000 + 900
        self.out_dir = out_dir
        self.quick = reduced
        self.values = {}

    def _timed(self, metric, label, fn, reps, per=1, scale=1e6):
        """Median over ``reps`` of fn's wall time / per, times ``scale``."""
        samples = []
        for _ in range(1 if self.quick else reps):
            with self.tracer.span(label, metric):
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
            samples.append(dt * scale / per)
        self.values[metric] = statistics.median(samples)

    def _batch(self, metric, label, fn, batch, reps=11, scale=1e6):
        self._timed(metric, label, lambda: [fn() for _ in range(batch)], reps,
                    per=batch, scale=scale)

    def montecarlo(self):
        s = self.seed
        self._timed("montecarlo.trial_rng_us", "montecarlo.trial_rng",
                    lambda: [mc.trial_rng(s, t) for t in range(200)], 11,
                    per=200)
        for shape, (r, t), batch, reps in (("4x2", (4, 2), 200, 11),
                                           ("64x32", (64, 32), 20, 11),
                                           ("512x512", (512, 512), 1, 5)):
            spec = mc.EnsembleSpec("iid_complex_gaussian", r, t, 1.0)
            self._batch(f"montecarlo.sample_matrix_us.{shape}",
                        "montecarlo.sample_matrix",
                        lambda spec=spec: mc.sample_matrix(spec, s, 0), batch,
                        reps)
        spec = mc.EnsembleSpec("iid_complex_gaussian", 4, 2, 16.0)
        proj = mc.ProjectorSpec("receive", 0.5)
        self._timed("montecarlo.ergodic_loss_us_per_trial.4x2",
                    "montecarlo.ergodic_loss",
                    lambda: mc.ergodic_loss(spec, proj, 1e8, 1000, s), 5,
                    per=1000)
        for name, spec in (
                ("iid512", mc.EnsembleSpec("iid_complex_gaussian", 512, 512)),
                ("product512", mc.EnsembleSpec("product_iid", 512, 512,
                                               factors=2)),
                ("haar256", mc.EnsembleSpec("haar_unitary", 256, 256))):
            self._timed(f"montecarlo.ergodic_deviation_ms_per_trial.{name}",
                        "montecarlo.ergodic_deviation",
                        lambda spec=spec: mc.ergodic_deviation(spec, 0.5, 1e6,
                                                               2, s),
                        3, per=2, scale=1e3)

    def infotheory(self):
        s = self.seed
        for shape, (r, t), batch, reps in (("4x2", (4, 2), 200, 11),
                                           ("64x32", (64, 32), 20, 11),
                                           ("512x512", (512, 512), 1, 5)):
            h = mc.sample_matrix(
                mc.EnsembleSpec("iid_complex_gaussian", r, t, 1.0), s)
            self._batch(f"infotheory.mutual_info_finite_us.{shape}",
                        "infotheory.mutual_info_finite",
                        lambda h=h: it.mutual_info_finite(h, 1e3), batch, reps)
            if shape != "64x32":
                self._batch(f"infotheory.multiplexing_rate_finite_us.{shape}",
                            "infotheory.multiplexing_rate_finite",
                            lambda h=h: it.multiplexing_rate_finite(h, 1e3),
                            batch, reps)
        sq = sp.SquareIidGram(1.0)
        for name, fam, batch in (
                ("square_iid", sq, 20),
                ("free_product", sp.FreeProduct(sq, sq), 1),
                ("projector_scaled", sp.ProjectorScaled(sq, 0.5), 1)):
            self._batch(f"infotheory.mutual_info_measure_ms.{name}",
                        "infotheory.mutual_info_measure",
                        lambda fam=fam: it.mutual_info_measure(fam, 100.0),
                        batch, 5, scale=1e3)

    def experiments(self):
        s = self.seed
        grid = [float(g) for g in range(0, 81, 10)]
        for metric, params, per, scale in (
                ("experiments.run_us_per_trial.loss-curve-4x2",
                 dict(experiment="loss-curve", rows=4, cols=2, beta=0.5,
                      sigma2=16.0, gamma_db=grid, trials=5000), 5000, 1e6),
                ("experiments.run_us_per_trial.loss-convergence-64x32",
                 dict(experiment="loss-convergence", n_list=[64], phi=0.5,
                      beta=0.75, gamma_db=80.0, trials=1000), 1000, 1e6),
                ("experiments.run_ms_per_trial.deviation-sweep-512",
                 dict(experiment="deviation-sweep", n=512, beta_list=[0.5],
                      gamma_db=60.0, trials=2), 2, 1e3)):
            name = params.pop("experiment")
            config = ex.ExperimentConfig(name, dict(params, master_seed=s))
            self._timed(metric, "experiments.run_experiment",
                        lambda config=config: ex.run_experiment(config), 3,
                        per=per, scale=scale)

    def spectra_and_quadrature(self):
        emp = mc.empirical_spectrum(
            mc.EnsembleSpec("iid_complex_gaussian", 1024, 512, 1.0), self.seed)
        self._timed("spectra.log_mean_ms.empirical512", "spectra.log_mean",
                    lambda: sp.log_mean(emp), 3, scale=1e3)
        self._batch("spectra.s_transform_us.empirical512",
                    "spectra.s_transform",
                    lambda: sp.s_transform(emp, -0.5), 5)
        factor = CountingFactor(sp.SquareIidGram(1.0))
        product = CountingFreeProduct(factor, sp.SquareIidGram(1.0))
        with self.tracer.span("infotheory.mutual_info_measure",
                              "counts.mi_free_product"):
            it.mutual_info_measure(product, 100.0)
        self.values["spectra.s_evals.mi_free_product"] = factor.s_evals
        self.values["quadrature.psi_nodes.mi_free_product"] = product.psi_evals
        value = quad.integrate(_runge, -1.0, 1.0)
        if not abs(value - 0.4 * math.atan(5.0)) < 1e-9:
            raise RuntimeError(f"probe integrand: wrong value {value!r}")
        self._batch("quadrature.integrate_us", "quadrature.integrate",
                    lambda: quad.integrate(_runge, -1.0, 1.0), 20)
        product3 = sp.FreeProduct(*[sp.SquareIidGram(1.0)] * 3)
        self._batch("asymptotics.deviation_from_linear_ms.free_product3",
                    "asymptotics.deviation_from_linear",
                    lambda: asy.deviation_from_linear(product3, 0.5), 5,
                    scale=1e3)

    def acceptance(self):
        for cid, reps in (("C5", 3), ("C6", 5), ("C8", 5), ("C9", 5)):
            samples = []
            for _ in range(1 if self.quick else reps):
                with self.tracer.span("acceptance.run_all",
                                      f"acceptance.criterion_s.{cid}"):
                    (res,) = acc.run_all(only=(cid,))
                samples.append(res.seconds)
            self.values[f"acceptance.criterion_s.{cid}"] = \
                statistics.median(samples)

    def cli_overhead(self):
        path = os.path.join(self.out_dir, "probe_transforms.csv")
        argv = ["transforms", "--family", "square_iid", "--points", "25",
                "--out", path]
        config = ex.ExperimentConfig("transforms",
                                     {"family": "square_iid", "points": 25})
        via_cli, direct = [], []
        for _ in range(1 if self.quick else 11):
            with self.tracer.span("cli.main", "cli.overhead_ms"):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv)
                t1 = time.perf_counter()
                ex.run_experiment(config)
                t2 = time.perf_counter()
            via_cli.append(t1 - t0)
            direct.append(t2 - t1)
        self.values["cli.overhead_ms"] = 1e3 * (statistics.median(via_cli)
                                                - statistics.median(direct))

    def run_all(self):
        """Run every probe and return {metric name: value}."""
        self.montecarlo()
        self.infotheory()
        self.experiments()
        self.spectra_and_quadrature()
        self.acceptance()
        self.cli_overhead()
        return self.values
