"""freemimo benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload loss-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each workload is a closed loop: its fixed job list runs back to back, pass
after pass, in this process until ``--seconds`` have elapsed (at least three
passes), with the same master seeds every pass, so every pass must produce
byte-identical outputs.  BLAS keeps its default thread count and
FREEMIMO_THREADS is removed from the environment.

``--trace 0`` reports the end-to-end metrics, each time divided by the
slowdown of fixed reference work measured around it (see reference.py);
``--trace 1`` is a separate run that probes each layer and traces job
passes (see probes.py, spans.py).
A human-readable table goes to stdout, a result file to bench/out/, and the
last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only if every job ran and passed its check.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("loss-grid", "deviation-large", "analytic")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "time_to_accuracy_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = ("montecarlo", "infotheory", "experiments", "spectra", "quadrature",
          "asymptotics", "acceptance", "cli")

PER_LAYER = {
    "montecarlo.trial_rng_us": "us",
    "montecarlo.sample_matrix_us.4x2": "us",
    "montecarlo.sample_matrix_us.64x32": "us",
    "montecarlo.sample_matrix_us.512x512": "us",
    "montecarlo.ergodic_loss_us_per_trial.4x2": "us",
    "montecarlo.ergodic_deviation_ms_per_trial.iid512": "ms",
    "montecarlo.ergodic_deviation_ms_per_trial.product512": "ms",
    "montecarlo.ergodic_deviation_ms_per_trial.haar256": "ms",
    "montecarlo.trials": "count",
    "infotheory.mutual_info_finite_us.4x2": "us",
    "infotheory.mutual_info_finite_us.64x32": "us",
    "infotheory.mutual_info_finite_us.512x512": "us",
    "infotheory.multiplexing_rate_finite_us.4x2": "us",
    "infotheory.multiplexing_rate_finite_us.512x512": "us",
    "infotheory.mutual_info_measure_ms.square_iid": "ms",
    "infotheory.mutual_info_measure_ms.free_product": "ms",
    "infotheory.mutual_info_measure_ms.projector_scaled": "ms",
    "experiments.run_us_per_trial.loss-curve-4x2": "us",
    "experiments.run_us_per_trial.loss-convergence-64x32": "us",
    "experiments.run_ms_per_trial.deviation-sweep-512": "ms",
    "spectra.log_mean_ms.empirical512": "ms",
    "spectra.s_transform_us.empirical512": "us",
    "spectra.s_evals.mi_free_product": "count",
    "quadrature.psi_nodes.mi_free_product": "count",
    "quadrature.integrate_us": "us",
    "asymptotics.deviation_from_linear_ms.free_product3": "ms",
    "acceptance.criterion_s.C5": "s",
    "acceptance.criterion_s.C6": "s",
    "acceptance.criterion_s.C8": "s",
    "acceptance.criterion_s.C9": "s",
    "cli.overhead_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_s": "s",
}

MIN_PASSES = 3
MAX_TRACED_PASSES = 3   # bounds the spans held in memory
SETUP_REPEATS = 9       # fresh processes timed, after one untimed cold start
CHILD_TIMEOUT_S = 170
REFERENCE_EVERY_S = 0.15  # job seconds between reference measurements
# The reference work that tracks each workload's slowdown (reference.py).
REFERENCE_KIND = {"loss-grid": "numeric", "deviation-large": "numeric",
                  "analytic": "calls"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="small trial counts and sizes (used by --smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload reduced, both trace modes, and "
                        "validate the result schema against BENCHMARK.json")
    p.add_argument("--setup-only", action="store_true",
                   help="import, build inputs, run the warm-up job, exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def child_env():
    env = dict(os.environ)
    env.pop("FREEMIMO_THREADS", None)
    return env


def run_child(cmd, cwd=ROOT):
    """Run a child process to completion (killed at the timeout)."""
    return subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)


def self_cmd(args, **overrides):
    opts = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **overrides}
    cmd = [sys.executable, str(Path(__file__).resolve())]
    for key, value in opts.items():
        if value is True:
            cmd.append(f"--{key.replace('_', '-')}")
        elif value is not None and value is not False:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    if args.reduced:
        cmd.append("--reduced")
    return cmd


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "freemimo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed, inherited_threads):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        # As found in the caller's environment; the run itself removes it.
        "FREEMIMO_THREADS": inherited_threads,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One pass of the job list.  ``calls`` holds (job index, s, output,
    error); ``slowdown`` the reference slowdown around each call (empty
    when the reference was not run); ``wall`` and ``cpu`` sum the calls."""
    calls: list
    slowdown: list
    wall: float
    cpu: float

    def corrected(self):
        """(job index, call seconds at the reference's nominal speed)."""
        return [(j, dt / s) for (j, dt, _, _), s in zip(self.calls,
                                                       self.slowdown)]


def run_pass(jobs, tracer=None, pass_id="", reference_kind=None):
    """Run the job list once.  With a ``reference_kind``, that reference
    work runs before the first job and then whenever at least
    REFERENCE_EVERY_S of calls have run since it last ran, and after the
    last job; each call gets the mean of the two slowdowns around it."""
    calibrate = reference_kind is not None
    calls, slow, cpu = [], [], 0.0
    before = reference.slowdown(reference_kind) if calibrate else None
    pending = 0.0
    for j, job in enumerate(jobs):
        span = (tracer.span("bench.job", f"{pass_id}:{job.id}") if tracer
                else contextlib.nullcontext())
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with span:
                out = job.run()
            err = None
        except Exception as exc:  # a failing job is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        calls.append((j, dt, out, err))
        pending += dt
        if calibrate and (pending >= REFERENCE_EVERY_S or j == len(jobs) - 1):
            after = reference.slowdown(reference_kind)
            slow += [0.5 * (before + after)] * (len(calls) - len(slow))
            before, pending = after, 0.0
    return Pass(calls, slow, sum(dt for _, dt, _, _ in calls), cpu)


def evaluate(jobs, passes):
    """Check every call: it ran, its bytes equal the first pass's, and its
    output passes the job's check.  Returns (failures, per-job records,
    workload output SHA-256)."""
    first, verdicts, failures = {}, {}, []
    for p, one in enumerate(passes):
        for j, _, out, err in one.calls:
            job = jobs[j]
            if err is not None:
                failures.append({"pass": p, "job": job.id, "reason": err})
                continue
            ref = first.setdefault(j, out)
            if out != ref:
                failures.append({"pass": p, "job": job.id,
                                 "reason": "output differs from first pass"})
                continue
            if j not in verdicts:
                try:
                    verdicts[j] = job.check(out)
                except Exception as exc:  # a malformed output fails its job
                    verdicts[j] = exc
            bad = verdicts[j]
            if isinstance(bad, Exception):
                failures.append({"pass": p, "job": job.id,
                                 "reason": f"check raised {bad!r}"})
            elif not all(c.passed for c in bad):
                failures.append({"pass": p, "job": job.id, "reason": "; ".join(
                    c.name for c in bad if not c.passed)})
    digest = hashlib.sha256()
    records = []
    for j, job in enumerate(jobs):
        out = first.get(j)
        digest.update(job.id.encode() + b"\0" + (out or b"<no output>")
                      + b"\0")
        checks = verdicts.get(j)
        records.append({
            "id": job.id,
            "output_sha256": hashlib.sha256(out).hexdigest() if out else None,
            "checks": ([[c.name, c.measured, c.tolerance, c.passed]
                        for c in checks] if isinstance(checks, list) else
                       repr(checks)),
        })
    return failures, records, digest.hexdigest()


def accuracy_factors(jobs, passes):
    """(se/target)^2 per job from its first output; 1 for exact jobs, whose
    one call already reaches any target."""
    factors = []
    for j, job in enumerate(jobs):
        out = next((o for p in passes for jj, _, o, _ in p.calls
                    if jj == j and o is not None), None)
        if job.accuracy is None:
            factors.append(1.0)
        elif out is None:
            factors.append(math.nan)
        else:
            try:
                factors.append(float(job.accuracy(out)))
            except Exception:  # malformed output; the check reports it
                factors.append(math.nan)
    return factors


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def timing_metrics(jobs, passes, setup_times):
    """The end-to-end metrics; every time is at the reference's nominal
    speed (see reference.py)."""
    factors = accuracy_factors(jobs, passes)
    walls = [sum(dt for _, dt in p.corrected()) for p in passes]
    to_accuracy = [sum(dt * factors[j] for j, dt in p.corrected())
                   for p in passes]
    call_ms = [1e3 * dt for p in passes for _, dt in p.corrected()]
    deciles = statistics.quantiles(call_ms, n=10)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(statistics.median(setup_times), "s",
                           len(setup_times)),
        "wall_s": _metric(statistics.median(walls), "s", len(walls)),
        "time_to_accuracy_s": _metric(statistics.median(to_accuracy), "s",
                                      len(to_accuracy)),
        "call_p50_ms": _metric(deciles[4], "ms", len(call_ms)),
        "call_p90_ms": _metric(deciles[8], "ms", len(call_ms)),
        "peak_rss_mb": _metric(rss_mb, "MB", 1),
    }


def _child_seconds(cmd):
    """Wall seconds of one child process, which must exit with 0."""
    t0 = time.perf_counter()
    proc = run_child(cmd)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[1:]} failed:\n{proc.stderr}")
    return dt


def measure_setup(args):
    """setup_s samples: wall time of fresh --setup-only processes, each
    divided by the start-up slowdown (reference.STARTUP_CODE) measured in
    a fresh process just before and after it.  Also returns the raw times."""
    cmd = self_cmd(args, setup_only=True, seconds=None, trace=None)
    startup = [sys.executable, "-c", reference.STARTUP_CODE]
    _child_seconds(cmd)  # cold start, untimed
    before = _child_seconds(startup) / reference.STARTUP_NOMINAL_S
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        dt = _child_seconds(cmd)
        after = _child_seconds(startup) / reference.STARTUP_NOMINAL_S
        times.append(dt / (0.5 * (before + after)))
        raw.append(dt)
        before = after
    return times, raw


def setup(args, out_dir):
    """Import freemimo, build the workload's inputs, run one warm-up job."""
    import freemimo.cli  # noqa: F401  (users pay this import on every call)
    import workloads
    workload = workloads.build(args.workload, args.seed, args.reduced,
                               str(out_dir))
    workload.warmup.run()
    return workload


# ---------------------------------------------------------------------------
# the two run kinds
# ---------------------------------------------------------------------------

def timing_run(args, tmp):
    kind = REFERENCE_KIND[args.workload]
    reference.warm_up(kind)
    setup_times, setup_raw = measure_setup(args)
    workload = setup(args, tmp)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(workload.jobs, reference_kind=kind))
    metrics = timing_metrics(workload.jobs, passes, setup_times)
    extra = {"reference": kind,
             "setup_samples_s": setup_times, "setup_raw_s": setup_raw,
             "uncorrected_wall_s": statistics.median(p.wall for p in passes),
             "slowdown": statistics.median(s for p in passes
                                           for s in p.slowdown)}
    return workload, passes, metrics, extra


def traced_run(args, tmp, stem):
    from probes import Probes
    from spans import Tracer

    workload = setup(args, tmp)
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer()
    values = Probes(tracer, args.seed, str(tmp), args.reduced).run_all()
    untraced, traced = [], []
    while not traced or (time.perf_counter() < deadline
                         and len(traced) < MAX_TRACED_PASSES):
        untraced.append(run_pass(workload.jobs))
        with tracer.installed():
            traced.append(run_pass(workload.jobs, tracer,
                                   f"pass{len(traced)}"))
    values["montecarlo.trials"] = tracer.count("pass0:",
                                               "montecarlo.sample_matrix")
    self_ns = [tracer.self_ns_by_layer(f"pass{p}:")
               for p in range(len(traced))]
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = statistics.median(
            s.get(layer, 0) / 1e6 for s in self_ns)
    values["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in untraced))
    spans_path = OUT_DIR / f"{stem}-spans.npz"
    tracer.save(spans_path)
    samples = {"montecarlo.trials": 1, "trace.overhead_s": len(traced),
               **{f"{layer}.self_ms": len(traced) for layer in LAYERS}}
    metrics = {name: _metric(values[name], unit, samples.get(name))
               for name, unit in PER_LAYER.items()}
    extra = {"spans_file": spans_path.relative_to(ROOT).as_posix(),
             "spans": len(tracer.start),
             "traced_pass_wall_s": [p.wall for p in traced],
             "untraced_pass_wall_s": [p.wall for p in untraced]}
    return workload, untraced + traced, metrics, extra


def print_table(result):
    head = (f"workload {result['workload']}  seed {result['seed']}  "
            f"trace {result['trace']}  passes {result['passes']}  "
            f"jobs/pass {len(result['jobs'])}  "
            f"failed {result['failed']}/{result['attempted']}")
    print(head)
    for name, m in result["metrics"].items():
        samples = "" if m["samples"] is None else f"  (n={m['samples']})"
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']:<5}{samples}")
    print(f"  {'failed_frac':<56} {result['failed_frac']:>14.6g} ratio")
    if "slowdown" in result:
        print(f"  {'uncorrected_wall_s':<56} "
              f"{result['uncorrected_wall_s']:>14.6g} s")
        print(f"  {'slowdown (reference, 1 = nominal speed)':<56} "
              f"{result['slowdown']:>14.6g}")
    print(f"  outputs sha256 {result['outputs_sha256']}")
    for f in result["failures"][:10]:
        print(f"  FAILED pass {f['pass']} {f['job']}: {f['reason']}")


def single_run(args):
    inherited = os.environ.pop("FREEMIMO_THREADS", None)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    stem = (f"{args.workload}-s{args.seed}-t{args.trace}"
            + ("-reduced" if args.reduced else ""))
    try:
        if args.setup_only:
            setup(args, tmp)
            return 0
        if args.trace:
            workload, passes, metrics, extra = traced_run(args, tmp, stem)
        else:
            workload, passes, metrics, extra = timing_run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures, records, outputs_sha = evaluate(workload.jobs, passes)
    for j, record in enumerate(records):
        record["median_call_s"] = statistics.median(
            dt for p in passes for jj, dt, _, _ in p.calls if jj == j)
    attempted = sum(len(p.calls) for p in passes)
    failed = len(failures)
    result = {
        "schema": "freemimo-bench/1",
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "reduced": args.reduced,
        "environment": environment(args.seed, inherited),
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "metrics": metrics,
        "outputs_sha256": outputs_sha, "jobs": records,
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "pass_slowdown": [statistics.median(p.slowdown) if p.slowdown
                          else None for p in passes],
        "failures": failures[:50], **extra,
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_table(result)
    print(f"  result file {path.relative_to(ROOT).as_posix()}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in metrics.items()}}
    print(json.dumps(line), flush=True)
    return 0 if failed == 0 else 1


def all_workloads(args):
    """Run each workload in its own process; print their tables."""
    summary, code = {}, 0
    for name in WORKLOADS:
        proc = run_child(self_cmd(args, workload=name))
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = None
        code = code or proc.returncode or (summary[name] is None)
    print(json.dumps(summary))
    return int(code)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "freemimo" / "__init__.py").is_file():
        print(f"error: freemimo sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        import smoke
        return smoke.main()
    if args.workload == "all":
        return all_workloads(args)
    import freemimo
    expected = (SRC / "freemimo").resolve()
    if Path(freemimo.__file__).resolve().parent != expected:
        print(f"error: imported freemimo from {freemimo.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
