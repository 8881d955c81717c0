"""The benchmark's own test: ``python3 bench/run.py --smoke``.

Runs every workload at reduced size in both trace modes, exactly as the benchmark command would be
run, and checks the result line and the result file against BENCHMARK.json:
keys, metric names, units, finite values, every job correct.  Then checks
that the command fails, without a result line, in
a directory holding only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import re
import shutil
import sys

import run

ENV_KEYS = {"python", "numpy", "blas", "nproc", "cpus_usable",
            "FREEMIMO_THREADS", "platform", "git_commit", "source_sha256",
            "seed"}


def _result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec, workload, trace):
    """Problems with one reduced run, as a list of messages."""
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--reduced"]
    proc = run.run_child(cmd)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    line = _result_line(proc.stdout)
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
    if not (line.get("correct") is True and line.get("failed") == 0
            and isinstance(line.get("attempted"), int)
            and line["attempted"] >= 1):
        problems.append(f"{where}: not correct: {line}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    if set(line.get("metrics", {})) != set(expected):
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(line['metrics']) ^ set(expected))}")
    for name, m in line.get("metrics", {}).items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            problems.append(f"{where}: {name} malformed: {m}")
        elif not (isinstance(m["value"], (int, float))
                  and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} not a finite number: {m}")
    stem = f"{workload}-s1-t{trace}-reduced"
    result = json.loads((run.OUT_DIR / f"{stem}.json").read_text())
    if set(result["environment"]) != ENV_KEYS:
        problems.append(f"{where}: environment keys "
                        f"{sorted(result['environment'])}")
    if not re.fullmatch(r"[0-9a-f]{64}", result["outputs_sha256"]):
        problems.append(f"{where}: bad outputs_sha256")
    if result["failed_frac"] != 0:
        problems.append(f"{where}: failed_frac {result['failed_frac']}")
    return problems


def check_without_sources(spec):
    """The command must fail, with no result line, next to no sources."""
    bare = run.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in spec["paths"]:
            shutil.copytree(
                run.ROOT / rel, bare / rel,
                ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run.run_child([sys.executable, *spec["command"][1:],
                              "--workload", "analytic", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT_DIR.mkdir(exist_ok=True)
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{'ok  ' if not found else 'FAIL'} {workload} "
                  f"trace {trace}", flush=True)
            problems += found
    found = check_without_sources(spec)
    print(f"{'ok  ' if not found else 'FAIL'} exits non-zero without sources")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 1 if problems else 0
