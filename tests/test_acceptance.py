"""Acceptance gate: every criterion runs at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (the `freemimo verify` subcommand emits the same checks as
JSON).  All criteria use fixed seeds; C1-C5 run experiments, and their
check names, measured values and tolerances are compared with those
recorded below.
"""

import pytest

from freemimo import acceptance

_IDS = list(acceptance.CRITERIA)

# Each Monte Carlo check as (name, measured value, tolerance), in order, as
# recorded with one OpenBLAS thread on x86-64 (numpy 2.4.6).  Other BLAS
# builds and thread counts move the last bits of the measured values, far
# inside the tolerance of the comparison; names and tolerances are exact.
_RECORDED = {
    "C1": [("complex total loss vs 3.4", 0.03630089770613987, 0.1),
           ("real total loss vs 4.3", 0.05918742538621036, 0.15),
           ("closed form reports 4.0 total", 0.0, 1e-12)],
    "C2": [("|loss(512) - 0.622556|", 0.00036264443437172833, 0.05),
           ("discrepancy(512) < discrepancy(64)", -4.3403495703642214e-05,
            0.0)],
    "C3": [("|dev(iid, N=512) - 0.5|", 0.0010697962973549302, 0.05),
           ("|dev(Haar, N=256)|", 0.0, 0.02)],
    "C4": [("|dev(product) - 1.0|", 0.0015385620059589211, 0.1),
           ("|dev(product) - (dev1 + dev2)|", 0.0007460936824419395, 0.05)],
    "C5": [("largest monotonicity violation beyond 3*stderr", 0.0, 0.0),
           ("terminal loss <= closed form + 3*stderr", -0.31876321055824164,
            0.0)],
}


@pytest.mark.parametrize("cid", _IDS)
def test_criterion(cid):
    result = acceptance.run_all(only={cid})[0]
    line = f"{'PASS' if result.passed else 'FAIL'} {result.id} " \
           f"({result.seconds:.1f}s): {result.title}"
    print(line)
    for check in result.checks:
        print(f"    [{'ok' if check.passed else 'FAIL'}] {check.name}: "
              f"measured={check.measured:.6g} tolerance={check.tolerance:.6g}")
    assert result.passed, result.summary()
    if cid in _RECORDED:
        names, measured, tolerances = zip(*_RECORDED[cid])
        assert [c.name for c in result.checks] == list(names)
        assert [c.tolerance for c in result.checks] == list(tolerances)
        assert [c.measured for c in result.checks] == pytest.approx(
            measured, rel=1e-9, abs=1e-12)
