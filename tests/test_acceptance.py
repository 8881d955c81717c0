"""Acceptance gate: every criterion runs at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion (the `freemimo verify` subcommand emits the same checks as
JSON).  All criteria use fixed seeds; C1-C5 run experiments, and their
measured values are compared with the values recorded below.
"""

import pytest

from freemimo import acceptance

_IDS = [cid for cid, _ in acceptance.CRITERIA]

# The measured value of each Monte Carlo check, in order, as recorded with
# one OpenBLAS thread on x86-64 (numpy 2.4.6).  Other BLAS builds and thread
# counts move the last bits, far inside the tolerance of the comparison.
_RECORDED = {
    "C1": [0.03630089770613987, 0.05918742538621036, 0.0],
    "C2": [0.00036264443437172833, -4.3403495703642214e-05],
    "C3": [0.0010697962973549302, 0.0],
    "C4": [0.0015385620059589211, 0.0007460936824419395],
    "C5": [0.0, -0.3187632105582425],
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
        assert [c.measured for c in result.checks] == pytest.approx(
            _RECORDED[cid], rel=1e-9, abs=1e-12)
