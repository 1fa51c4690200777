"""Every function the benchmark's traced runs wrap still exists.

A renamed or deleted trace target does not fail a traced run: its metrics
read 0 and it is listed as missing. This check catches that in the test
suite instead of in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("phase", ["setup", "experiment", "serve"])
def test_no_trace_target_missing(phase):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans

        tracer = spans.Tracer(phase)
        try:
            layers.install(tracer, phase, set())
            assert tracer.missing == []
        finally:
            tracer.restore()
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
