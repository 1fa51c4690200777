"""The benchmark's setup writes inputs the package accepts.

perfbench's setup child writes the only experiment config outside the
tests, and a checkpoint for its serve runs. A loader change that rejected
either would end every benchmark run as `run_failed`; this check fails in
the test suite instead.
"""

from rankforge.experiment import load_config
from rankforge.scorer import load_params


def test_reference_setup_loads(child, tmp_path):
    argv = ["setup", "--workload", "reference", "--seed", "42", "--dir", str(tmp_path)]
    assert child.main(argv) == 0
    cfg = load_config(tmp_path / "exp.json")
    assert (cfg.seed, cfg.out) == (42, tmp_path / "out")
    load_params((tmp_path / "checkpoint.bin").read_bytes())
