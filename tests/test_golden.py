"""Golden reports: the criterion-10 invocations, byte for byte, across processes.

Each report in tests/golden/ was written by the CLI itself. The test runs all
invocations in one fresh interpreter per hash seed, with tests/golden as the
working directory so the embedded `levels` path is the relative
`levels.txt`, and compares stdout with the committed bytes.

A deliberate change of a report regenerates the corpus with
`PYTHONPATH=src python tests/test_golden.py` and states the change in
CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# report file name -> argv
INVOCATIONS = {
    "spectrum-angular.json": ["spectrum", "--kind", "angular", "--l-max", "4"],
    "spectrum-radial.json": ["spectrum", "--kind", "radial", "--r0", "2", "--n-max", "6"],
    "spectrum-box.json": ["spectrum", "--kind", "box", "--d", "3", "--L", "1", "--n-max", "2"],
    "spectrum-numeric.json": ["spectrum", "--kind", "numeric", "--grid-points", "500", "--k", "4"],
    "spectrum-radial.csv": ["spectrum", "--kind", "radial", "--n-max", "4", "--format", "csv"],
    "weyl-cube.json": ["weyl", "--domain", "cube", "--d", "3", "--L", "1", "--t", "1e-6"],
    "weyl-ball.csv": ["weyl", "--domain", "ball", "--t", "1e-2", "--t", "1e-4", "--format", "csv"],
    "weyl-custom.json": ["weyl", "--domain", "custom", "--levels", "levels.txt", "--t", "0.3"],
    "entropy-n1.json": ["entropy", "--n", "1", "--r0", "1"],
    "entropy-n3-kb2.json": ["entropy", "--n", "3", "--r0", "0.5", "--kb", "2"],
    "fiducial-neginf.json": ["fiducial", "--r0", "1", "--s0", "-inf", "--branch", "2"],
    "fiducial-finite.json": ["fiducial", "--r0", "1", "--s0", "-1.3862943611198906"],
    "partition-ball.json": ["partition", "--domain", "ball", "--r0", "1", "--tau", "0"],
    "partition-cube.json": ["partition", "--domain", "cube", "--tau", "0.5", "--n-max", "4"],
    "partition-custom.json": ["partition", "--domain", "custom", "--levels", "levels.txt", "--tau", "1"],
    "duality.json": ["duality", "--tau", "1", "--tau", "3", "--temperature", "7"],
    "duality.csv": ["duality", "--tau", "0.125", "--format", "csv"],
}

# Runs every invocation in one interpreter and prints {name: [exit code, stdout]}.
_CHILD = """
import contextlib, io, json, sys
from spectherm.cli import run
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    outputs[name] = [code, buffer.getvalue()]
json.dump(outputs, sys.stdout)
"""


def render_all(hash_seed: str, invocations=INVOCATIONS, **env_vars: str) -> dict[str, list]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(invocations)],
        cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_reports_match_golden_bytes(hash_seed):
    outputs = render_all(hash_seed)
    assert sorted(outputs) == sorted(INVOCATIONS)
    for name, (code, stdout) in outputs.items():
        assert code == 0, name
        assert stdout.encode("utf-8") == (GOLDEN / name).read_bytes(), name


def test_level_file_reports_do_not_depend_on_numpy_dispatch():
    # The sum kernel is math.exp and math.fsum. When it was np.exp, numpy's AVX-512
    # kernel printed the trace 3.6444008564183239 and this mask ...243, the exact value.
    level_file = {name: argv for name, argv in INVOCATIONS.items() if "levels.txt" in argv}
    masked = "X86_V4 AVX512_ICL AVX512_SPR"
    outputs = render_all("0", level_file, NPY_DISABLE_CPU_FEATURES=masked)
    assert sorted(outputs) == ["partition-custom.json", "weyl-custom.json"]
    for name, (code, stdout) in outputs.items():
        assert code == 0, name
        assert stdout.encode("utf-8") == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    for name, (code, stdout) in render_all("0").items():
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_bytes(stdout.encode("utf-8"))
