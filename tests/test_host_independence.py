"""The output bytes do not depend on the host: the digest pins of
``test_pipeline_digest.py`` hold in a child process whose OpenBLAS runs its
Haswell kernels (their 3-vector dot rounds as a plain sum, not as the FMA
chain), and ``import spherecover`` loads no numpy at all."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _child_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_digest_pins_hold_under_the_haswell_blas_kernel():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_pipeline_digest.py")],
        cwd=ROOT, env=_child_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "3 passed" in proc.stdout


def test_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spherecover; print('numpy' in sys.modules)"],
        env=_child_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
