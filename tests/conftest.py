"""Pins BLAS to one thread for the test process, before numpy loads.

The suite then runs as ``perfbench/run.py`` and ``tests/cli_session.py``
do: the conv kernels split their large GEMMs over the helper thread
(``convkernels._split``), and the commands the tests start inherit the
setting.  The variables only take effect if numpy has not been imported
yet, so the session stops if it has.
"""

import os
import sys

import pytest

if "numpy" in sys.modules:
    pytest.exit("tests/conftest.py pins BLAS to one thread, which must happen "
                "before numpy is imported, but numpy is already loaded (by "
                "a pytest plugin or an -p option?)",
                returncode=pytest.ExitCode.USAGE_ERROR)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
