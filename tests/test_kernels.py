"""Every ``benchmarks/kernels.py`` child runs once, at its smallest size, on ``src/``.

The harness is not imported by the package, so without this check a renamed
function or a changed signature would only surface in the next BENCH run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qrf

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_kernels", ROOT / "benchmarks" / "kernels.py")
kernels = sys.modules["bench_kernels"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernels)


@pytest.mark.parametrize("name", sorted(kernels.KERNELS))
def test_kernel_child_runs(name):
    kernel = kernels.KERNELS[name]
    times, version = kernels.measure(kernel, str(ROOT / "src"), kernel.sizes[0])
    assert len(times) == len(kernel.series)
    assert all(t > 0 for t in times)
    assert version == qrf.__version__
