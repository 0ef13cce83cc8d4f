"""``benchmarks/kernels.py``: every child runs once on ``src/``, and each tree is the one named.

The harness is not imported by the package, so without these checks a renamed
function or a changed signature would only surface in the next BENCH run, and
a mistyped tree would yield a report of another tree's numbers under its label.
"""

import importlib.util
import subprocess
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


def test_a_child_refuses_a_tree_without_qrf(tmp_path, monkeypatch):
    # src is importable, but it is not the tree asked for
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    kernel = kernels.KERNELS["classical-switch"]
    with pytest.raises(subprocess.CalledProcessError):
        kernels.measure(kernel, str(tmp_path), kernel.sizes[0])


def test_run_kernel_reports_every_repeat_of_every_label(monkeypatch):
    monkeypatch.setattr(kernels, "REPEATS", 2)
    src = str(ROOT / "src")
    report = kernels.run_kernel("switch", [("parent", src), ("change", src)])
    assert set(report) == {
        "kernel", "metric", "unit", "settings", "repeats", "environment", "versions",
        "fingerprints", "results",
    }
    assert report["repeats"] == 2
    assert report["versions"] == {"parent": qrf.__version__, "change": qrf.__version__}
    expected = kernels.fingerprint(src)
    assert report["fingerprints"] == {"parent": expected, "change": expected}
    assert set(expected) == {"sources_sha256", "git_head"}
    assert len(expected["sources_sha256"]) == 64
    kernel = kernels.KERNELS["switch"]
    keys = {f"n{n}-{series}" for n in kernel.sizes for series in kernel.series}
    assert set(report["results"]) == keys
    for key in keys:
        assert set(report["results"][key]) == {"parent", "change"}
        for summary in report["results"][key].values():
            assert set(summary) == {"median", "q1", "q3", "values"}
            assert len(summary["values"]) == 2
            assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_trees_one_byte_apart_have_different_fingerprints(tmp_path):
    trees = []
    for name in ("a", "b"):
        package = tmp_path / name / "qrf"
        package.mkdir(parents=True)
        for path in (ROOT / "src" / "qrf").glob("*.py"):
            (package / path.name).write_bytes(path.read_bytes())
        trees.append(package)
    edited = trees[1] / "physical.py"
    edited.write_bytes(edited.read_bytes() + b" ")
    first, second = (kernels.fingerprint(str(package.parent)) for package in trees)
    assert first["sources_sha256"] != second["sources_sha256"]


@pytest.mark.parametrize(
    "trees",
    [["nosuch"], ["=src"], ["a=src", "a=src"], ["a=tests"]],
    ids=["no-equals", "no-label", "repeated-label", "no-package"],
)
def test_main_rejects_a_malformed_tree(trees, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        kernels.main(["classical-switch", *trees, "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()
