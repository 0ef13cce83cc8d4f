"""Module layout: dense-matrix oracles live in ``qrf.dense`` and nowhere else.

Production modules reach the Fourier transform only through the centered FFTs
of ``qrf.grids``, and the caller's representation is restored by one helper,
``qrf.grids.to_matching``.  Reduced energies, classical and quantum, are
evaluated by one broadcasting path (``qrf.dynamics.reduced_energy``), never
point by point.
"""

import ast
from pathlib import Path

import pytest

import qrf
import qrf.physical
from qrf.classical import FRAME_A, FREE_POTENTIAL, ParticleSystem
from qrf.physical import GridHamiltonian, reduced_quantum_hamiltonian

SOURCES = sorted(Path(qrf.__file__).parent.glob("*.py"))
ORACLE_IMPORTERS = {"dense.py", "__init__.py"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports_dense(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.level == 1 and (node.module == "dense" or (node.module is None and "dense" in names)):
                return True
            if node.level == 0 and (node.module == "qrf.dense" or (node.module == "qrf" and "dense" in names)):
                return True
        if isinstance(node, ast.Import) and any(alias.name == "qrf.dense" for alias in node.names):
            return True
    return False


def _calls(tree, attr):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == attr:
                yield node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_package_root_imports_the_oracles(path):
    if path.name in ORACLE_IMPORTERS:
        return
    assert not _imports_dense(_tree(path)), f"{path.name} imports qrf.dense"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_explicit_fourier_matrix_outside_the_oracles(path):
    # the DFT-matrix idiom is exp(+-i outer(p, x)); production code uses FFTs
    if path.name == "dense.py":
        return
    for call in _calls(_tree(path), "exp"):
        assert not any(True for _ in _calls(call, "outer")), (
            f"{path.name}:{call.lineno} builds an explicit Fourier matrix"
        )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_representation_restore_loop_lives_in_grids(path):
    if path.name == "grids.py":
        return
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.For):
            assert not any(True for _ in _calls(node, "change_representation")), (
                f"{path.name}:{node.lineno} loops over change_representation; use to_matching"
            )


def test_grid_hamiltonian_carries_no_oracle_or_unread_state(grid16):
    h = reduced_quantum_hamiltonian(
        FRAME_A, FREE_POTENTIAL, ParticleSystem(3), [("B", grid16), ("C", grid16)]
    )
    assert set(vars(h)) == {"subsystems", "kinetic_grid", "potential_grid", "frame"}
    for name in ("dense", "ground_energy", "kinetic_observable"):
        assert not hasattr(GridHamiltonian, name)


def _function(path, qualname):
    node = _tree(path)
    for name in qualname.split("."):
        node = next(
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


@pytest.mark.parametrize(
    "module, qualname",
    [("physical.py", "reduced_quantum_hamiltonian"), ("dynamics.py", "Trajectory.energies")],
)
def test_reduced_energies_are_evaluated_without_loops(module, qualname):
    # for statements, and comprehensions over index ranges (per-sample loops)
    path = Path(qrf.__file__).parent / module
    loops = [
        node
        for node in ast.walk(_function(path, qualname))
        if isinstance(node, ast.For)
        or (isinstance(node, ast.comprehension) and any(True for _ in _calls(node.iter, "range")))
    ]
    assert not loops, f"{module}: {len(loops)} loop(s) inside {qualname}; broadcast instead"


def test_frame_letters_come_from_frame_labels():
    for name in ("LETTERS", "_LETTER_INDEX"):
        assert not hasattr(qrf.physical, name)
