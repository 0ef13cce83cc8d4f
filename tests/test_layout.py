"""Module layout: dense-matrix oracles live in ``tests/oracles.py``, not in the package.

Exactly four package functions reach ``numpy.fft``: the one centered transform,
``qrf.grids._transform``, the fused split-step loop
``GridHamiltonian._strang_steps``, and the Wigner transform's ``_half_step`` and
``wigner_transform``; every other representation change goes through the first.
The caller's representation is restored in one call, by
``qrf.grids.to_matching`` or, across a relabel, ``_transform``.  Reduced energies, classical and quantum, are
evaluated by one broadcasting path (``qrf.dynamics.reduced_energy``), never
point by point.  No module of the package, of the tests or of the kernel
harness imports a name it never uses; the package root is exempt, because its
imports are re-exports.
Every module-level function of the package has a caller inside it or is
re-exported by the root: code that only the tests use lives in the tests.
The quantum frame change reads its lattice permutation from
``qrf.classical.frame_map``, the one perspective map, and builds no strided
view of its own.  Each input rule is raised from one function: the frame-index
range, the oscillator eigenstate's level and width, and the time step.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import qrf
import qrf.dynamics
import qrf.errors
import qrf.physical
import qrf.switching
from qrf.classical import FRAME_A, FREE_POTENTIAL, FrameLabel, ParticleSystem, Potential
from qrf.observables import Observable
from qrf.physical import GridHamiltonian, reduced_quantum_hamiltonian

PACKAGE = Path(qrf.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "kernels.py"
# the oracles' former home inside the package; its case asserts it stays gone
ORACLE_MODULE = "dense.py"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports_oracles(tree) -> bool:
    oracle_modules = {"dense", "qrf.dense", "oracles"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in oracle_modules:
                return True
            if node.module in (None, "qrf") and names & oracle_modules:
                return True
        if isinstance(node, ast.Import) and any(alias.name in oracle_modules for alias in node.names):
            return True
    return False


def _calls(tree, attr):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == attr:
                yield node


def test_the_package_ships_no_oracles():
    assert importlib.util.find_spec("qrf.dense") is None
    oracles = {
        "DenseOperator",
        "dense_momentum",
        "dense_observable",
        "dense_position",
        "dense_shear",
        "trivialization_family_check",
    }
    assert not oracles & set(vars(qrf))
    assert not {"TooLarge", "KOutOfRange", "UnsupportedObservable"} & set(vars(qrf.errors))
    # the n^3 frame-change references; momentum_substitution is the one copy
    assert not {"constraint_surface_amplitude", "_trivialized_reduction"} & set(vars(qrf.physical))
    # the switch's observable and dynamics checks; switching.py is the switch alone
    package = set(vars(qrf)) | set(vars(qrf.switching)) | set(vars(qrf.dynamics))
    assert not package & {"switch_dictionary", "conjugate_observable", "CommutationReport"}
    assert not package & {"dynamics_frame_commutation", "acceleration_identity_check"}
    for owner, name in [(Observable, "substitute"), (Observable, "labels"),
                        (Potential, "translation_defect"), (FrameLabel, "from_name")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    nodes = ast.walk(_tree(PACKAGE / "switching.py"))
    imported = {n.module.rpartition(".")[2] for n in nodes if isinstance(n, ast.ImportFrom)}
    assert not {"observables", "dynamics"} & imported, "switching.py imports the checks' modules"


@pytest.mark.parametrize("name", sorted({p.name for p in SOURCES} | {ORACLE_MODULE}))
def test_only_the_package_root_imports_the_oracles(name):
    # the root no longer does either: no package module reaches the oracles
    path = PACKAGE / name
    if name == ORACLE_MODULE:
        assert not path.exists(), f"{name} is back in the package; oracles live in tests/oracles.py"
        return
    assert not _imports_oracles(_tree(path)), f"{name} imports the dense oracles"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_explicit_fourier_matrix_outside_the_oracles(path):
    # the DFT-matrix idiom is exp(+-i outer(p, x)); production code uses FFTs
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


def _users(tree, module, matches):
    """Qualified names of the functions of a module holding a node that ``matches``."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if matches(child):
                users.add(".".join(scope))
            visit(child, scope)

    visit(tree, (module,))
    return users


def _reads_fft(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "fft"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def test_the_fft_has_exactly_four_callers():
    trees = {path.stem: _tree(path) for path in SOURCES}
    # read as np.fft only, never imported under another name
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert "fft" not in (node.module or "") and "fft" not in names, name
    users = set().union(*(_users(tree, name, _reads_fft) for name, tree in trees.items()))
    assert users == {
        "grids._transform",
        "physical.GridHamiltonian._strang_steps",
        "wigner._half_step",
        "wigner.wigner_transform",
    }


def test_grid_hamiltonian_carries_no_oracle_or_unread_state(grid16):
    h = reduced_quantum_hamiltonian(
        FRAME_A, FREE_POTENTIAL, ParticleSystem(3), [("B", grid16), ("C", grid16)]
    )
    assert set(vars(h)) == {"subsystems", "kinetic_grid", "potential_grid"}
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


def _unused_imports(tree):
    """(line, name) of every name an import binds that the module never references."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"] + TESTS + [HARNESS],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_every_imported_name_is_used(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_frame_letters_come_from_frame_labels():
    for name in ("LETTERS", "_LETTER_INDEX"):
        assert not hasattr(qrf.physical, name)


def _referenced_names(tree):
    """Every name a module reads, bare or as an attribute, and every name it re-exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_package_function_has_a_caller():
    # the package modules' own imports bind only names that they use (above),
    # so an imported name counts as a reference; the root's are re-exports
    trees = {path.name: _tree(path) for path in SOURCES}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name not in referenced
    ]
    assert not orphans, f"package functions with no caller in the package: {orphans}"


def test_physical_builds_no_strided_view():
    assert "as_strided" not in _referenced_names(_tree(PACKAGE / "physical.py"))


def test_the_quantum_frame_change_reads_frame_map():
    # directly or through one module-level helper; the parity-shear backend is
    # the independent cross-check and derives the map itself
    path = PACKAGE / "physical.py"
    substitution = _function(path, "momentum_substitution")
    helpers = [node for node in _tree(path).body if isinstance(node, ast.FunctionDef)]
    readers = [substitution] + [node for node in helpers if any(_calls(substitution, node.name))]
    assert any(any(_calls(node, "frame_map")) for node in readers), (
        "momentum_substitution derives its permutation by hand"
    )


def _raises_message(text):
    def matches(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        strings = (n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant))
        return any(isinstance(value, str) and text in value for value in strings)

    return matches


def _constructs(name):
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


@pytest.mark.parametrize(
    "matches, owner",
    [
        (_raises_message("out of range for"), "classical._check_frame"),
        (_raises_message("only levels 0 and 1 are provided"), "grids._check_eigenstate"),
        (_raises_message("alpha must be positive and finite"), "grids._check_eigenstate"),
        (_constructs("InvalidStep"), "dynamics._step_count"),
    ],
    ids=["frame-index", "eigenstate-level", "eigenstate-width", "time-step"],
)
def test_each_input_rule_is_raised_from_one_function(matches, owner):
    trees = {path.stem: _tree(path) for path in SOURCES}
    users = set().union(*(_users(tree, name, matches) for name, tree in trees.items()))
    assert users == {owner}, f"the rule is written in {sorted(users)}, not once in {owner}"
