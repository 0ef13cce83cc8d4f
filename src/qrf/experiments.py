"""Declarative experiment runner: figure reproductions and invariant suites.

Configs are flat ``key = value`` text files (``#`` comments, ``.`` decimal
separator).  ``SCHEMA`` gives each key its type, default and bound, and runs
read their values through ``ExperimentConfig.values``.  Every run writes CSV
data files plus ``manifest.json`` recording the config echo, library version,
per-file SHA-256 checksums, row counts and column headers, the seed, and the
wall time.  Data files are byte-identical for identical config + seed +
version; the wall-time entry is the one manifest field outside that contract.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .classical import FRAME_A, FRAME_C, FrameLabel, ReducedPhasePoint, frame_map
from .dynamics import OscillatorParams, _step_count, analytic_oscillator_frame_c, integrate_reduced
from .errors import ConfigError, NumericalFailure, UnknownFigure
from .grids import (
    BOUNDARY_DECAY_TOL,
    MOMENTUM,
    Grid1D,
    fidelity,
    ho_eigenstate,
    random_wavefunction,
    to_representation,
)
from .observables import Observable, commutator_expectation
from .physical import physical_inner_product, physical_state, reduced_labels, reexpress
from .switching import FrameSwitch, switch_frame
from .wigner import (
    closed_form_eigenstate_wigner,
    marginal_wigner,
    transformed_joint_wigner,
    wigner_of_state,
)


class Key(NamedTuple):
    """A config key's rule: its type, its default (None: required), a bound to exceed, a cap."""

    type: type | dict  # float, int, str, or for the mode: each mode's own keys
    default: object = None
    above: float | None = None
    at_most: float | None = None


#: Most CSV rows a classical-trajectory run may write: 2**20, about 52 times
#: the 20,001 of fig3 and fig4, five float64 columns of 8 MiB each.
MAX_TRAJECTORY_ROWS = 2**20

#: Most points per axis of a suite grid or a Wigner study, so that neither
#: its n^2 grid nor its CSV holds more than MAX_TRAJECTORY_ROWS values.
MAX_AXIS_POINTS = 2**10


#: Every key a config may set, by kind, besides the ExperimentConfig fields
#: ``kind``, ``seed`` and ``output_dir``.  Any other key is rejected, so that a
#: misspelt key cannot be ignored and echoed into the manifest.  ``float`` takes
#: a finite int or float and ``int`` an int, neither a boolean; ``str`` names
#: output files and takes a plain file stem.  A lower bound is set only where
#: no domain constructor checks the value; a cap bounds the memory a run asks for.
SCHEMA: dict[str, dict[str, Key]] = {
    "classical-trajectory": {
        "name": Key(str, "trajectory"),
        "a0": Key(float), "b0": Key(float), "omega_a": Key(float), "omega_b": Key(float),
        "phi_a": Key(float, 0.0), "phi_b": Key(float, 0.0),
        "m_a": Key(float, 1.0), "m_b": Key(float, 1.0), "m_c": Key(float, 1e6),
        "t_final": Key(float, 20.0, above=0.0), "dt": Key(float, 1e-3, above=0.0),
    },
    "wigner-study": {
        "name": Key(str, "wigner"),
        "points": Key(int, 101, above=1, at_most=MAX_AXIS_POINTS),
        "mode": Key({
            "eigenstates": {"alpha": Key(float, 1.0), "half_width": Key(float, 5.0, above=0.0)},
            "marginals": {
                "level_a": Key(int), "level_b": Key(int),
                "alpha_a": Key(float), "alpha_b": Key(float),
            },
        }),
    },
    "invariant-suite": {
        "grid_n": Key(int, 64, at_most=MAX_AXIS_POINTS), "grid_length": Key(float, 20.0),
    },
}
_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a plain file stem"}


def _schema(kind: str, parameters: dict) -> dict[str, Key]:
    """The keys a config may set, its mode's included; any other key is an error."""
    if kind not in SCHEMA:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {tuple(SCHEMA)}")
    schema = SCHEMA[kind]
    if "mode" in schema:
        modes = schema["mode"].type
        mode = parameters.get("mode")
        if mode not in modes:
            raise ConfigError(f"{kind} mode must be one of {tuple(modes)}, got {mode!r}")
        schema = {**schema, **modes[mode]}
    unknown = sorted(set(parameters) - set(schema))
    if unknown:
        raise ConfigError(f"{kind}: unknown key(s) {unknown}; accepted: {sorted(schema)}")
    return schema


def _typed(rule: Key, value):
    """The value as its rule's type, or None if it breaks the rule."""
    if rule.type is str:
        value = str(value)
        return None if value in ("", ".", "..") or any(c in value for c in "/\\\0") else value
    numbers = (int, float) if rule.type is float else int
    if isinstance(value, bool) or not isinstance(value, numbers):
        return None
    if rule.type is float and not abs(value) <= sys.float_info.max:  # NaN fails it
        return None
    if rule.above is not None and not value > rule.above:
        return None
    return rule.type(value) if rule.at_most is None or value <= rule.at_most else None


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description."""

    kind: str
    parameters: dict = field(default_factory=dict)
    output_dir: Path = Path(".")
    seed: int = 0

    def __post_init__(self):
        _schema(self.kind, self.parameters)
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def values(self) -> dict:
        """Each schema key's checked, typed value, defaults filled in; runs read these."""
        values = {}
        for key, rule in _schema(self.kind, self.parameters).items():
            value = self.parameters.get(key, rule.default)
            if value is None:
                raise ConfigError(f"{self.kind} requires parameter {key!r}")
            values[key] = value if isinstance(rule.type, dict) else _typed(rule, value)
            if values[key] is None:
                bound = "" if rule.above is None else f" greater than {rule.above}"
                bound += "" if rule.at_most is None else f" and at most {rule.at_most}"
                raise ConfigError(
                    f"{self.kind}: {key} must be {_TYPE_NAMES[rule.type]}{bound}, got {value!r}"
                )
        return values


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into typed values."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        values[key] = _coerce(value)
    return values


def _coerce(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text.lower() == "true" if text.lower() in ("true", "false") else text


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    values = parse_config_text(path.read_text(encoding="utf-8"))
    if "kind" not in values:
        raise ConfigError("config must declare a 'kind'")
    kind = str(values.pop("kind"))
    seed = values.pop("seed", 0)
    output_dir = Path(str(values.pop("output_dir", path.parent)))
    return ExperimentConfig(kind=kind, parameters=values, output_dir=output_dir, seed=seed)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_TRAJECTORY = {
    "kind": "classical-trajectory", "b0": 1.0, "phi_a": 0.0, "phi_b": math.pi / 2.0,
    "t_final": 20.0, "dt": 1e-3, "m_c": 1e8,
}
_MARGINALS = {"kind": "wigner-study", "mode": "marginals", "alpha_b": 1.0, "points": 101}

FIGURE_PRESETS: dict[str, dict] = {
    # classical two-oscillator trajectories in both frames
    "fig3": {**_TRAJECTORY, "a0": 1.0, "omega_a": 1.0, "omega_b": 10.0},
    "fig4": {**_TRAJECTORY, "a0": 0.3, "omega_a": 10.0, "omega_b": 1.0},
    # eigenstate Wigner functions
    "fig5": {
        "kind": "wigner-study", "mode": "eigenstates", "alpha": 1.0,
        "points": 121, "half_width": 5.0,
    },
    # marginals of the frame-switched product states
    "fig6": {**_MARGINALS, "level_a": 0, "level_b": 0, "alpha_a": 0.1},
    "fig7": {**_MARGINALS, "level_a": 0, "level_b": 1, "alpha_a": 1.0},
    "fig8": {**_MARGINALS, "level_a": 1, "level_b": 0, "alpha_a": 1.0},
    "fig9": {**_MARGINALS, "level_a": 1, "level_b": 1, "alpha_a": 1.0},
}


def figure_config(name: str, output_dir) -> ExperimentConfig:
    if name not in FIGURE_PRESETS:
        raise UnknownFigure(f"unknown figure {name!r}; known: {sorted(FIGURE_PRESETS)}")
    preset = dict(FIGURE_PRESETS[name])
    kind = preset.pop("kind")
    preset["name"] = name
    return ExperimentConfig(kind=kind, parameters=preset, output_dir=Path(output_dir))


def emit_figure_data(name: str, output_dir) -> dict:
    """Expand a figure preset into a config and run it."""
    return run_experiment(figure_config(name, output_dir))


# ---------------------------------------------------------------------------
# CSV and manifest helpers
# ---------------------------------------------------------------------------


def _create(path: Path):
    """Open an output file, creating its directory on first use.

    The directory is made only once a run has data to write, so a config
    rejected before that leaves nothing behind.  A path that cannot be made,
    such as one through an existing file, is a ConfigError.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot write {path}: {exc}") from exc


_CSV_CHUNK_ROWS = 1024


def _write_csv(path: Path, columns, arrays) -> dict:
    """Write equal-length column arrays as CSV rows, every value as ``%.17g``.

    ``%`` formats floats with the same code as ``f"{v:.17g}"``, so one row
    template applied to a chunk of rows gives the same bytes as formatting
    value by value.  Chunks bound the size of each formatted string.
    """
    rows = len(arrays[0])
    if len(arrays) != len(columns) or any(len(a) != rows for a in arrays):
        raise ValueError("need one array per CSV column, all of equal length")
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    with _create(path) as handle:
        handle.write(",".join(columns) + "\n")
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            chunk = np.column_stack([a[start : start + _CSV_CHUNK_ROWS] for a in arrays])
            handle.write((template * len(chunk)) % tuple(chunk.ravel().tolist()))
    return {"name": path.name, "rows": rows, "columns": list(columns)}


def _texts(values: np.ndarray) -> np.ndarray:
    """Each value's ``%.17g`` text, formatted once per distinct int64 bit pattern.

    So ``0.0`` and ``-0.0`` keep ``0`` and ``-0``, and a NaN matches only its own bits.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = ("%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())).split("\n")
    return np.array(texts, dtype=object)[inverse.reshape(bits.shape)]


def _write_wigner_csv(path: Path, grid) -> dict:
    """Write a Wigner grid as x-major ``x,xi,w`` rows, every value as ``%.17g``.

    Each distinct x, xi and w value is formatted once per file (``_texts``),
    and the rows of one x come from one template that already holds x and
    the xi texts.  The axes stay n texts each, never the n^2 entries of
    expanded x and xi columns: a whole-file dedup over those columns, which
    held an index and a string for every entry, raised the peak RSS of a
    ``figures`` benchmark run from 44 to 60 MiB.
    """
    xi_parts = [f",{text},%s\n" for text in _texts(grid.xi)]
    w = _texts(grid.values)
    with _create(path) as handle:
        handle.write("x,xi,w\n")
        for x_text, row in zip(_texts(grid.x), w):
            # x before every part: x,xi_0,%s\n x,xi_1,%s\n ...
            handle.write(x_text.join(["", *xi_parts]) % tuple(row.tolist()))
    return {"name": path.name, "rows": w.size, "columns": ["x", "xi", "w"]}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _finalize(config: ExperimentConfig, declared_files, started: float, extra=None) -> dict:
    manifest = {
        "version": __version__,
        "kind": config.kind,
        "seed": config.seed,
        "config": {key: config.parameters[key] for key in sorted(config.parameters)},
        "files": [],
        "wall_time_s": time.monotonic() - started,
    }
    if extra:
        manifest.update(extra)
    for entry in declared_files:
        path = config.output_dir / entry["name"]
        entry = dict(entry)
        entry["sha256"] = _sha256(path)
        manifest["files"].append(entry)
    with _create(config.output_dir / "manifest.json") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


@contextmanager
def _config_values(context: str):
    """Report a ValueError or ArithmeticError raised on a config's values as a ConfigError.

    Floating-point overflow, invalid operations and division by zero raise
    inside, so that they end here as one diagnostic line, not as warnings.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute a config and write its data files plus manifest.

    Deterministic for a fixed config, seed and version.  Raises
    :class:`ConfigError` for invalid configs and :class:`NumericalFailure`
    when an internal invariant gate trips.
    """
    started = time.monotonic()
    runner = {
        "classical-trajectory": _run_classical_trajectory,
        "wigner-study": _run_wigner_study,
        "invariant-suite": _run_invariant_suite,
    }[config.kind]
    files, extra = runner(config, config.values())
    manifest = _finalize(config, files, started, extra)
    if config.kind == "invariant-suite" and not extra["all_passed"]:
        raise NumericalFailure(
            "invariant suite failed: "
            + ", ".join(k for k, v in extra["results"].items() if not v["passed"])
        )
    return manifest


def _run_classical_trajectory(config: ExperimentConfig, v: dict):
    springs = {}
    for side in "ab":  # k = omega**2 m, checked here so that its error names both keys
        omega, mass = v[f"omega_{side}"], v[f"m_{side}"]
        try:
            k = omega**2 * mass
        except OverflowError:  # a float square beyond the float range
            k = math.inf
        if not 0 < k < math.inf:
            raise ConfigError(
                f"{config.kind}: omega_{side} = {omega!r} and m_{side} = {mass!r} give the spring "
                f"constant omega_{side}**2 * m_{side} = {k!r}; it must be positive and finite"
            )
        springs[f"k_{side}"] = k
    with _config_values(config.kind):
        params = OscillatorParams(
            m_a=v["m_a"], m_b=v["m_b"], m_c=v["m_c"], **springs,
            a0=v["a0"], b0=v["b0"], phi_a=v["phi_a"], phi_b=v["phi_b"],
        )
    steps = v["t_final"] / v["dt"]  # inf once the ratio overflows
    if not (steps + 1 <= MAX_TRAJECTORY_ROWS):
        raise ConfigError(
            f"t_final / dt = {steps:.3g} asks for more than {MAX_TRAJECTORY_ROWS} rows"
        )
    times = np.arange(_step_count(v["t_final"], v["dt"]) + 1) * v["dt"]
    x_a, x_b = analytic_oscillator_frame_c(params, times)
    # the C -> A map of the positions, which no momentum enters
    q_b, q_c = frame_map(np.array((x_a, x_b)), np.zeros(2), FRAME_C, FRAME_A)[0]
    entry = _write_csv(
        config.output_dir / f"{v['name']}.csv",
        ["t", "x_A", "x_B", "q_B", "q_C"],
        (times, x_a, x_b, q_b, q_c),
    )
    return [entry], None


def _run_wigner_study(config: ExperimentConfig, v: dict):
    """Every grid passes every gate before any file is written, so a failed run writes nothing."""
    name, points = v["name"], v["points"]
    if v["mode"] == "eigenstates":
        alpha = v["alpha"]
        with _config_values(config.kind):
            x = np.linspace(-v["half_width"], v["half_width"], points)
            grids = {
                f"{name}_{tag}.csv": closed_form_eigenstate_wigner(level, alpha, x, x * alpha)
                for level, tag in enumerate(("ground", "excited"))
            }
    else:  # marginals
        alpha_a, alpha_b = v["alpha_a"], v["alpha_b"]
        grids = {}
        with _config_values(config.kind):  # e.g. a width whose window overflows when squared
            joint = transformed_joint_wigner(v["level_a"], v["level_b"], alpha_a, alpha_b)
            sigma = 1.0 / math.sqrt(min(alpha_a, alpha_b))
            sigma_p = math.sqrt(max(alpha_a, alpha_b))
            x = np.linspace(-6.0 * sigma, 6.0 * sigma, points)
            xi = np.linspace(-6.0 * sigma_p, 6.0 * sigma_p, points)
            pairs = {k: [marginal_wigner(joint, k, x, xi, n) for n in (3, 5)] for k in "BC"}
        for keep, (grid, finer) in pairs.items():
            # pointwise, which the normalization is not: 3 and 5 nodes agree
            # to rounding only where both rules are exact
            gap = float(np.max(np.abs(finer.values - grid.values)))
            if not (gap <= 1e-12 * float(np.max(np.abs(grid.values)))):  # NaN fails it
                raise NumericalFailure(
                    f"marginal {keep} quadrature not converged: 3 and 5 nodes differ by {gap:.3e}"
                )
            grids[f"{name}_marginal_{keep}.csv"] = grid
    for file_name, grid in grids.items():
        if not (abs(grid.integral() - 1.0) <= 1e-4):  # NaN fails it
            raise NumericalFailure(f"{file_name}: Wigner normalization off: {grid.integral():.6e}")
    files = [
        _write_wigner_csv(config.output_dir / file_name, grid) for file_name, grid in grids.items()
    ]
    return files, None


def _run_invariant_suite(config: ExperimentConfig, v: dict):
    """Quick seeded pass over the library's cross-cutting invariants."""
    with _config_values(config.kind):
        grid = Grid1D(v["grid_n"], v["grid_length"])
    with _config_values(f"{config.kind} on {grid}"):  # e.g. a cell too large to square
        results = _invariant_checks(grid, np.random.default_rng(config.seed))
    all_passed = all(entry["passed"] for entry in results.values())
    report = {"results": results, "all_passed": all_passed, "seed": config.seed}
    path = config.output_dir / "suite_report.json"
    with _create(path) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    entry = {"name": path.name, "rows": len(results), "columns": ["property", "value", "tolerance", "passed"]}
    return [entry], {"results": results, "all_passed": all_passed}


def _invariant_checks(grid: Grid1D, rng: np.random.Generator) -> dict:
    """Each invariant's value, tolerance and verdict, by name."""
    subsystems = [("B", grid), ("C", grid)]
    results: dict[str, dict] = {}
    # built before any random draw, so a grid too coarse to hold it fails at once
    state = ho_eigenstate(grid, "B", 1, alpha=1.0)

    def record(name, value, tolerance, larger_is_better=False):
        passed = value >= tolerance if larger_is_better else value <= tolerance
        results[name] = {
            "value": float(value),
            "tolerance": float(tolerance),
            "passed": bool(passed),
        }

    # representation changes are unitary
    drift = 0.0
    for _ in range(5):
        psi = random_wavefunction(subsystems, rng, frame=FRAME_A)
        drift = max(drift, abs(to_representation(psi, MOMENTUM).norm() - psi.norm()))
    record("representation_unitarity", drift, 1e-12)

    # boundary decay of the random-state corpus
    psi = random_wavefunction(subsystems, rng, frame=FRAME_A)
    record("random_state_boundary_decay", psi.boundary_ratio(), BOUNDARY_DECAY_TOL)

    # frame switch: unitarity, backend agreement, round trip
    sw = FrameSwitch(FRAME_A, FRAME_C)
    norm_drift = 0.0
    backend_gap = 0.0
    round_trip = 1.0
    for _ in range(5):
        psi = random_wavefunction(subsystems, rng, frame=FRAME_A)
        out = switch_frame(psi, sw)
        norm_drift = max(norm_drift, abs(out.norm() - psi.norm()))
        other = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C, backend="compositional"))
        backend_gap = max(backend_gap, 1.0 - fidelity(out, other))
        back = switch_frame(out, sw.reversed())
        round_trip = min(round_trip, fidelity(back, psi))
    record("switch_unitarity", norm_drift, 1e-10)
    record("switch_backend_agreement", backend_gap, 1e-8)
    record("switch_round_trip_fidelity", round_trip, 1.0 - 1e-8, larger_is_better=True)

    # physical inner product is reduction-independent
    gap = 0.0
    for _ in range(3):
        s1 = physical_state(random_wavefunction(subsystems, rng), FRAME_A)
        s2 = physical_state(random_wavefunction(subsystems, rng), FRAME_A)
        base = physical_inner_product(s1, s2)
        for frame in (FrameLabel(1), FrameLabel(2)):
            moved = physical_inner_product(reexpress(s1, frame), reexpress(s2, frame))
            gap = max(gap, abs(base - moved))
    record("physical_inner_product_frame_independence", gap, 1e-8)

    # canonical commutator on the grid
    psi = random_wavefunction(subsystems, rng, frame=FRAME_A)
    value = commutator_expectation(
        psi, Observable.position("B"), Observable.momentum("B")
    )
    record("canonical_commutator", abs(value - 1j), 1e-6)

    # Wigner marginal against |psi(x)|^2
    wig = wigner_of_state(state)
    density = np.abs(state.amplitudes) ** 2
    marginal = wig.position_marginal()[::2][: grid.n]
    record("wigner_position_marginal", float(np.max(np.abs(marginal - density))), 1e-6)

    # classical switch round trip on 200 random points, drawn point by point
    q, p = rng.uniform(-1, 1, (200, 2, 2)).transpose(1, 2, 0)
    back_q, back_p = frame_map(*frame_map(q, p, FRAME_A, FRAME_C), FRAME_C, FRAME_A)
    worst = max(float(np.max(np.abs(back_q - q))), float(np.max(np.abs(back_p - p))))
    record("classical_switch_round_trip", worst, 1e-12)

    # reduced-dynamics energy conservation over a short window
    params = OscillatorParams()
    system = params.system()
    potential = params.potential()
    initial = ReducedPhasePoint(FRAME_C, np.array([1.0, 0.5]), np.array([0.0, 0.3]))
    trajectory = integrate_reduced(initial, potential, system, 10.0, 1e-3)
    energies = trajectory.energies(potential, system)
    record(
        "energy_conservation",
        float(np.max(np.abs(energies - energies[0])) / abs(energies[0])),
        1e-6,
    )

    # the compositional switch permutes momentum grid points, so switches
    # compose exactly: i -> j -> k is i -> k, and i -> j -> i is the identity.
    # Drawn last, so the checks above see the same draws as before.
    def compositional(psi, frame):
        return switch_frame(psi, FrameSwitch(psi.frame, frame, "compositional"))

    frames = [FrameLabel(i) for i in range(3)]
    composition_gap = 0.0
    for start in frames:
        axes = [(label, grid) for label in reduced_labels(start)]
        psi = to_representation(random_wavefunction(axes, rng, frame=start), MOMENTUM)
        images = {f: psi if f == start else compositional(psi, f) for f in frames}
        for middle, target in itertools.permutations(images, 2):
            if middle != start:
                chained = compositional(images[middle], target).amplitudes
                gap = float(np.max(np.abs(chained - images[target].amplitudes)))
                composition_gap = max(composition_gap, gap)
    record("switch_composition", composition_gap, 0.0)
    return results
