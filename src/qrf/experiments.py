"""Declarative experiment runner: figure reproductions and invariant suites.

Configs are flat ``key = value`` text files (``#`` comments, ``.`` decimal
separator).  Every run writes CSV data files plus ``manifest.json`` recording
the config echo, library version, per-file SHA-256 checksums, row counts and
column headers, the seed, and the wall time.  Data files are byte-identical
for identical config + seed + version; the wall-time entry is the one
manifest field outside that contract.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (
    FRAME_A,
    FRAME_C,
    FrameLabel,
    ReducedPhasePoint,
    classical_frame_switch,
)
from .dynamics import (
    OscillatorParams,
    analytic_oscillator_frame_a,
    analytic_oscillator_frame_c,
    integrate_reduced,
)
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

#: The parameter keys each kind reads; a config with any other key is
#: rejected, so a misspelt key cannot be ignored and echoed into the manifest.
ACCEPTED_KEYS = {
    "classical-trajectory": frozenset(
        ("name", "a0", "b0", "omega_a", "omega_b", "phi_a", "phi_b",
         "m_a", "m_b", "m_c", "t_final", "dt")
    ),
    "wigner-study": frozenset(
        ("name", "mode", "points", "alpha", "half_width",
         "level_a", "level_b", "alpha_a", "alpha_b")
    ),
    "invariant-suite": frozenset(("grid_n", "grid_length")),
}

#: Most CSV rows a classical-trajectory run may write: 2**20, about 52 times
#: the 20,001 of fig3 and fig4, five float64 columns of 8 MiB each.
MAX_TRAJECTORY_ROWS = 2**20


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description."""

    kind: str
    parameters: dict = field(default_factory=dict)
    output_dir: Path = Path(".")
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ACCEPTED_KEYS:
            raise ConfigError(
                f"unknown kind {self.kind!r}; expected one of {tuple(ACCEPTED_KEYS)}"
            )
        unknown = sorted(set(self.parameters) - ACCEPTED_KEYS[self.kind])
        if unknown:
            raise ConfigError(
                f"{self.kind}: unknown key(s) {unknown}; "
                f"accepted: {sorted(ACCEPTED_KEYS[self.kind])}"
            )
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


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
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


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

_PI_HALF = math.pi / 2.0

FIGURE_PRESETS: dict[str, dict] = {
    # classical two-oscillator trajectories in both frames
    "fig3": {
        "kind": "classical-trajectory",
        "a0": 1.0, "b0": 1.0, "omega_a": 1.0, "omega_b": 10.0,
        "phi_a": 0.0, "phi_b": _PI_HALF,
        "t_final": 20.0, "dt": 1e-3, "m_c": 1e8,
    },
    "fig4": {
        "kind": "classical-trajectory",
        "a0": 0.3, "b0": 1.0, "omega_a": 10.0, "omega_b": 1.0,
        "phi_a": 0.0, "phi_b": _PI_HALF,
        "t_final": 20.0, "dt": 1e-3, "m_c": 1e8,
    },
    # eigenstate Wigner functions
    "fig5": {
        "kind": "wigner-study", "mode": "eigenstates", "alpha": 1.0,
        "points": 121, "half_width": 5.0,
    },
    # marginals of the frame-switched product states
    "fig6": {
        "kind": "wigner-study", "mode": "marginals",
        "level_a": 0, "level_b": 0, "alpha_a": 0.1, "alpha_b": 1.0,
        "points": 101,
    },
    "fig7": {
        "kind": "wigner-study", "mode": "marginals",
        "level_a": 0, "level_b": 1, "alpha_a": 1.0, "alpha_b": 1.0,
        "points": 101,
    },
    "fig8": {
        "kind": "wigner-study", "mode": "marginals",
        "level_a": 1, "level_b": 0, "alpha_a": 1.0, "alpha_b": 1.0,
        "points": 101,
    },
    "fig9": {
        "kind": "wigner-study", "mode": "marginals",
        "level_a": 1, "level_b": 1, "alpha_a": 1.0, "alpha_b": 1.0,
        "points": 101,
    },
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
    rejected before that leaves nothing behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


_CSV_CHUNK_ROWS = 1024


def _write_csv(path: Path, columns, arrays) -> dict:
    """Write equal-length column arrays as CSV rows, every value as ``%.17g``.

    ``%`` formats floats with the same code as ``f"{v:.17g}"``, so one row
    template applied to a chunk of rows gives the same bytes as formatting
    value by value.  Chunks bound the size of each formatted string.

    A Wigner grid repeats most of its values (its x and xi columns are
    repeated axes), so a chunk in which at most half the values are distinct
    formats each distinct value once and fills a ``%s`` row template from
    those strings.  Values are told apart by their int64 bit patterns, not
    by float equality, so ``0.0`` and ``-0.0`` keep ``0`` and ``-0`` and a
    NaN matches only its own bits.  Deduplicating the whole file at once
    was rejected: it holds an index and a string for every value of the
    file, and a ``figures`` benchmark run peaked at 60 MiB with it against
    44 MiB chunk by chunk.
    """
    rows = len(arrays[0])
    if len(arrays) != len(columns) or any(len(a) != rows for a in arrays):
        raise ValueError("need one array per CSV column, all of equal length")
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    text_template = ",".join(["%s"] * len(columns)) + "\n"
    with _create(path) as handle:
        handle.write(",".join(columns) + "\n")
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            chunk = np.column_stack([a[start : start + _CSV_CHUNK_ROWS] for a in arrays])
            # as float64, so that the key is one int64 bit pattern per value
            bits = chunk.astype(np.float64, copy=False).view(np.int64).ravel()
            # a plain sort counts the distinct values at a third of the cost
            # of np.unique's inverse, which only a repetitive chunk needs
            ordered = np.sort(bits)
            if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > bits.size:
                handle.write((template * len(chunk)) % tuple(chunk.ravel().tolist()))
                continue
            keys, inverse = np.unique(bits, return_inverse=True)
            texts = ("%.17g\n" * len(keys) % tuple(keys.view(np.float64).tolist())).split("\n")
            values = np.array(texts, dtype=object)[inverse]
            handle.write((text_template * len(chunk)) % tuple(values.tolist()))
    return {"name": path.name, "rows": rows, "columns": list(columns)}


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


def _require(parameters: dict, key: str, kind_name: str):
    if key not in parameters:
        raise ConfigError(f"{kind_name} requires parameter {key!r}")
    return parameters[key]


def _integer(p: dict, key: str, kind_name: str, default=None) -> int:
    """An int-valued key, required without a default; fractions and bools are rejected."""
    value = _require(p, key, kind_name) if default is None else p.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{kind_name}: {key} must be an integer, got {value!r}")
    return value


@contextmanager
def _config_values(kind_name: str):
    """Report a ValueError raised while building run objects as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{kind_name}: {exc}") from exc


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
    if config.kind == "classical-trajectory":
        files, extra = _run_classical_trajectory(config)
    elif config.kind == "wigner-study":
        files, extra = _run_wigner_study(config)
    else:
        files, extra = _run_invariant_suite(config)
    manifest = _finalize(config, files, started, extra)
    if config.kind == "invariant-suite" and not extra["all_passed"]:
        raise NumericalFailure(
            "invariant suite failed: "
            + ", ".join(k for k, v in extra["results"].items() if not v["passed"])
        )
    return manifest


def _run_classical_trajectory(config: ExperimentConfig):
    p = config.parameters
    name = str(p.get("name", "trajectory"))
    with _config_values(config.kind):
        params = OscillatorParams(
            m_a=float(p.get("m_a", 1.0)),
            m_b=float(p.get("m_b", 1.0)),
            m_c=float(p.get("m_c", 1e6)),
            k_a=float(_require(p, "omega_a", config.kind)) ** 2 * float(p.get("m_a", 1.0)),
            k_b=float(_require(p, "omega_b", config.kind)) ** 2 * float(p.get("m_b", 1.0)),
            a0=float(_require(p, "a0", config.kind)),
            b0=float(_require(p, "b0", config.kind)),
            phi_a=float(p.get("phi_a", 0.0)),
            phi_b=float(p.get("phi_b", 0.0)),
        )
        t_final = float(p.get("t_final", 20.0))
        dt = float(p.get("dt", 1e-3))
    # written so that NaN fails both comparisons
    if not (0 < t_final < math.inf and 0 < dt < math.inf):
        raise ConfigError(f"t_final and dt must be positive and finite, got {t_final} and {dt}")
    steps = t_final / dt  # inf once the ratio overflows
    if not (steps + 1 <= MAX_TRAJECTORY_ROWS):
        raise ConfigError(
            f"t_final / dt = {steps:.3g} asks for more than {MAX_TRAJECTORY_ROWS} rows"
        )
    times = np.arange(int(round(steps)) + 1) * dt
    x_a, x_b = analytic_oscillator_frame_c(params, times)
    q_b, q_c = analytic_oscillator_frame_a(params, times)
    entry = _write_csv(
        config.output_dir / f"{name}.csv",
        ["t", "x_A", "x_B", "q_B", "q_C"],
        (times, x_a, x_b, q_b, q_c),
    )
    return [entry], None


def _wigner_csv_columns(grid):
    """The (x, xi, w) columns of a Wigner grid, x-major."""
    return (
        np.repeat(grid.x, grid.xi.shape[0]),
        np.tile(grid.xi, grid.x.shape[0]),
        grid.values.ravel(),
    )


def _run_wigner_study(config: ExperimentConfig):
    p = config.parameters
    mode = str(_require(p, "mode", config.kind))
    name = str(p.get("name", "wigner"))
    points = _integer(p, "points", config.kind, default=101)
    if points < 2:
        raise ConfigError(f"points must be at least 2, got {points}")
    files = []
    if mode == "eigenstates":
        with _config_values(config.kind):
            alpha = float(p.get("alpha", 1.0))
            half_width = float(p.get("half_width", 5.0))
            if not (0 < half_width < math.inf):  # NaN fails it
                raise ValueError(f"half_width must be positive and finite, got {half_width}")
            x = np.linspace(-half_width, half_width, points)
            grids = [closed_form_eigenstate_wigner(level, alpha, x, x * alpha) for level in (0, 1)]
        for grid, tag in zip(grids, ("ground", "excited")):
            if not (abs(grid.integral() - 1.0) <= 1e-4):  # NaN fails it
                raise NumericalFailure(
                    f"closed-form Wigner normalization off: {grid.integral():.6f}"
                )
            files.append(
                _write_csv(
                    config.output_dir / f"{name}_{tag}.csv",
                    ["x", "xi", "w"],
                    _wigner_csv_columns(grid),
                )
            )
    elif mode == "marginals":
        level_a = _integer(p, "level_a", config.kind)
        level_b = _integer(p, "level_b", config.kind)
        with _config_values(config.kind):
            alpha_a = float(_require(p, "alpha_a", config.kind))
            alpha_b = float(_require(p, "alpha_b", config.kind))
            joint = transformed_joint_wigner(level_a, level_b, alpha_a, alpha_b)
        sigma = 1.0 / math.sqrt(min(alpha_a, alpha_b))
        sigma_p = math.sqrt(max(alpha_a, alpha_b))
        x = np.linspace(-6.0 * sigma, 6.0 * sigma, points)
        xi = np.linspace(-6.0 * sigma_p, 6.0 * sigma_p, points)
        for keep in ("B", "C"):
            grid = marginal_wigner(joint, keep, x, xi, quad_points=3)
            if not (abs(grid.integral() - 1.0) <= 1e-4):
                raise NumericalFailure(
                    f"marginal {keep} normalization off: {grid.integral():.6f}"
                )
            # pointwise, which the normalization is not: 3 and 5 nodes agree
            # to rounding only where both rules are exact
            finer = marginal_wigner(joint, keep, x, xi, quad_points=5)
            gap = float(np.max(np.abs(finer.values - grid.values)))
            if not (gap <= 1e-12 * float(np.max(np.abs(grid.values)))):
                raise NumericalFailure(
                    f"marginal {keep} quadrature not converged: 3 and 5 nodes differ by {gap:.3e}"
                )
            files.append(
                _write_csv(
                    config.output_dir / f"{name}_marginal_{keep}.csv",
                    ["x", "xi", "w"],
                    _wigner_csv_columns(grid),
                )
            )
    else:
        raise ConfigError(f"unknown wigner-study mode {mode!r}")
    return files, None


def _run_invariant_suite(config: ExperimentConfig):
    """Quick seeded pass over the library's cross-cutting invariants."""
    rng = np.random.default_rng(config.seed)
    grid_n = _integer(config.parameters, "grid_n", config.kind, default=64)
    with _config_values(config.kind):
        grid = Grid1D(grid_n, float(config.parameters.get("grid_length", 20.0)))
    subsystems = [("B", grid), ("C", grid)]
    results: dict[str, dict] = {}

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
    state = ho_eigenstate(grid, "B", 1, alpha=1.0)
    wig = wigner_of_state(state)
    density = np.abs(state.amplitudes) ** 2
    marginal = wig.position_marginal()[::2][: grid.n]
    record("wigner_position_marginal", float(np.max(np.abs(marginal - density))), 1e-6)

    # classical switch round trip on random points
    worst = 0.0
    for _ in range(200):
        rp = ReducedPhasePoint(FRAME_A, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        back = classical_frame_switch(classical_frame_switch(rp, FRAME_C), FRAME_A)
        worst = max(
            worst,
            float(np.max(np.abs(back.q_rel - rp.q_rel))),
            float(np.max(np.abs(back.p_rel - rp.p_rel))),
        )
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

    all_passed = all(entry["passed"] for entry in results.values())
    report = {"results": results, "all_passed": all_passed, "seed": config.seed}
    path = config.output_dir / "suite_report.json"
    with _create(path) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    entry = {"name": path.name, "rows": len(results), "columns": ["property", "value", "tolerance", "passed"]}
    return [entry], {"results": results, "all_passed": all_passed}
