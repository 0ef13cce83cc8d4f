"""Spans and counters for the traced run, opened from outside the library.

Two sources open spans:

* the workloads, around every call a job makes into a ``qrf`` layer
  (``Tracer.call``);
* boundary wrappers, installed only for the traced passes, around the public
  names one ``qrf`` module imports from another (``install_boundaries``).
  They are restored after each traced pass.

Spans are kept in memory as ``[name, start, end, parent, job]`` rows and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; spans nest strictly because the loop is
single-threaded.  A name's first component is its layer (the ``qrf`` module).
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

LAYERS = (
    "cli",
    "experiments",
    "wigner",
    "dynamics",
    "classical",
    "grids",
    "observables",
    "physical",
    "switching",
)

# Names one qrf module imports from another, wrapped where the importer looks
# them up, so calls made inside the defining module are not wrapped.  Methods
# are wrapped on their class, so every caller is seen.  "count" entries are
# called per grid point or per integrator step: a span there would cost more
# than the call, so they only count calls, keyed by the enclosing span, and
# their time stays in that span.  dense and serialization are oracle and
# fixture code and are on no measured path.
BOUNDARIES = (
    ("qrf.cli", "emit_figure_data", "experiments.emit_figure_data", "span"),
    ("qrf.cli", "run_experiment", "experiments.run_experiment", "span"),
    ("qrf.cli", "load_config", "experiments.load_config", "span"),
    ("qrf.experiments", "classical_frame_switch", "classical.classical_frame_switch", "span"),
    ("qrf.experiments", "integrate_reduced", "dynamics.integrate_reduced", "span"),
    ("qrf.experiments", "analytic_oscillator_frame_a", "dynamics.analytic_oscillator_frame_a", "span"),
    ("qrf.experiments", "analytic_oscillator_frame_c", "dynamics.analytic_oscillator_frame_c", "span"),
    ("qrf.experiments", "fidelity", "grids.fidelity", "span"),
    ("qrf.experiments", "ho_eigenstate", "grids.ho_eigenstate", "span"),
    ("qrf.experiments", "random_wavefunction", "grids.random_wavefunction", "span"),
    ("qrf.experiments", "to_representation", "grids.to_representation", "span"),
    ("qrf.experiments", "commutator_expectation", "observables.commutator_expectation", "span"),
    ("qrf.experiments", "physical_inner_product", "physical.physical_inner_product", "span"),
    ("qrf.experiments", "physical_state", "physical.physical_state", "span"),
    ("qrf.experiments", "reexpress", "physical.reexpress", "span"),
    ("qrf.experiments", "switch_frame", "switching.switch_frame", "span"),
    ("qrf.experiments", "closed_form_eigenstate_wigner", "wigner.closed_form_eigenstate_wigner", "span"),
    ("qrf.experiments", "marginal_wigner", "wigner.marginal_wigner", "span"),
    ("qrf.experiments", "transformed_joint_wigner", "wigner.transformed_joint_wigner", "span"),
    ("qrf.experiments", "wigner_of_state", "wigner.wigner_of_state", "span"),
    ("qrf.dynamics", "embed_reduced", "classical.embed_reduced", "count"),
    ("qrf.dynamics", "spring_potential", "classical.spring_potential", "span"),
    ("qrf.physical", "kinetic_matrix", "dynamics.kinetic_matrix", "span"),
    ("qrf.physical", "change_representation", "grids.change_representation", "span"),
    ("qrf.physical", "inner_product", "grids.inner_product", "span"),
    ("qrf.physical", "to_representation", "grids.to_representation", "span"),
    ("qrf.switching", "apply_shear_phase", "grids.apply_shear_phase", "span"),
    ("qrf.switching", "change_representation", "grids.change_representation", "span"),
    ("qrf.switching", "fidelity", "grids.fidelity", "span"),
    ("qrf.switching", "reflect_axis", "grids.reflect_axis", "span"),
    ("qrf.switching", "relabel_axis", "grids.relabel_axis", "span"),
    ("qrf.switching", "with_axis_order", "grids.with_axis_order", "span"),
    ("qrf.switching", "momentum_substitution", "physical.momentum_substitution", "span"),
    ("qrf.switching", "reduced_labels", "physical.reduced_labels", "span"),
    ("qrf.switching", "reduced_quantum_hamiltonian", "physical.reduced_quantum_hamiltonian", "span"),
    ("qrf.observables", "change_representation", "grids.change_representation", "span"),
    ("qrf.observables", "inner_product", "grids.inner_product", "span"),
    ("qrf.wigner", "to_representation", "grids.to_representation", "span"),
    ("qrf.classical:Potential", "__call__", "classical.potential", "count"),
    ("qrf.classical:Potential", "gradient", "classical.gradient", "count"),
    ("qrf.observables:Observable", "apply", "observables.apply", "span"),
    ("qrf.dynamics:Trajectory", "energies", "dynamics.energies", "span"),
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _noop_hook(tracer, fn, args, kwargs, result):
    if result is args[0]:
        tracer.count("grids.change_representation.noop")


def _joint_evals_hook(tracer, fn, args, kwargs, result):
    # computed: one joint-Wigner evaluation per output point and quadrature node
    a = _bound(fn, args, kwargs)
    evals = len(a["x"]) * len(a["xi"]) * a["quad_points"] ** 2
    tracer.count("wigner.marginal_wigner.joint_evals", evals)


def _integrate_steps_hook(tracer, fn, args, kwargs, result):
    tracer.count("dynamics.integrate_reduced.steps", len(result) - 1)


def _energy_samples_hook(tracer, fn, args, kwargs, result):
    tracer.count("dynamics.energies.samples", len(result))


def _evolve_steps_hook(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = a["psi"].subsystems[0][1].n
    tracer.count(f"physical.evolve.steps.n{n}", int(round(a["t"] / a["dt"])))


# Keyed by "<layer>.<function>"; a span name may add a variant after that.
HOOKS = {
    "grids.change_representation": _noop_hook,
    "wigner.marginal_wigner": _joint_evals_hook,
    "dynamics.integrate_reduced": _integrate_steps_hook,
    "dynamics.energies": _energy_samples_hook,
    "physical.evolve": _evolve_steps_hook,
}


class Untraced:
    """Tracer stand-in for untraced passes: every call goes straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer.stack
        self.index = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job])

    def __enter__(self):
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory spans and counters; records only while a job is running."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str | None], int] = {}
        self.job: int | None = None

    def call(self, name, fn, *args, **kwargs):
        # outside a job, or a wrapped method called from a job span of the same name
        if self.job is None or (self.stack and self.spans[self.stack[-1]][0] == name):
            return fn(*args, **kwargs)
        with _Span(self, name):
            result = fn(*args, **kwargs)
        hook = HOOKS.get(".".join(name.split(".")[:2]))
        if hook is not None:
            hook(self, fn, args, kwargs, result)
        return result

    def count(self, name, n=1):
        if self.job is None:
            return
        key = (name, self.spans[self.stack[-1]][0] if self.stack else None)
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps([name, start, end, parent, job]) + "\n")
            for (name, parent), value in sorted(self.counts.items(), key=str):
                handle.write(json.dumps(["count", name, parent, value]) + "\n")


def _wrapper(tracer, fn, name, kind):
    if kind == "count":
        calls = name + ".calls"

        def counted(*args, **kwargs):
            tracer.count(calls)
            return fn(*args, **kwargs)

        return counted

    def spanned(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return spanned


def install_boundaries(tracer):
    """Wrap every boundary that still exists; return (restore list, missing names).

    A name that a refactor removed or moved is skipped and reported, so the
    traced run keeps working across refactors.
    """
    restore, missing = [], []
    for owner_path, attr, name, kind in BOUNDARIES:
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            missing.append(f"{owner_path}.{attr}")
            continue
        original = vars(owner).get(attr)
        if not callable(original):
            missing.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, _wrapper(tracer, original, name, kind))
        restore.append((owner, attr, original))
    return restore, missing


def restore_boundaries(restore):
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Computed work of one GridHamiltonian.evolve step on an n x n grid, as the
# code stands: four centred 1-D FFT passes (5 n^2 log2 n flops each), eight
# real sign multiplies (2 flops per element), two 1/n ifft scalings, and
# three complex phase multiplies (6 flops per element).  Bytes assume each
# numpy operation streams its complex operands once: 48 B per element for
# each phase multiply, 96 B per element for each 1-D pass (sign, FFT, sign).
def evolve_step_flops(n):
    log2n = n.bit_length() - 1
    return 4 * 5 * n * n * log2n + (8 * 2 + 2 * 2 + 3 * 6) * n * n


def evolve_step_bytes(n):
    return (3 * 48 + 4 * 96) * n * n


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def per_layer_metrics(tracer, traced_pass_s, untraced_pass_s, missing, work_counts):
    """Per-pass layer figures from one traced run.

    Times and counts are per pass of the workload's job list (the mean over
    the traced passes); ``work_counts`` are per-pass counts the workload
    computed itself.  A metric a workload never reaches reads 0.
    """
    passes = len(traced_pass_s)
    spans = tracer.spans
    selfs = _self_times(spans)
    durations = [end - start for _, start, end, _, _ in spans]

    def matching(prefix):
        return [i for i, s in enumerate(spans) if s[0] == prefix or s[0].startswith(prefix + ".")]

    def self_s(prefix):
        return sum(selfs[i] for i in matching(prefix)) / passes

    def span_count(prefix):
        return len(matching(prefix))

    def counted(name, parent=...):
        return sum(v for (n, p), v in tracer.counts.items() if n == name and (parent is ... or p == parent))

    def ratio(num, den):
        return num / den if den else 0.0

    traced_run = sum(traced_pass_s) / passes
    layer_self = {layer: self_s(layer) for layer in LAYERS}
    m = {f"{layer}.self_s": (value, "s") for layer, value in layer_self.items()}
    m["trace.run_s"] = (traced_run, "s")
    m["trace.bench_self_s"] = (traced_run - sum(layer_self.values()), "s")
    m["trace.overhead_frac"] = (
        statistics.median(traced_pass_s) / statistics.median(untraced_pass_s) - 1.0,
        "ratio",
    )
    m["trace.boundaries_missing"] = (len(missing), "count")

    m["physical.evolve.self_s"] = (self_s("physical.evolve"), "s")
    for n in (128, 256):
        steps = counted(f"physical.evolve.steps.n{n}")
        busy = sum(durations[i] for i in matching(f"physical.evolve.n{n}"))
        m[f"physical.evolve.step_us.n{n}"] = (1e6 * ratio(busy, steps), "us")
        m[f"physical.evolve.flops.n{n}"] = (evolve_step_flops(n), "flop")
        m[f"physical.evolve.bytes.n{n}"] = (evolve_step_bytes(n), "B")
        m[f"physical.evolve.flop_per_byte.n{n}"] = (evolve_step_flops(n) / evolve_step_bytes(n), "flop/B")
    m["physical.reduced_quantum_hamiltonian.self_s"] = (self_s("physical.reduced_quantum_hamiltonian"), "s")
    m["classical.potential.calls"] = (counted("classical.potential.calls") / passes, "count")
    m["classical.potential.calls_per_build"] = (
        ratio(
            counted("classical.potential.calls", "physical.reduced_quantum_hamiltonian"),
            span_count("physical.reduced_quantum_hamiltonian"),
        ),
        "count",
    )

    conversions = span_count("grids.change_representation")
    m["grids.change_representation.calls"] = (conversions / passes, "count")
    m["grids.change_representation.self_s"] = (self_s("grids.change_representation"), "s")
    m["grids.change_representation.noop_frac"] = (
        ratio(counted("grids.change_representation.noop"), conversions),
        "ratio",
    )
    for name in (
        "grids.fidelity",
        "grids.random_wavefunction",
        "switching.switch_frame.parity-shear",
        "switching.switch_frame.compositional",
        "physical.momentum_substitution",
        "physical.reexpress",
        "physical.physical_inner_product",
        "observables.expectation",
        "wigner.wigner_transform",
        "wigner.partial_trace",
        "wigner.entanglement_entropy",
        "wigner.marginal_wigner",
        "experiments.run_experiment",
        "experiments.emit_figure_data",
        "cli.main",
        "dynamics.integrate_reduced",
        "dynamics.energies",
        "classical.classical_frame_switch",
        "classical.dirac_bracket",
    ):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["observables.apply.calls"] = (span_count("observables.apply") / passes, "count")
    m["wigner.marginal_wigner.joint_evals"] = (counted("wigner.marginal_wigner.joint_evals") / passes, "count")
    m["cli.main.nonzero_exits"] = (counted("cli.main.nonzero_exits") / passes, "count")

    steps = counted("dynamics.integrate_reduced.steps")
    integrate_busy = sum(durations[i] for i in matching("dynamics.integrate_reduced"))
    m["dynamics.integrate_reduced.step_us"] = (1e6 * ratio(integrate_busy, steps), "us")
    m["classical.gradient.calls_per_step"] = (
        ratio(counted("classical.gradient.calls", "dynamics.integrate_reduced"), steps),
        "count",
    )
    samples = counted("dynamics.energies.samples")
    energies_busy = sum(durations[i] for i in matching("dynamics.energies"))
    m["dynamics.energies.sample_us"] = (1e6 * ratio(energies_busy, samples), "us")

    m["experiments.csv_bytes"] = (0, "B")
    m["experiments.csv_rows"] = (0, "count")
    m.update(work_counts)
    return m
