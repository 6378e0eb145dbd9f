"""Config-driven batch experiment driver with deterministic CSV output.

Configs are flat ``key = value`` text files (``#`` comments); positional
``key=value`` arguments override file entries.  Every run writes one CSV
in the schema owned by the experiment plus a ``.meta`` sidecar listing the
resolved parameters and artifact version.  All randomness flows from a
single counter-based generator seeded from the config, so outputs are
byte-identical for identical (config, seed).

Each experiment's runner is the one place that knows its limits: it checks
them and makes its cheap set-up, then returns its rows as an iterator.
``run`` draws and writes the rows; ``validate`` stops before the first.

Exit codes: 0 ok, 2 config error, 3 numeric/capacity error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .detector import (
    MAX_CASCADE_STEPS,
    CoefficientPair,
    a_matrix_power,
    cascade_closed_form,
    cascade_simulate,
    decide_and_repair,
    detect,
    detector_probe_state,
    twin_beam_state,
)
from .fock import CapacityError, _fidelity
from .kerr import _conditioned_terms, homodyne_pdf, make_rng, peak_center
from .pdc import six_photon_mixture, squeezed_weights
from .schemes import (
    GhzReadout,
    build_psi_theta,
    decode_table,
    ghz_state,
    psi_theta_reference,
    w_pair_state,
)


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2.  Holds one message per broken rule."""

    def __str__(self) -> str:
        return "; ".join(self.args)


@dataclass(frozen=True)
class Param:
    name: str
    kind: type  # float, int or str; parses the raw text
    required: bool = False
    default: object = None
    doc: str = ""
    min: float | None = None  # the value must be >= min
    above: float | None = None  # the value must be > above

    def bound_error(self, value) -> str | None:
        """Why ``value`` breaks the declared range, or ``None``."""
        if self.min is not None and value < self.min:
            broken = "be non-negative" if self.min == 0 else f"be at least {self.min}"
        elif self.above is not None and value <= self.above:
            broken = "be positive" if self.above == 0 else f"exceed {self.above}"
        else:
            return None
        return f"parameter {self.name!r} must {broken}"


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    columns: str
    params: tuple[Param, ...]
    runner: Callable[[dict], Iterable[tuple]]  # checks the config, then returns its rows lazily


def _parse_value(param: Param, raw: str):
    try:
        value = param.kind(raw)
    except ValueError:
        raise ConfigError(f"parameter {param.name!r} expects a {param.kind.__name__}, got {raw!r}") from None
    if param.kind is float and not math.isfinite(value):
        raise ConfigError(f"parameter {param.name!r} must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; raises with line numbers on bad syntax."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def resolve_config(source: str, overrides: list[str]) -> dict[str, str]:
    """Load a config file (or start from a bare experiment name) plus overrides."""
    path = Path(source)
    if path.is_file():
        values = parse_config_text(path.read_text())
    elif source in EXPERIMENTS:
        values = {"experiment": source}
    else:
        raise ConfigError(f"config file {source!r} not found")
    for item in overrides:
        key, eq, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        values[key] = value
    return values


def typed_params(experiment: Experiment, values: dict[str, str]) -> dict:
    """Typed parameters with defaults filled in; raises naming every broken declared bound."""
    known = {p.name: p for p in experiment.params}
    typed: dict = {}
    for key, raw in values.items():
        if key == "experiment":
            continue
        if key not in known:
            raise ConfigError(
                f"unknown parameter {key!r} for experiment {experiment.name!r}"
            )
        typed[key] = _parse_value(known[key], raw)
    errors = []
    for param in experiment.params:
        if param.name not in typed:
            if param.required:
                raise ConfigError(f"missing required parameter {param.name!r}")
            if param.default is not None:
                typed[param.name] = param.default
        elif (message := param.bound_error(typed[param.name])) is not None:
            errors.append(message)
    if errors:
        raise ConfigError(*errors)
    return typed


# -- experiment runners: checks and set-up, then the rows as an iterator ----


def _normalized_pair(typed: dict) -> CoefficientPair:
    if typed["m0"] == 0.0 and typed["n0"] == 0.0:
        raise ConfigError("parameters 'm0' and 'n0' must not both be zero")
    try:
        # near the ends of the double range the rescaling divides by zero,
        # overflows or misses m^2 + n^2 = 1/2
        pair = CoefficientPair(typed["m0"], typed["n0"]).normalized()
        if pair.is_normalized:
            return pair
    except ArithmeticError:
        pass
    raise ConfigError(
        "parameters 'm0' and 'n0' cannot be rescaled to m^2 + n^2 = 1/2 in double precision "
        f"(m0={typed['m0']!r}, n0={typed['n0']!r})"
    )


def _grid(typed: dict) -> int:
    longest = np.iinfo(np.intp).max // 8  # numpy sizes a float array in bytes with its index type
    if typed["grid"] > longest:
        raise ConfigError(f"parameter 'grid' must be at most {longest}, the longest float array numpy can size")
    return typed["grid"]


def _points(lo: float, hi: float, grid: int) -> list[float]:
    """``np.linspace(lo, hi, grid)`` as floats; a capacity error if the points do not fit in memory."""
    try:
        return np.linspace(lo, hi, grid).tolist()
    except MemoryError:
        raise CapacityError(f"grid={grid} is too long: its points do not fit in memory") from None


def _cascade_rows(pair0: CoefficientPair, steps: int) -> Iterator[tuple]:
    run = cascade_simulate(pair0, steps)
    cumulative = 1.0
    for k, probability in enumerate(run.step_probabilities, start=1):
        closed = cascade_closed_form(pair0, k)
        cumulative *= probability
        yield (k, closed.m_k, closed.n_k, closed.ratio, closed.c_k,
               probability, cumulative, closed.fidelity_with_target)


def run_cascade(typed: dict) -> Iterator[tuple]:
    # symmetry-detect declares no k: one detector pass is the depth-1 cascade
    steps = typed.get("k", 1)
    pair0 = _normalized_pair(typed)
    a_matrix_power(steps)  # a CapacityError past MAX_CASCADE_STEPS
    return _cascade_rows(pair0, steps)


def _psi_theta_rows(grid: int) -> Iterator[tuple]:
    ghz_ref = ghz_state()
    w_ref = w_pair_state(False)
    w_ref_flipped = w_pair_state(True)
    for theta in _points(0.0, math.pi / 2.0, grid):
        result = build_psi_theta(theta)
        reference = psi_theta_reference(theta)
        yield (
            theta,
            result.postselect_probability,
            result.state.fidelity(ghz_ref),
            result.state.fidelity(w_ref) + result.state.fidelity(w_ref_flipped),
            result.state.fidelity(reference),
        )


def run_psi_theta(typed: dict) -> Iterator[tuple]:
    return _psi_theta_rows(_grid(typed))


def _ghz_rows(typed: dict) -> Iterator[tuple]:
    readout = GhzReadout(build_psi_theta(math.pi / 2.0).state, typed["alpha"], typed["theta"])
    table = readout.table
    target = ghz_state()
    samples = typed["samples"]
    if samples > 0:
        rng = make_rng(typed["seed"])
        counts = [0] * len(table.intervals)
        fidelity_sums = [0.0] * len(table.intervals)
        for _ in range(samples):
            corrected, index, _ = readout.sample(rng)
            counts[index] += 1
            fidelity_sums[index] += corrected.fidelity(target)
        probabilities = [count / samples for count in counts]
        fidelities = [total / count if count else math.nan for total, count in zip(fidelity_sums, counts)]
    else:
        probabilities = readout.probabilities()
        fidelities = []
        for interval in table.intervals:
            corrected, _ = readout.condition(table.peak_center(interval))
            fidelities.append(corrected.fidelity(target) if corrected is not None else 0.0)
    for interval, probability, fidelity in zip(table.intervals, probabilities, fidelities):
        yield (interval.index, interval.branch, interval.x_lo, interval.x_hi, probability, fidelity)


def run_ghz_circuit(typed: dict) -> Iterator[tuple]:
    alpha, theta, samples = typed["alpha"], typed["theta"], typed["samples"]
    errors = []
    peak = peak_center(alpha, 0.0)  # the largest homodyne peak, 2*alpha
    if not math.isfinite(peak):
        errors.append("parameter 'alpha' is too large: the homodyne peak 2*alpha overflows a double")
    else:
        try:
            table = decode_table(alpha, theta)
        except ValueError as exc:
            errors.append(f"parameter 'theta' rejected: {exc}")
        else:
            # the exact analysis conditions on each interval's peak, where the repair phase is 0
            if samples == 0 and any(table.lookup(table.peak_center(i)) is not i for i in table.intervals):
                errors.append(
                    "parameter 'theta' is too small for parameter 'alpha': a branch's peak falls outside "
                    "its decode interval, so the peaks are not resolved in double precision"
                )
    if typed.get("seed", 0) >= 2**64:
        errors.append("parameter 'seed' must be an unsigned 64-bit integer")
    if samples > 0 and typed.get("seed") is None:
        errors.append("parameter 'seed' is required when samples > 0")
    # a draw adds unit-variance noise to a peak near 2*alpha; once that noise
    # falls below the peak's resolution every draw lands on a peak
    ulp = math.ulp(peak)
    if samples > 0 and ulp > 2.0**-20:
        errors.append(
            "parameter 'alpha' must be below 2**32 when samples > 0: a draw's "
            f"homodyne noise is lost below ulp(2*alpha) = {ulp:.3g}"
        )
    if errors:
        raise ConfigError(*errors)
    return _ghz_rows(typed)


def _squeezed_rows(tau: float, n_max: int) -> Iterator[tuple]:
    try:
        weights = squeezed_weights(tau, n_max).weights
    except MemoryError:
        raise CapacityError(f"n_max={n_max} is too large: its weights do not fit in memory") from None
    for n, w in enumerate(weights):
        if w != 0.0:  # rows with exactly zero amplitude carry no information (tau = 0)
            yield (n, w, w * w)


def run_pdc_weights(typed: dict) -> Iterable[tuple]:
    if ("tau" in typed) == ("k" in typed):
        raise ConfigError("exactly one of 'tau' (squeezed expansion) or 'k' (mixture) is required")
    if "k" in typed:
        mixture = six_photon_mixture(typed["k"])  # a CapacityError once the amplitudes are not finite
        # amplitudes print as real parts; for 1 < k < 2 the three-pair
        # closed form turns imaginary and prints as zero (see README)
        return [(typed["k"], *(a.real for a in mixture.amps))]
    try:
        squeezed_weights(typed["tau"], 0)
    except OverflowError as exc:
        raise ConfigError(f"parameter 'tau' rejected: {exc}") from None
    return _squeezed_rows(typed["tau"], typed["n_max"])


def _sweep_rows(typed: dict, tagged, targets: dict, lo: float, top: float) -> Iterator[tuple]:
    # each point is homodyne_condition, decide_and_repair and FockKet.fidelity
    # on the terms alone: the same sums in the same order, and no ket built
    alpha, theta = typed["alpha"], typed["theta"]
    for x in _points(lo, top, typed["grid"]):
        branch, repaired = decide_and_repair(_conditioned_terms(tagged, x), x, alpha, theta)
        interval, target = targets[branch]
        fidelity = _fidelity(repaired, target) if target is not None else 0.0
        yield (x, homodyne_pdf(tagged, x), interval, fidelity)


def run_homodyne_sweep(typed: dict) -> Iterator[tuple]:
    alpha, theta = typed["alpha"], typed["theta"]
    pair = _normalized_pair(typed)
    state = twin_beam_state(pair)
    tagged = detector_probe_state(state, alpha, theta)
    # a branch's probe phase is index * theta / 2, and the readout takes its cosine
    if not all(math.isfinite(tagged.phase_of(index)) for index in tagged.group_weights()):
        raise ConfigError(
            "parameter 'theta' is too large: a branch's probe phase index * theta / 2 overflows a double"
        )
    top = peak_center(alpha, 0.0) + 8.0  # at or above the lower end, so it overflows first
    if not math.isfinite(top):
        raise OverflowError(f"alpha={alpha} is too large: the sweep grid's end 2*alpha + 8 overflows a double")
    lo = peak_center(alpha, theta) - 8.0
    _grid(typed)
    # (x - peak)**2 is largest at an end of the grid, and linspace puts the
    # ends at the same two points for any size: the run's OverflowError, if any
    for x in np.linspace(lo, top, 2).tolist():
        homodyne_pdf(tagged, x)
    asymmetric_target = detect(state, alpha, theta, force="asymmetric").state \
        if abs(pair.m - pair.n) > 1e-12 else None
    # the CSV numbers the high-x (symmetric) interval 0
    targets = {"symmetric": (0, tagged.branch(0)), "asymmetric": (1, asymmetric_target)}
    return _sweep_rows(typed, tagged, targets, lo, top)


_PAIR_PARAMS = (
    Param("m0", float, required=True, doc="first twin-beam coefficient (rescaled to m^2+n^2=1/2)"),
    Param("n0", float, required=True, doc="second twin-beam coefficient"),
)
_PROBE_PARAMS = (
    Param("alpha", float, default=1000.0, doc="coherent probe amplitude", min=0),
    Param("theta", float, default=0.1, doc="base Kerr phase in radians", above=0),
)
_OUTPUT_PARAM = Param("output", str, doc="output CSV path (default <experiment>.csv)")

EXPERIMENTS: dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            name="cascade",
            description="iterated symmetry detection, closed form vs simulation",
            columns="k,m_k,n_k,ratio,C_k,step_success_prob,cumulative_prob,fidelity_psi3",
            params=_PAIR_PARAMS
            + (Param("k", int, required=True, doc=f"number of detector passes (max {MAX_CASCADE_STEPS})", min=1),)
            + _PROBE_PARAMS
            + (_OUTPUT_PARAM,),
            runner=run_cascade,
        ),
        Experiment(
            name="symmetry-detect",
            description="single symmetry-detector pass (depth-1 cascade row)",
            columns="k,m_k,n_k,ratio,C_k,step_success_prob,cumulative_prob,fidelity_psi3",
            params=_PAIR_PARAMS + _PROBE_PARAMS + (_OUTPUT_PARAM,),
            runner=run_cascade,
        ),
        Experiment(
            name="psi-theta",
            description="six-mode preparation pipeline over a rotation-angle grid",
            columns="theta,postselect_prob,ghz_weight,w_pair_weight,fidelity_vs_reference",
            params=(
                Param("grid", int, default=20, doc="number of theta points on [0, pi/2]", min=2),
                _OUTPUT_PARAM,
            ),
            runner=run_psi_theta,
        ),
        Experiment(
            name="ghz-circuit",
            description="homodyne interval decoding of the uniform-polarization pair",
            columns="interval,k,x_lo,x_hi,probability,fidelity_after_correction",
            params=(
                replace(_PROBE_PARAMS[0], min=None, above=0),
                _PROBE_PARAMS[1],
                Param("samples", int, default=0, doc="sampled draws (0 = exact analysis)", min=0),
                Param("seed", int, doc="generator seed, required when samples > 0", min=0),
                _OUTPUT_PARAM,
            ),
            runner=run_ghz_circuit,
        ),
        Experiment(
            name="pdc-weights",
            description="pair-order expansion (tau) or six-photon mixture (k)",
            columns="n,amplitude,probability | k,a3,a21,a111",
            params=(
                Param("tau", float, doc="squeezing interaction parameter", min=0),
                Param("n_max", int, default=80, doc="truncation order of the expansion", min=0),
                Param("k", float, doc="pulse-duration ratio for the mixture", min=1),
                _OUTPUT_PARAM,
            ),
            runner=run_pdc_weights,
        ),
        Experiment(
            name="homodyne-sweep",
            description="detector quadrature sweep: density, interval, repaired fidelity",
            columns="x,pdf,interval_index,fidelity_after_correction",
            params=_PAIR_PARAMS
            + _PROBE_PARAMS
            + (
                Param("grid", int, default=200, doc="number of quadrature points", min=2),
                _OUTPUT_PARAM,
            ),
            runner=run_homodyne_sweep,
        ),
    )
}


def _experiment_for(values: dict[str, str]) -> Experiment:
    name = values.get("experiment")
    if name is None:
        raise ConfigError("missing required field 'experiment'")
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; choose one of {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[name]


def _rendered(value) -> str:
    """A CSV cell or ``.meta`` value: a float (or numpy float) in 17 significant digits, anything else by ``str``."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_outputs(experiment: Experiment, typed: dict, rows: list[tuple]) -> Path:
    columns = experiment.columns
    if experiment.name == "pdc-weights":  # its columns name the tau header, then the k header
        columns = columns.split(" | ")["k" in typed]
    recorded = {"output": f"{experiment.name}.csv", **typed}  # the .meta records the default name too
    path = Path(recorded["output"])
    out_dir = os.environ.get("FOCKSIM_OUT_DIR")
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    lines = [columns] + [",".join(map(_rendered, row)) for row in rows]
    meta_lines = [f"artifact_version = {__version__}", f"experiment = {experiment.name}"]
    meta_lines += [f"{key} = {_rendered(recorded[key])}" for key in sorted(recorded)]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        try:
            Path(str(path) + ".meta").write_text("\n".join(meta_lines) + "\n")
        except OSError:
            path.unlink()  # a CSV without its .meta would pass for a finished run
            raise
    except OSError as exc:
        raise ConfigError(f"parameter 'output' cannot be written: {exc}") from None
    return path


def _checked(values: dict[str, str]) -> tuple[Experiment, dict, Iterable[tuple]]:
    """The experiment, typed parameters and undrawn rows of a config.

    The runner checks its own rules and limits only once every declared bound holds.
    """
    experiment = _experiment_for(values)
    typed = typed_params(experiment, values)
    return experiment, typed, experiment.runner(typed)


def cmd_run(args: argparse.Namespace) -> int:
    experiment, typed, rows = _checked(resolve_config(args.config, args.overrides))
    rows = list(rows)
    path = _write_outputs(experiment, typed, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        _checked(resolve_config(args.config, []))
    except ConfigError as exc:
        for message in exc.args:
            print(f"error: {message}")
        return 2
    print("ok")
    return 0


def cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[name]
        print(f"{name}: {experiment.description}")
        print(f"  columns: {experiment.columns}")
        for param in experiment.params:
            tags = [param.kind.__name__, "required" if param.required else (
                f"default {param.default}" if param.default is not None else "optional"
            )]
            if param.min is not None:
                tags.append(f">= {param.min}")
            if param.above is not None:
                tags.append(f"> {param.above}")
            print(f"  {param.name} ({', '.join(tags)}): {param.doc}")
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads its arguments with, built on first use."""
    parser = argparse.ArgumentParser(
        prog="focksim",
        description="deterministic few-photon circuit experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="config file path or bare experiment name")
    run_parser.add_argument("overrides", nargs="*", help="key=value overrides")
    run_parser.set_defaults(func=cmd_run)
    validate_parser = sub.add_parser("validate", help="check a config without running it")
    validate_parser.add_argument("config", help="config file path or bare experiment name")
    validate_parser.set_defaults(func=cmd_validate)
    list_parser = sub.add_parser("list", help="print experiments and their parameters")
    list_parser.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, OverflowError) as exc:
        kind = "capacity" if isinstance(exc, CapacityError) else "numeric"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # parameter combinations the library itself refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
