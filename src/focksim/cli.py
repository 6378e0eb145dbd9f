"""Config-driven batch experiment driver with deterministic CSV output.

Configs are flat ``key = value`` text files (``#`` comments); positional
``key=value`` arguments override file entries.  Every run writes one CSV
in the schema owned by the experiment plus a ``.meta`` sidecar listing the
resolved parameters and artifact version.  All randomness flows from a
single counter-based generator seeded from the config, so outputs are
byte-identical for identical (config, seed).

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
from typing import Callable

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
from .fock import CapacityError, format_float
from .kerr import homodyne_condition, homodyne_pdf, make_rng, peak_center
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
    runner: Callable[[dict], list[tuple]]
    checker: Callable[[dict], list[str]] | None = None


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
        if not eq or not key or not value:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        values[key.strip()] = value.strip()
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


def _check_detector(typed: dict) -> list[str]:
    if typed["m0"] == 0.0 and typed["n0"] == 0.0:
        return ["parameters 'm0' and 'n0' must not both be zero"]
    try:
        # rescaled as the run rescales it, which near the ends of the double
        # range divides by zero, overflows or misses m^2 + n^2 = 1/2
        if _normalized_pair(typed).is_normalized:
            return []
    except ArithmeticError:
        pass
    return [
        "parameters 'm0' and 'n0' cannot be rescaled to m^2 + n^2 = 1/2 in double precision "
        f"(m0={typed['m0']!r}, n0={typed['n0']!r})"
    ]


# -- experiment runners ---------------------------------------------------


def _normalized_pair(typed: dict) -> CoefficientPair:
    return CoefficientPair(typed["m0"], typed["n0"]).normalized()


def _cascade_rows(typed: dict, steps: int) -> list[tuple]:
    pair0 = _normalized_pair(typed)
    run = cascade_simulate(pair0, steps, typed["alpha"], typed["theta"])
    rows = []
    cumulative = 1.0
    for k in range(1, steps + 1):
        closed = cascade_closed_form(pair0, k)
        cumulative *= run.step_probabilities[k - 1]
        rows.append(
            (
                k,
                closed.m_k,
                closed.n_k,
                closed.ratio,
                closed.c_k,
                run.step_probabilities[k - 1],
                cumulative,
                closed.fidelity_with_target,
            )
        )
    return rows


def _check_cascade(typed: dict) -> list[str]:
    if errors := _check_detector(typed):
        return errors
    a_matrix_power(typed["k"])  # a CapacityError past MAX_CASCADE_STEPS
    return []


def run_cascade(typed: dict) -> list[tuple]:
    return _cascade_rows(typed, typed["k"])


def run_symmetry_detect(typed: dict) -> list[tuple]:
    # one detector pass is the depth-1 cascade
    return _cascade_rows(typed, 1)


def run_psi_theta(typed: dict) -> list[tuple]:
    grid = typed["grid"]
    ghz_ref = ghz_state()
    w_ref = w_pair_state(False)
    w_ref_flipped = w_pair_state(True)
    rows = []
    for theta in np.linspace(0.0, math.pi / 2.0, grid):
        result = build_psi_theta(float(theta))
        reference = psi_theta_reference(float(theta))
        rows.append(
            (
                float(theta),
                result.postselect_probability,
                result.state.fidelity(ghz_ref),
                result.state.fidelity(w_ref) + result.state.fidelity(w_ref_flipped),
                result.state.fidelity(reference),
            )
        )
    return rows


def _check_ghz(typed: dict) -> list[str]:
    errors = []
    peak = peak_center(typed["alpha"], 0.0)  # the largest homodyne peak, 2*alpha
    if not math.isfinite(peak):
        errors.append("parameter 'alpha' is too large: the homodyne peak 2*alpha overflows a double")
    else:
        try:
            decode_table(typed["alpha"], typed["theta"])
        except ValueError as exc:
            errors.append(f"parameter 'theta' rejected: {exc}")
    if typed.get("seed", 0) >= 2**64:
        errors.append("parameter 'seed' must be an unsigned 64-bit integer")
    if typed["samples"] > 0 and typed.get("seed") is None:
        errors.append("parameter 'seed' is required when samples > 0")
    # a draw adds unit-variance noise to a peak near 2*alpha; once that noise
    # falls below the peak's resolution every draw lands on a peak
    ulp = math.ulp(peak)
    if typed["samples"] > 0 and ulp > 2.0**-20:
        errors.append(
            "parameter 'alpha' must be below 2**32 when samples > 0: a draw's "
            f"homodyne noise is lost below ulp(2*alpha) = {ulp:.3g}"
        )
    return errors


def run_ghz_circuit(typed: dict) -> list[tuple]:
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
    return [
        (interval.index, interval.branch, interval.x_lo, interval.x_hi, probability, fidelity)
        for interval, probability, fidelity in zip(table.intervals, probabilities, fidelities)
    ]


def _check_pdc(typed: dict) -> list[str]:
    if ("tau" in typed) == ("k" in typed):
        return ["exactly one of 'tau' (squeezed expansion) or 'k' (mixture) is required"]
    if "tau" in typed:
        try:
            squeezed_weights(typed["tau"], 0)
        except OverflowError as exc:
            return [f"parameter 'tau' rejected: {exc}"]
    else:
        six_photon_mixture(typed["k"])  # a CapacityError once the amplitudes are not finite
    return []


def run_pdc_weights(typed: dict) -> list[tuple]:
    if "k" in typed:
        mixture = six_photon_mixture(typed["k"])
        # amplitudes print as real parts; for 1 < k < 2 the three-pair
        # closed form turns imaginary and prints as zero (see README)
        a3, a21, a111 = (a.real for a in mixture.amps)
        return [(typed["k"], a3, a21, a111)]
    expansion = squeezed_weights(typed["tau"], typed["n_max"])
    # rows with exactly zero amplitude carry no information (tau = 0)
    return [(n, w, w * w) for n, w in enumerate(expansion.weights) if w != 0.0]


def _sweep_grid(typed: dict, points: int) -> np.ndarray:
    alpha = typed["alpha"]
    top = peak_center(alpha, 0.0) + 8.0  # at or above the lower end, so it overflows first
    if not math.isfinite(top):
        raise OverflowError(f"alpha={alpha} is too large: the sweep grid's end 2*alpha + 8 overflows a double")
    return np.linspace(peak_center(alpha, typed["theta"]) - 8.0, top, points)


def _check_sweep(typed: dict) -> list[str]:
    if errors := _check_detector(typed):
        return errors
    # (x - peak)**2 is largest at an end of the grid, and linspace puts the
    # ends at the same two points for any size: the run's OverflowError, if any
    tagged = detector_probe_state(twin_beam_state(_normalized_pair(typed)), typed["alpha"], typed["theta"])
    # a branch's probe phase is index * theta / 2, and the readout takes its cosine
    if not all(math.isfinite(tagged.phase_of(index)) for index in tagged.group_weights()):
        return ["parameter 'theta' is too large: a branch's probe phase index * theta / 2 overflows a double"]
    for x in _sweep_grid(typed, 2).tolist():
        homodyne_pdf(tagged, x)
    return []


def run_homodyne_sweep(typed: dict) -> list[tuple]:
    alpha, theta = typed["alpha"], typed["theta"]
    pair = _normalized_pair(typed)
    state = twin_beam_state(pair)
    tagged = detector_probe_state(state, alpha, theta)
    asymmetric_target = detect(state, alpha, theta, force="asymmetric").state \
        if abs(pair.m - pair.n) > 1e-12 else None
    # the CSV numbers the high-x (symmetric) interval 0
    targets = {"symmetric": (0, tagged.branch(0)), "asymmetric": (1, asymmetric_target)}
    rows = []
    for x in _sweep_grid(typed, typed["grid"]).tolist():
        branch, repaired = decide_and_repair(homodyne_condition(tagged, x), x, alpha, theta)
        interval, target = targets[branch]
        fidelity = repaired.fidelity(target) if repaired is not None and target is not None else 0.0
        rows.append((x, homodyne_pdf(tagged, x), interval, fidelity))
    return rows


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
            checker=_check_cascade,
        ),
        Experiment(
            name="symmetry-detect",
            description="single symmetry-detector pass (depth-1 cascade row)",
            columns="k,m_k,n_k,ratio,C_k,step_success_prob,cumulative_prob,fidelity_psi3",
            params=_PAIR_PARAMS + _PROBE_PARAMS + (_OUTPUT_PARAM,),
            runner=run_symmetry_detect,
            checker=_check_detector,
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
            checker=_check_ghz,
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
            checker=_check_pdc,
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
            checker=_check_sweep,
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


def _format_cell(value) -> str:
    return str(value) if isinstance(value, int) else format_float(value)


def _output_path(experiment: Experiment, typed: dict) -> Path:
    configured = typed.get("output") or f"{experiment.name}.csv"
    path = Path(configured)
    out_dir = os.environ.get("FOCKSIM_OUT_DIR")
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    return path


def _write_outputs(experiment: Experiment, typed: dict, rows: list[tuple]) -> Path:
    columns = experiment.columns
    if experiment.name == "pdc-weights":
        columns = "k,a3,a21,a111" if "k" in typed else "n,amplitude,probability"
    path = _output_path(experiment, typed)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [columns]
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    meta_lines = [
        f"artifact_version = {__version__}",
        f"experiment = {experiment.name}",
    ]
    recorded = dict(typed)
    recorded.setdefault("output", f"{experiment.name}.csv")
    for key in sorted(recorded):
        value = recorded[key]
        rendered = format_float(value) if isinstance(value, float) else str(value)
        meta_lines.append(f"{key} = {rendered}")
    Path(str(path) + ".meta").write_text("\n".join(meta_lines) + "\n")
    return path


def _checked(values: dict[str, str]) -> tuple[Experiment, dict]:
    """The experiment and typed parameters of a config.

    Raises :class:`ConfigError`: :func:`typed_params` names every broken
    declared bound, and only when all hold are the cross-parameter rules checked.
    """
    experiment = _experiment_for(values)
    typed = typed_params(experiment, values)
    errors = experiment.checker(typed) if experiment.checker is not None else []
    if errors:
        raise ConfigError(*errors)
    return experiment, typed


def cmd_run(args: argparse.Namespace) -> int:
    experiment, typed = _checked(resolve_config(args.config, args.overrides))
    rows = experiment.runner(typed)
    path = _write_outputs(experiment, typed, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        if not path.is_file():
            raise ConfigError(f"config file {args.config!r} not found")
        _checked(parse_config_text(path.read_text()))
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
    validate_parser.add_argument("config", help="config file path")
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
