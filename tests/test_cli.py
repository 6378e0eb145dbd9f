import contextlib
import dataclasses
import hashlib
import io
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focksim import cli, detector, schemes
from focksim.cli import main

START_PAIR = ["m0=0", "n0=0.70710678"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args: str) -> int:
    return main(list(args))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FOCKSIM_OUT_DIR", str(tmp_path))
    return tmp_path


class TestRunCascade:
    def test_ratio_column_matches_exact_fractions(self, out_dir):
        assert run_cli("run", "cascade", *START_PAIR, "k=10") == 0
        header, rows = read_csv(out_dir / "cascade.csv")
        assert header == [
            "k", "m_k", "n_k", "ratio", "C_k",
            "step_success_prob", "cumulative_prob", "fidelity_psi3",
        ]
        assert len(rows) == 10
        for row in rows:
            k = int(row[0])
            exact = Fraction(1) - Fraction(-1, 2) ** k
            exact /= Fraction(1) + Fraction(-1, 2) ** k
            assert float(row[3]) == pytest.approx(float(exact), abs=1e-12)
        assert abs(float(rows[-1][3]) - 1.0) == pytest.approx(2.0 / 1025.0, abs=1e-12)

    def test_reruns_are_byte_identical(self, out_dir):
        assert run_cli("run", "cascade", *START_PAIR, "k=6") == 0
        first = (out_dir / "cascade.csv").read_bytes()
        meta_first = (out_dir / "cascade.csv.meta").read_bytes()
        assert run_cli("run", "cascade", *START_PAIR, "k=6") == 0
        assert (out_dir / "cascade.csv").read_bytes() == first
        assert (out_dir / "cascade.csv.meta").read_bytes() == meta_first

    def test_csv_round_trip_reasserts_invariants(self, out_dir):
        assert run_cli("run", "cascade", *START_PAIR, "k=8") == 0
        _, rows = read_csv(out_dir / "cascade.csv")
        for row in rows:
            m_k, n_k, ratio, c_k = (float(v) for v in row[1:5])
            assert ratio == pytest.approx(m_k / n_k, rel=1e-12)
            assert c_k == pytest.approx(2.0 * (m_k**2 + n_k**2), rel=1e-12)
            fidelity = float(row[7])
            assert fidelity == pytest.approx((m_k + n_k) ** 2 / c_k, rel=1e-12)

    def test_capacity_error_exit_code(self, out_dir, capsys):
        assert run_cli("run", "cascade", *START_PAIR, "k=40") == 3
        assert "k=40" in capsys.readouterr().err

    def test_config_file_with_overrides(self, out_dir, tmp_path):
        config = tmp_path / "job.cfg"
        config.write_text(
            "# cascade job\nexperiment = cascade\nm0 = 0\nn0 = 0.70710678\nk = 3\n"
        )
        assert run_cli("run", str(config), "k=5") == 0
        _, rows = read_csv(out_dir / "cascade.csv")
        assert len(rows) == 5


class TestRunOtherExperiments:
    def test_symmetry_detect_single_row(self, out_dir):
        assert run_cli("run", "symmetry-detect", "m0=0.70710678", "n0=0") == 0
        _, rows = read_csv(out_dir / "symmetry-detect.csv")
        assert len(rows) == 1
        assert float(rows[0][5]) == pytest.approx(5.0 / 8.0, abs=1e-12)

    def test_pdc_weights_zero_interaction(self, out_dir):
        assert run_cli("run", "pdc-weights", "tau=0") == 0
        header, rows = read_csv(out_dir / "pdc-weights.csv")
        assert header == ["n", "amplitude", "probability"]
        assert rows == [["0", "1", "1"]]

    def test_pdc_mixture_mode(self, out_dir):
        assert run_cli("run", "pdc-weights", "k=2", "output=mixture.csv") == 0
        header, rows = read_csv(out_dir / "mixture.csv")
        assert header == ["k", "a3", "a21", "a111"]
        inv = 1.0 / math.sqrt(2.0)
        assert float(rows[0][1]) == pytest.approx(inv)
        assert float(rows[0][2]) == pytest.approx(inv)
        assert float(rows[0][3]) == 0.0

    def test_pdc_requires_exactly_one_mode(self, out_dir, capsys):
        assert run_cli("run", "pdc-weights", "tau=0.2", "k=2") == 2
        assert "exactly one" in capsys.readouterr().err

    def test_psi_theta_grid(self, out_dir):
        assert run_cli("run", "psi-theta", "grid=5") == 0
        header, rows = read_csv(out_dir / "psi-theta.csv")
        assert header == [
            "theta", "postselect_prob", "ghz_weight", "w_pair_weight",
            "fidelity_vs_reference",
        ]
        assert len(rows) == 5
        last = rows[-1]
        assert float(last[0]) == pytest.approx(math.pi / 2.0)
        assert float(last[2]) == pytest.approx(0.5, abs=1e-10)
        for row in rows:
            assert float(row[4]) > 1.0 - 1e-10

    def test_ghz_circuit_exact_mode(self, out_dir):
        assert run_cli("run", "ghz-circuit") == 0
        header, rows = read_csv(out_dir / "ghz-circuit.csv")
        assert header == [
            "interval", "k", "x_lo", "x_hi", "probability", "fidelity_after_correction",
        ]
        assert len(rows) == 10
        assert float(rows[0][4]) == pytest.approx(0.5, abs=1e-6)
        assert all(float(row[5]) > 1.0 - 1e-9 for row in rows)

    def test_ghz_circuit_sampled_mode_deterministic(self, out_dir):
        args = ["run", "ghz-circuit", "samples=300", "seed=42"]
        assert run_cli(*args) == 0
        first = (out_dir / "ghz-circuit.csv").read_bytes()
        assert run_cli(*args) == 0
        assert (out_dir / "ghz-circuit.csv").read_bytes() == first
        _, rows = read_csv(out_dir / "ghz-circuit.csv")
        assert sum(float(row[4]) for row in rows) == pytest.approx(1.0)

    def test_ghz_circuit_sampled_frequency_table(self, out_dir):
        assert run_cli(
            "run", "ghz-circuit", "alpha=1000", "theta=0.1", "seed=42", "samples=10000"
        ) == 0
        _, rows = read_csv(out_dir / "ghz-circuit.csv")
        expected = [0.5] + [1.0 / 18.0] * 9
        for row, p in zip(rows, expected):
            bound = 3.0 * math.sqrt(p * (1.0 - p) / 10000)
            assert abs(float(row[4]) - p) <= bound
            assert float(row[5]) > 1.0 - 1e-5

    def test_ghz_circuit_sampled_requires_seed(self, out_dir, capsys):
        assert run_cli("run", "ghz-circuit", "samples=10") == 2
        assert "seed" in capsys.readouterr().err

    def test_homodyne_sweep(self, out_dir):
        assert run_cli(
            "run", "homodyne-sweep", "m0=0.70710678", "n0=0", "grid=9"
        ) == 0
        header, rows = read_csv(out_dir / "homodyne-sweep.csv")
        assert header == ["x", "pdf", "interval_index", "fidelity_after_correction"]
        assert len(rows) == 9
        assert {row[2] for row in rows} == {"0", "1"}

    def test_meta_sidecar_contents(self, out_dir):
        assert run_cli("run", "pdc-weights", "tau=0.3", "n_max=4") == 0
        meta = (out_dir / "pdc-weights.csv.meta").read_text().splitlines()
        assert meta[0].startswith("artifact_version = ")
        assert "experiment = pdc-weights" in meta
        assert "n_max = 4" in meta
        assert any(line.startswith("tau = 0.2999999") for line in meta)


class TestValidate:
    def write(self, tmp_path, text: str):
        path = tmp_path / "job.cfg"
        path.write_text(text)
        return str(path)

    def test_well_formed_config_ok(self, tmp_path, capsys):
        path = self.write(
            tmp_path, "experiment = cascade\nm0 = 0\nn0 = 0.70710678\nk = 10\n"
        )
        assert run_cli("validate", path) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_unknown_experiment_named(self, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = frobnicate\n")
        assert run_cli("validate", path) == 2
        assert "frobnicate" in capsys.readouterr().out

    def test_unknown_parameter_named(self, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = cascade\nbogus = 1\n")
        assert run_cli("validate", path) == 2
        assert "bogus" in capsys.readouterr().out

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = cascade\nm0 0.5\n")
        assert run_cli("validate", path) == 2
        assert "line 2" in capsys.readouterr().out

    def test_threshold_ordering_checked_for_ghz(self, tmp_path, capsys):
        path = self.write(tmp_path, "experiment = ghz-circuit\ntheta = 0.3\n")
        assert run_cli("validate", path) == 2
        assert "theta" in capsys.readouterr().out

    def test_missing_file_reported(self, tmp_path, capsys):
        assert run_cli("validate", str(tmp_path / "absent.cfg")) == 2
        assert "not found" in capsys.readouterr().out

    @pytest.mark.parametrize("name, code, named", [("psi-theta", 0, "ok"), ("cascade", 2, "'m0'")])
    def test_bare_name_agrees_with_run(self, out_dir, capsys, name, code, named):
        # validate loads a bare experiment name as run does
        assert run_cli("validate", name) == code
        assert named in capsys.readouterr().out
        assert run_cli("run", name) == code


class TestList:
    def test_all_experiments_and_schemas_listed(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for name in (
            "cascade", "symmetry-detect", "psi-theta",
            "ghz-circuit", "pdc-weights", "homodyne-sweep",
        ):
            assert name in out
        assert "m0 (float, required)" in out
        assert "columns:" in out


# values that `validate` accepted while `run` refused them (or, for
# samples=-3, ran the exact analysis instead)
VALIDATE_GAPS = [
    (("psi-theta", "grid=1"), "grid"),
    (("homodyne-sweep", *START_PAIR, "grid=1"), "grid"),
    (("homodyne-sweep", *START_PAIR, "alpha=-5"), "alpha"),
    (("homodyne-sweep", *START_PAIR, "theta=0"), "theta"),
    (("pdc-weights", "tau=0.3", "n_max=-1"), "n_max"),
    (("ghz-circuit", "samples=-3"), "samples"),
    (("pdc-weights", "k=2", "n_max=-1"), "n_max"),
]


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert run_cli("run", "/does/not/exist.cfg") == 2
        assert "not found" in capsys.readouterr().err

    # a blank key or value was checked before stripping: " =5" was refused as
    # unknown parameter '', and "output= " tried to write to the directory '.'
    @pytest.mark.parametrize("override", ["m0", " =5", "output= "])
    def test_bad_override_shape(self, capsys, override):
        assert run_cli("run", "cascade", override) == 2
        assert "key=value" in capsys.readouterr().err

    def test_wrong_type_named(self, capsys):
        assert run_cli("run", "cascade", "m0=0", "n0=0.7", "k=three") == 2
        assert "'k'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, name",
        [
            (("ghz-circuit", "theta=nan"), "theta"),
            (("pdc-weights", "tau=nan"), "tau"),
            (("cascade", *START_PAIR, "k=-1"), "k"),
            (("homodyne-sweep", "m0=0.70710678", "n0=0", "theta=inf"), "theta"),
            (("ghz-circuit", "alpha=inf"), "alpha"),
            (("ghz-circuit", "alpha=0"), "alpha"),
            *VALIDATE_GAPS,
        ],
    )
    def test_bad_value_exits_2_naming_it(self, out_dir, capsys, args, name):
        assert run_cli("run", *args) == 2
        err = capsys.readouterr().err
        assert f"parameter '{name}'" in err
        assert not any(out_dir.iterdir())

    def test_validate_rejects_non_finite_value(self, tmp_path, capsys):
        path = tmp_path / "job.cfg"
        path.write_text("experiment = pdc-weights\ntau = nan\n")
        assert run_cli("validate", str(path)) == 2
        assert "parameter 'tau' must be finite" in capsys.readouterr().out

    @pytest.mark.parametrize("args, name", VALIDATE_GAPS)
    def test_validate_agrees_with_run(self, tmp_path, capsys, args, name):
        path = tmp_path / "job.cfg"
        path.write_text("\n".join((f"experiment = {args[0]}",) + args[1:]) + "\n")
        assert run_cli("validate", str(path)) == 2
        assert f"parameter '{name}'" in capsys.readouterr().out


# SHA-256 of CSV + .meta bytes, recorded before the compiled readout replaced
# the per-draw tap undo; a faster readout must not move them
GHZ_DIGESTS = {
    ("samples=2000", "seed=42"): "316a49abac9023182457a0eab78b1e75143997ea3ff7621b44cb90658a55500a",
    ("samples=0",): "20f1d74e33e31a0c005a46914dcc923a36ba38c3086b18e22c11fe6d5a0272c4",
}


# the same for the detector readout; with an odd grid the middle point is
# exactly the threshold x0 = alpha (1 + cos theta), which reads interval 1
SWEEP_ARGS = ("m0=0.6", "n0=0.3", "grid=201")
SWEEP_DIGEST = "8e413a3cd0fe3f0d8fc1180caaedef0f2e1fa4ab4bffc56c8c87f7091d8a4c62"


@pytest.mark.parametrize("args", list(GHZ_DIGESTS))
def test_ghz_circuit_output_bytes_are_pinned(out_dir, args):
    assert run_cli("run", "ghz-circuit", *args) == 0
    csv = out_dir / "ghz-circuit.csv"
    digest = hashlib.sha256(csv.read_bytes() + (out_dir / "ghz-circuit.csv.meta").read_bytes())
    assert digest.hexdigest() == GHZ_DIGESTS[args]


def test_homodyne_sweep_output_bytes_are_pinned(out_dir):
    assert run_cli("run", "homodyne-sweep", *SWEEP_ARGS) == 0
    csv = out_dir / "homodyne-sweep.csv"
    assert csv.read_text().splitlines()[101].split(",")[2] == "1"
    digest = hashlib.sha256(csv.read_bytes() + (out_dir / "homodyne-sweep.csv.meta").read_bytes())
    assert digest.hexdigest() == SWEEP_DIGEST


# the same for the preparation pipeline and the detector cascade, recorded
# before ModeTransform.apply cached its expansions and internal kets stopped
# re-checking their occupations
SIMULATION_DIGESTS = {
    ("psi-theta",): "db724d753d6ede4a9110b55cfa62b5c78b0222da575c8eeaa531505df0bee981",
    ("cascade", "m0=0.6", "n0=0.3", "k=30"): "843d99e0034e8f73a79cb557ab9febc26e2b0167aeff8c7e184a2f7b4194202a",
    # the detector readout's edges: no asymmetric target (m = n), one coefficient 0,
    # m close to -n, empty conditionings and partial windows (theta=3), tail
    # scaling (alpha=2); the m = -n cascade pins rows with fidelity_psi3 > 1
    ("homodyne-sweep", "m0=1", "n0=1"): "5c91bf8836a9697c4cc2879781e1fa043e73261281a790f31c88785d4abe40f7",
    ("homodyne-sweep", "m0=1", "n0=0"): "f0b1ca88f5cec963a1f395f35d8055f3597d6f4acec80054060a7e9234e8e864",
    ("homodyne-sweep", "m0=0.5", "n0=-0.5000001"): "a087f5f0d8ae7e2def2a71e0f8acf7c243f223158250426c73d816a6d1eb8608",
    ("homodyne-sweep", "m0=0.6", "n0=0.3", "theta=3", "grid=201"):
        "df21eb4501cb6445def4830a394cda4dbeb07c45131e5c224653c1bd239fa1b0",
    ("homodyne-sweep", "m0=0.6", "n0=0.3", "alpha=2", "grid=201"):
        "6747c7fdae95ff2e8c064994990b91afdabf9bff3457a9a01a65846de8c65171",
    ("cascade", "m0=1", "n0=0", "k=30"): "d6e7deb8d542f4fcf1bc5edf7653d4f535e3ebfb613a01fa1f7c6e585d038cfd",
    ("cascade", "m0=0.5", "n0=-0.5000001", "k=30"): "10305307758b18c24f65e76a503724151839f7314913a0e32ba0206b298bbce0",
    ("cascade", "m0=1", "n0=1", "k=5"): "5cf67d4771082b594cd4edc4002d980dba0b395d2d95cacccd9d9d7ccf9c21c4",
    ("symmetry-detect", "m0=0.6", "n0=0.3"): "ed8ef296027b057c3e2b15fb6d7eed88ac4a120ae8fdfb356ca799be9e4d58b3",
    # both pdc-weights modes: the mixture at 1 < k < 2, the vacuum, and weights that stop past n = 604
    ("pdc-weights", "k=1.5"): "4689844e573b29c82a761458eeaf0f7bc6ca3f6c1b1a654fbfd0b0afe170a6db",
    ("pdc-weights", "tau=0"): "9a4499505a1f3dd44f089b416dcc81f462bca09c3a92c5b0d7cb82d2f43ab002",
    ("pdc-weights", "tau=0.3", "n_max=1000"): "423f81638f071fb0f1c2ea1c6a9b282f08f66f0e4e9f2f1953bff5cb39b4f39d",
}


@pytest.mark.parametrize("args", list(SIMULATION_DIGESTS))
def test_simulation_output_bytes_are_pinned(out_dir, args):
    assert run_cli("run", *args) == 0
    csv = out_dir / f"{args[0]}.csv"
    digest = hashlib.sha256(csv.read_bytes() + (out_dir / f"{args[0]}.csv.meta").read_bytes())
    assert digest.hexdigest() == SIMULATION_DIGESTS[args]


# every pinned config run in one interpreter, which then prints how many batch layouts it holds
_RUN_PINS = """
import ast, sys
from focksim import cli, elements
for args in ast.literal_eval(sys.argv[1]):
    if cli.main(["run", *args]) != 0:
        sys.exit(f"{' '.join(args)}: exit status not 0")
print(len(elements._LAYOUTS))
"""


def test_pinned_configs_hold_at_most_18_layouts(tmp_path):
    # the preparation and the detector readout lay out batches; the GHZ readout lays out none
    pins = [*SIMULATION_DIGESTS, *(("ghz-circuit", *args) for args in GHZ_DIGESTS), ("homodyne-sweep", *SWEEP_ARGS)]
    assert len(pins) == 17
    env = dict(os.environ, PYTHONPATH=str(SRC), FOCKSIM_OUT_DIR=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", _RUN_PINS, repr(pins)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) <= 18


def outcome(args: tuple, out_dir, capsys) -> tuple:
    """Exit code, printed bytes and output-file bytes of one in-process call.

    The output files are removed once read, so the next call starts clean.
    """
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    captured = capsys.readouterr()
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return code, captured.out, captured.err, files


def test_main_calls_in_one_process_match_lone_calls(out_dir, tmp_path_factory, capsys):
    # main reuses one parser across calls; a sequence must not differ from
    # each call made with a parser of its own
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text("experiment = cascade\nm0 = 0.6\nn0 = 0.3\nk = 3\n")
    sequence = [
        ("run", "cascade", "m0=0.6", "n0=0.3", "k=0"),
        ("frobnicate",),
        ("run", "cascade", "m0=0.6", "n0=0.3", "k=3"),
        ("validate", str(config)),
        ("list",),
    ]
    alone = []
    for args in sequence:
        cli._parser.cache_clear()
        alone.append(outcome(args, out_dir, capsys))
    in_sequence = [outcome(args, out_dir, capsys) for args in sequence]
    assert [code for code, *_ in in_sequence] == [2, 2, 0, 0, 0]
    assert in_sequence == alone


# a valid config per experiment; a bounded parameter's value replaces its entry
VALID_OVERRIDES = {
    "cascade": {"m0": "0.6", "n0": "0.3", "k": "2"},
    "symmetry-detect": {"m0": "0.6", "n0": "0.3"},
    "homodyne-sweep": {"m0": "0.6", "n0": "0.3"},
    "psi-theta": {},
    "ghz-circuit": {"samples": "1", "seed": "1"},
    "pdc-weights": {"tau": "0.3"},
}


def _bound_cases():
    for experiment in cli.EXPERIMENTS.values():
        for param in experiment.params:
            if param.min is not None or param.above is not None:
                yield pytest.param(experiment, param, id=f"{experiment.name}-{param.name}")


def _config(experiment, param, value) -> list[str]:
    values = dict(VALID_OVERRIDES[experiment.name])
    if experiment.name == "pdc-weights" and param.name == "k":
        del values["tau"]  # the mixture takes k in place of tau
    values[param.name] = value
    return [f"{key}={raw}" for key, raw in values.items()]


def _past(param) -> str:
    """The nearest value outside the declared bound."""
    if param.min is None:
        return repr(param.above)
    return str(param.min - 1) if param.kind is int else repr(math.nextafter(param.min, -math.inf))


@pytest.mark.parametrize("experiment, param", list(_bound_cases()))
def test_declared_bound_is_enforced_and_listed(out_dir, tmp_path_factory, capsys, experiment, param):
    outside = _config(experiment, param, _past(param))
    assert run_cli("run", experiment.name, *outside) == 2
    assert f"parameter '{param.name}'" in capsys.readouterr().err
    assert not any(out_dir.iterdir())
    path = tmp_path_factory.mktemp("config") / "job.cfg"
    path.write_text("\n".join([f"experiment = {experiment.name}"] + outside) + "\n")
    assert run_cli("validate", str(path)) == 2
    assert f"error: parameter '{param.name}'" in capsys.readouterr().out
    if param.min is not None:
        # the bound itself is allowed (an `above` bound is the value outside it)
        inside = _config(experiment, param, str(param.min))
        path.write_text("\n".join([f"experiment = {experiment.name}"] + inside) + "\n")
        assert run_cli("validate", str(path)) == 0
        assert capsys.readouterr().out == "ok\n"
    assert run_cli("list") == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(f"{experiment.name}: "))
    listed = next(line for line in lines[header:] if line.startswith(f"  {param.name} ("))
    bound = f">= {param.min}" if param.min is not None else f"> {param.above}"
    assert listed.split("):", 1)[0].endswith(f", {bound}")


@pytest.mark.parametrize("name", ["cascade", "symmetry-detect"])
@pytest.mark.parametrize(
    "probe, param", [("alpha=nan", "alpha"), ("alpha=inf", "alpha"), ("theta=nan", "theta"),
                     ("theta=inf", "theta"), ("alpha=-1", "alpha"), ("theta=0", "theta")],
)
def test_cascade_probe_is_checked_by_its_declared_bounds(out_dir, tmp_path, capsys, name, probe, param):
    # the cascade simulation takes no probe; these are the probes it rejected,
    # and each still exits 2 naming the parameter, in `run` and `validate` alike
    args = [*START_PAIR, probe] + (["k=3"] if name == "cascade" else [])
    assert run_cli("run", name, *args) == 2
    assert f"error: parameter '{param}' must be" in capsys.readouterr().err
    assert not any(out_dir.iterdir())
    path = tmp_path / "job.cfg"
    path.write_text("\n".join([f"experiment = {name}"] + args) + "\n")
    assert run_cli("validate", str(path)) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"error: parameter '{param}' must be") and out.count("\n") == 1


def test_validate_lists_every_broken_bound_and_no_cross_rule(tmp_path, capsys):
    path = tmp_path / "job.cfg"
    # m0 = n0 = 0 breaks a cross-parameter rule, reported only once the bounds hold
    path.write_text("experiment = cascade\nm0 = 0\nn0 = 0\nk = 0\nalpha = -1\ntheta = 0\n")
    assert run_cli("validate", str(path)) == 2
    assert capsys.readouterr().out == (
        "error: parameter 'k' must be at least 1\n"
        "error: parameter 'alpha' must be non-negative\n"
        "error: parameter 'theta' must be positive\n"
    )
    path.write_text("experiment = cascade\nm0 = 0\nn0 = 0\nk = 1\n")
    assert run_cli("validate", str(path)) == 2
    assert capsys.readouterr().out == "error: parameters 'm0' and 'n0' must not both be zero\n"


@pytest.mark.parametrize(
    "args",
    [
        ("homodyne-sweep", "m0=0", "n0=1", "alpha=1e307"),
        ("homodyne-sweep", "m0=2", "n0=1", "alpha=1e250"),
        ("homodyne-sweep", "m0=1", "n0=0", "alpha=1e307"),
    ],
)
def test_numeric_overflow_exits_3(out_dir, capsys, args):
    assert run_cli("run", *args) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ")
    assert "Traceback" not in err
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("tau", ["400", "800"])
def test_squeezing_overflow_names_tau(out_dir, capsys, tmp_path_factory, tau):
    # cosh(tau)**2 overflows: run and validate both reject the config
    assert run_cli("run", "pdc-weights", f"tau={tau}") == 2
    assert capsys.readouterr().err.startswith(f"error: parameter 'tau' rejected: tau={tau}.0 is too large")
    assert not any(out_dir.iterdir())
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text(f"experiment = pdc-weights\ntau = {tau}\n")
    assert run_cli("validate", str(config)) == 2
    assert "parameter 'tau'" in capsys.readouterr().out


def test_mixture_overflow_is_a_capacity_error(out_dir, capsys):
    assert run_cli("run", "pdc-weights", "k=1e200") == 3
    assert "k=1e+200" in capsys.readouterr().err
    assert not any(out_dir.iterdir())
    assert run_cli("run", "pdc-weights", "k=1e150") == 0
    _, rows = read_csv(out_dir / "pdc-weights.csv")
    assert all(math.isfinite(float(cell)) for cell in rows[0])


@pytest.mark.parametrize(
    "args",
    [("homodyne-sweep", "m0=1", "n0=1", "alpha=1e307"), ("homodyne-sweep", "m0=1", "n0=0", "alpha=1e307")],
)
def test_probe_overflow_names_alpha(out_dir, capsys, args):
    assert run_cli("run", *args) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {args[-1].replace('e', 'e+')} is too large")
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize(
    "args, message",
    [
        (("cascade", "m0=0.6", "n0=0.3", "k=40"), "capacity error: k=40"),
        (("pdc-weights", "k=1e200"), "capacity error: k=1e+200"),
        (("homodyne-sweep", "m0=1", "n0=0", "alpha=1e307"), "numeric error: alpha=1e+307"),
        (("homodyne-sweep", "m0=1", "n0=0", "alpha=1e308"), "numeric error: alpha=1e+308"),
    ],
    ids=["cascade", "pdc-weights", "homodyne-sweep", "homodyne-sweep-grid"],
)
def test_validate_finds_the_run_time_overflow(out_dir, capsys, tmp_path_factory, args, message):
    # the checker calls the library function that raises at run time
    assert run_cli("run", *args) == 3
    assert capsys.readouterr().err.startswith(message)
    assert not any(out_dir.iterdir())
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text(f"experiment = {args[0]}\n" + "".join(f"{a.replace('=', ' = ')}\n" for a in args[1:]))
    assert run_cli("validate", str(config)) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.out == ""


def assert_rejected(args: tuple, message: str, out_dir, capsys, tmp_path_factory) -> None:
    """``run`` and ``validate`` both exit 2 with ``message``, with no traceback and no output file."""
    assert run_cli("run", *args) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not any(out_dir.iterdir())
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text(f"experiment = {args[0]}\n" + "".join(f"{a.replace('=', ' = ')}\n" for a in args[1:]))
    assert run_cli("validate", str(config)) == 2
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "10"])
def test_ghz_probe_whose_peak_overflows_is_rejected(out_dir, capsys, tmp_path_factory, samples):
    # 2*alpha, the largest homodyne peak, is not a finite double
    for alpha in ("9e307", "1e308"):
        args = ("ghz-circuit", f"alpha={alpha}", f"samples={samples}", "seed=1")
        assert_rejected(args, "parameter 'alpha' is too large", out_dir, capsys, tmp_path_factory)


def test_ghz_peak_rule_rejects_from_the_first_infinite_peak(out_dir):
    # the largest double whose 2*alpha is finite runs exact; the next one is rejected
    largest = 8.988465674311579e307
    beyond = math.nextafter(largest, math.inf)
    assert math.isfinite(2.0 * largest) and not math.isfinite(2.0 * beyond)
    assert run_cli("run", "ghz-circuit", f"alpha={largest!r}") == 0
    _, rows = read_csv(out_dir / "ghz-circuit.csv")
    assert all(row[5] == "1" for row in rows)
    assert run_cli("run", "ghz-circuit", f"alpha={beyond!r}") == 2


@pytest.mark.parametrize("alpha", ["1e200", "8.9e307"])
def test_exact_ghz_readout_holds_up_to_the_peak_rule(out_dir, tmp_path_factory, capsys, alpha):
    # the peaks are far apart but finite: every interval decodes as at small alpha
    assert run_cli("run", "ghz-circuit", f"alpha={alpha}") == 0
    _, rows = read_csv(out_dir / "ghz-circuit.csv")
    probabilities = [float(row[4]) for row in rows]
    assert probabilities == pytest.approx([0.5] + [1 / 18] * 9, abs=1e-12)
    assert [float(row[5]) for row in rows] == pytest.approx([1.0] * 10, abs=1e-12)
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text(f"experiment = ghz-circuit\nalpha = {alpha}\n")
    assert run_cli("validate", str(config)) == 0
    assert capsys.readouterr().out.endswith("ok\n")


@pytest.mark.parametrize(
    "args",
    [
        ("cascade", "m0=1e-320", "n0=0", "k=3"),
        ("symmetry-detect", "m0=1e-320", "n0=0"),
        ("homodyne-sweep", "m0=1e-320", "n0=0"),
        ("cascade", "m0=1e-160", "n0=0", "k=3"),
        ("cascade", "m0=1e200", "n0=0", "k=3"),
    ],
    ids=["cascade-zero-division", "symmetry-detect", "homodyne-sweep", "cascade-subnormal", "cascade-overflow"],
)
def test_pair_that_cannot_be_rescaled_is_rejected(out_dir, capsys, tmp_path_factory, args):
    message = "parameters 'm0' and 'n0' cannot be rescaled"
    assert_rejected(args, message, out_dir, capsys, tmp_path_factory)


@pytest.mark.parametrize("m0", ["1e-150", "1e150"])
def test_pair_far_from_the_unit_circle_is_rescaled(out_dir, m0):
    assert run_cli("run", "cascade", f"m0={m0}", "n0=0", "k=3") == 0


def test_sweep_theta_whose_probe_phase_overflows_is_rejected(out_dir, capsys, tmp_path_factory):
    args = ("homodyne-sweep", "m0=0.6", "n0=0.3", "theta=9e307")
    assert_rejected(args, "parameter 'theta' is too large", out_dir, capsys, tmp_path_factory)
    assert run_cli("run", "homodyne-sweep", "m0=0.6", "n0=0.3", "theta=8e307") == 0
    # forced detection evaluates no probe phase, so the cascade runs
    assert run_cli("run", "cascade", "m0=0.6", "n0=0.3", "k=3", "theta=9e307") == 0


@pytest.mark.parametrize("alpha", ["1e200", "4294967296"])
def test_sampled_run_rejects_a_probe_beyond_double_resolution(
    out_dir, capsys, tmp_path_factory, alpha
):
    # at 2*alpha >= 2**33 a unit-variance draw is below one ulp of its peak
    params = (f"alpha={alpha}", "samples=10", "seed=1")
    args = ("ghz-circuit", *params)
    assert run_cli("run", *args) == 2
    err = capsys.readouterr().err
    assert "parameter 'alpha'" in err and "Traceback" not in err
    assert not any(out_dir.iterdir())
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text("experiment = ghz-circuit\n" + "".join(f"{p.replace('=', ' = ')}\n" for p in params))
    assert run_cli("validate", str(config)) == 2
    assert "parameter 'alpha'" in capsys.readouterr().out


def test_sampled_run_keeps_its_noise_just_below_the_bound(out_dir, capsys):
    # ulp(2*alpha) is 2**-20 here; the rule holds only for sampled runs
    assert run_cli("run", "ghz-circuit", "alpha=4294967295", "samples=10", "seed=1") == 0
    assert run_cli("run", "ghz-circuit", "alpha=4294967296") == 0
    assert run_cli("run", "ghz-circuit", "alpha=1e200", "samples=10", "seed=1") == 2
    assert "parameter 'alpha' must be below 2**32 when samples > 0" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e200", "1e300"])
def test_ghz_peaks_not_resolved_in_double_precision_are_rejected(out_dir, capsys, tmp_path_factory, alpha):
    # at theta=1e-8 neighbouring peaks round onto each other: an exact run would
    # condition a peak in another interval, whose repair phase overflows
    args = ("ghz-circuit", f"alpha={alpha}", "theta=1e-8")
    message = "parameter 'theta' is too small for parameter 'alpha'"
    assert_rejected(args, message, out_dir, capsys, tmp_path_factory)


@pytest.mark.parametrize(
    "args",
    [
        ("psi-theta", "grid=100000000000000000000"),
        ("psi-theta", "grid=9223372036854775808"),
        ("psi-theta", "grid=1152921504606846976"),
        ("homodyne-sweep", "m0=0.6", "n0=0.3", "grid=100000000000000000000"),
    ],
    ids=["psi-theta", "psi-theta-2**63", "psi-theta-2**60", "homodyne-sweep"],
)
def test_grid_numpy_cannot_size_is_rejected(out_dir, capsys, tmp_path_factory, args):
    # each is refused before any array is made: numpy would refuse an array of
    # 2**60 or more doubles, whose size in bytes its index type cannot hold
    assert_rejected(args, "parameter 'grid' must be at most 1152921504606846975", out_dir, capsys, tmp_path_factory)


@pytest.mark.parametrize(
    "args",
    [("psi-theta", "grid=1000000000"), ("homodyne-sweep", "m0=1", "n0=0", "grid=1000000000")],
    ids=["psi-theta", "homodyne-sweep"],
)
def test_grid_too_long_for_memory_is_a_capacity_error(tmp_path, args):
    # a billion doubles is 7.45 GiB: under a 1 GiB address-space limit numpy's
    # allocation is refused at once, and no memory is touched
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=str(SRC), FOCKSIM_OUT_DIR=str(tmp_path))
    done = subprocess.run([sys.executable, "-m", "focksim.cli", "run", *args], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit_address_space)
    assert done.returncode == 3, done.stderr
    assert " grid=1000000000 " in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.iterdir())


def run_pdc_weights_in_400mb(out: Path, *args: str) -> subprocess.CompletedProcess:
    # one BLAS thread, so the limit leaves numpy's import room on any core count
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024, 400_000 * 1024))

    env = dict(os.environ, PYTHONPATH=str(SRC), FOCKSIM_OUT_DIR=str(out),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "focksim.cli", "run", "pdc-weights", *args],
                          env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_address_space)


def test_n_max_too_large_for_memory_is_a_capacity_error(tmp_path):
    # tanh(20) rounds to 1.0, so no weight vanishes: the weight tuple grows one
    # float per order until the 400 MB address-space limit refuses it, within a
    # few seconds; it ended in a MemoryError traceback
    done = run_pdc_weights_in_400mb(tmp_path, "tau=20", "n_max=1000000000")
    assert done.returncode == 3, done.stderr
    assert " n_max=1000000000 " in done.stderr
    assert "Traceback" not in done.stderr
    assert not any(tmp_path.iterdir())


def test_weights_stop_where_they_underflow(tmp_path):
    # past n = 604 every tau=0.3 weight is 0.0 and prints no row: the weights stop
    # there, so a billion orders fit in 400 MB and write the n_max=1000 CSV.
    # It built them all, until memory ran out (exit 3)
    done = run_pdc_weights_in_400mb(tmp_path / "huge", "tau=0.3", "n_max=1000000000")
    assert done.returncode == 0, done.stderr
    assert run_pdc_weights_in_400mb(tmp_path / "small", "tau=0.3", "n_max=1000").returncode == 0
    csv = (tmp_path / "huge" / "pdc-weights.csv").read_bytes()
    assert csv == (tmp_path / "small" / "pdc-weights.csv").read_bytes()
    assert csv.count(b"\n") == 1 + 605


@pytest.mark.parametrize("where, reason", [("directory", "Is a directory"), ("under-a-file", "File exists")])
def test_output_that_cannot_be_written_is_a_config_error(tmp_path, capsys, where, reason):
    # it ended in an IsADirectoryError or FileExistsError traceback with exit 1
    (tmp_path / "file").write_text("")
    output = tmp_path if where == "directory" else tmp_path / "file" / "x.csv"
    assert run_cli("run", "psi-theta", "grid=2", f"output={output}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter 'output' cannot be written: ") and reason in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_output_whose_meta_cannot_be_written_leaves_no_csv(tmp_path, capsys):
    # the CSV was written before its .meta failed, and stayed behind with no .meta
    (tmp_path / "x.csv.meta").mkdir()
    assert run_cli("run", "psi-theta", "grid=2", f"output={tmp_path / 'x.csv'}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameter 'output' cannot be written: ") and "x.csv.meta" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv.meta"]


# every CSV cell and .meta value is rendered by one rule: an int reads back
# as itself, and a float (or numpy float) as the same double, signed zeros,
# infinities and subnormals included
@settings(deadline=None)
@given(value=st.one_of(st.integers(), st.floats(), st.floats().map(np.float64)))
@example(value=-0.0)
@example(value=np.float64(-0.0))
@example(value=-math.inf)
@example(value=math.nan)
@example(value=5e-324)
@example(value=np.float64(-2.225073858507201e-308))
def test_a_rendered_value_reads_back_losslessly(value):
    cell = cli._rendered(value)
    if type(value) is int:
        assert int(cell) == value
    elif math.isnan(value):
        assert math.isnan(float(cell))
    else:
        assert float(cell).hex() == float(value).hex()


class Drawn(Exception):
    pass


def _draws(*_, **__):
    raise Drawn


@pytest.mark.parametrize(
    "args",
    [
        ("ghz-circuit", "samples=1000000000", "seed=1"),
        ("ghz-circuit",),
        ("cascade", "m0=0.6", "n0=0.3", "k=30"),
        ("symmetry-detect", "m0=0.6", "n0=0.3"),
        ("psi-theta",),
        ("homodyne-sweep", "m0=0.6", "n0=0.3"),
    ],
    ids=["ghz-sampled", "ghz-exact", "cascade", "symmetry-detect", "psi-theta", "homodyne-sweep"],
)
def test_validate_draws_no_rows(out_dir, monkeypatch, capsys, tmp_path_factory, args):
    # the functions that compute rows raise, where the runner calls them and at their source
    for owner in (cli, schemes, detector):
        for name in ("build_psi_theta", "GhzReadout", "cascade_simulate", "homodyne_condition", "decide_and_repair"):
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, _draws)
    config = tmp_path_factory.mktemp("config") / "job.cfg"
    config.write_text(f"experiment = {args[0]}\n" + "".join(f"{a.replace('=', ' = ')}\n" for a in args[1:]))
    assert run_cli("validate", str(config)) == 0
    assert capsys.readouterr().out == "ok\n"
    with pytest.raises(Drawn):
        run_cli("run", *args)
    assert not any(out_dir.iterdir())


def test_a_value_error_from_the_library_exits_2_without_a_traceback(out_dir, monkeypatch, capsys):
    def refuse(typed):
        raise ValueError("refused by the library")

    monkeypatch.setitem(cli.EXPERIMENTS, "psi-theta", dataclasses.replace(cli.EXPERIMENTS["psi-theta"], runner=refuse))
    assert run_cli("run", "psi-theta") == 2
    assert capsys.readouterr().err == "error: refused by the library\n"
    assert not any(out_dir.iterdir())


# -- run and validate agree at the edges of every declared parameter -----------

FLOAT_EDGES = (
    0.0, 5e-324, 1e-310, 1e-160, 1e-8, 0.1, 0.3, 0.6, 1.0, 2.0, 2.0**32,
    1e154, 1e200, 1e307, 8.98e307, 1.79e308, -5e-324, -0.6, -1e200,
)
# integer edges, capped so that one example stays fast
INT_EDGES = {
    "k": (-1, 0, 1, 2, 30, 31),
    "grid": (-1, 0, 1, 2, 7),
    "samples": (-1, 0, 1, 5),
    "seed": (-1, 0, 1, 2**64 - 1, 2**64),
    "n_max": (-1, 0, 1, 80),
}


@st.composite
def edge_configs(draw):
    """An experiment and raw values for some of its numeric parameters, each an edge value."""
    name = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    values = {}
    for param in cli.EXPERIMENTS[name].params:
        if param.kind is not str:
            edges = INT_EDGES[param.name] if param.kind is int else FLOAT_EDGES
            value = draw(st.sampled_from((None, *edges)))
            if value is not None:
                values[param.name] = repr(value)
    return name, values


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _documented_non_finite(name: str, rows: list[list[str]]) -> set[tuple[int, int]]:
    """The (row, column) cells a successful run may write as nan or inf."""
    if name == "ghz-circuit":
        # the outer interval edges, and the fidelity of an interval no draw visited
        unvisited = {(i, 5) for i, row in enumerate(rows) if float(row[4]) == 0.0}
        return {(0, 2), (len(rows) - 1, 3)} | unvisited
    if name in ("cascade", "symmetry-detect"):
        return {(i, 3) for i, row in enumerate(rows) if float(row[2]) == 0.0}  # m_k / n_k at n_k = 0
    return set()


# (a) no uncaught exception; (b) run and validate exit alike; (c) a refusal
# names a declared parameter; (d) a success writes no nan or inf beyond the
# documented cells.  The first example exited 2 from run, naming nothing,
# while validate printed ok; the second writes ratio -inf in row 1.
@settings(deadline=None, max_examples=800, derandomize=True, database=None)
@given(config=edge_configs())
@example(config=("ghz-circuit", {"alpha": "1e200", "theta": "1e-08"}))
@example(config=("cascade", {"m0": "1.0", "n0": "-3.0", "k": "2"}))
def test_run_and_validate_agree_at_the_edges(config):
    name, values = config
    declared = [param.name for param in cli.EXPERIMENTS[name].params]
    names_one = re.compile("|".join(rf"'{p}'|\b{p}=" for p in declared))
    with tempfile.TemporaryDirectory() as out, mock.patch.dict(os.environ, {"FOCKSIM_OUT_DIR": out}):
        job = Path(out, "job.cfg")
        job.write_text("".join(f"{key} = {raw}\n" for key, raw in {"experiment": name, **values}.items()))
        checked, checked_out, checked_err = _in_process(["validate", str(job)])
        code, _, err = _in_process(["run", name, *(f"{key}={raw}" for key, raw in values.items())])
        assert (code, checked) in ((0, 0), (2, 2), (3, 3)), (err, checked_out, checked_err)
        if code:
            assert names_one.search(err), err
            assert names_one.search(checked_out + checked_err), checked_out + checked_err
            return
        _, rows = read_csv(Path(out, f"{name}.csv"))
        documented = _documented_non_finite(name, rows)
        for i, row in enumerate(rows):
            for column, cell in enumerate(row):
                assert math.isfinite(float(cell)) or (i, column) in documented, row
