import ast
import math
import re
import types
from pathlib import Path

import pytest

import focksim
from focksim import (
    CoefficientPair,
    FockKet,
    ModeRegister,
    ModeTransform,
    attach_probe,
    bs_5050,
    bs_unbalanced,
    build_psi_theta,
    decode_table,
    detect,
    discrimination_error,
    expand_bilinear_power,
    pattern_occupation,
    sample_homodyne,
    singlet_form,
    six_photon_mixture,
    squeezed_weights,
    tagged_circuit_state,
    twin_beam_register,
    twin_beam_state,
)
from focksim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_surface() -> list[str]:
    """Names of the README's "Public surface" block, module labels left out."""
    section = README.read_text().split("## Public surface", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```text\n(.*?)```", section, re.DOTALL).group(1)
    return [name for line in block.splitlines() for name in line.split(":")[-1].split()]


def test_readme_lists_exactly_the_exported_names():
    names = readme_surface()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(focksim.__all__)
    assert not any(isinstance(getattr(focksim, name), types.ModuleType) for name in focksim.__all__)


def test_the_package_version_has_one_owner():
    # the distribution reads its version from focksim.__version__, which the .meta files
    # write as artifact_version, so a bump changes one line; setuptools reads the attribute
    # statically, so it must stay a literal assignment
    tomllib = pytest.importorskip("tomllib")
    root = README.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "focksim.__version__"}
    init = ast.parse((root / "src" / "focksim" / "__init__.py").read_text())
    assigned = [node.value for node in init.body
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__version__"]]
    assert [ast.literal_eval(value) for value in assigned] == [focksim.__version__]


NAN = math.nan
NAN_INPUTS = {
    "unitary-matrix": (lambda: ModeTransform(ModeRegister.polarized("a"), [[1.0, 0.0], [0.0, NAN]]), "not unitary"),
    "psi-theta-angle": (lambda: build_psi_theta(NAN), "theta"),
    "psi-theta-infinite-angle": (lambda: build_psi_theta(math.inf), "theta"),
    "decode-alpha": (lambda: decode_table(NAN, 0.1), "alpha"),
    "decode-theta": (lambda: decode_table(1000.0, NAN), "theta"),
    "squeezing-tau": (lambda: squeezed_weights(NAN, 3), "tau"),
    # cosh(inf) is inf and does not raise: the weights read 0.0 and ran to n_max
    "squeezing-infinite-tau": (lambda: squeezed_weights(math.inf, 5), "tau"),
    "mixture-ratio": (lambda: six_photon_mixture(NAN), "at least 1"),
    # the thresholds read inf and the refusal named theta
    "decode-infinite-alpha": (lambda: decode_table(math.inf, 0.1), "alpha"),
    "misassignment-alpha": (lambda: discrimination_error(NAN, 0.1), "alpha"),
    "misassignment-theta": (lambda: discrimination_error(2.0, NAN), "theta"),
    "decode-lookup-x": (lambda: decode_table(1000.0, 0.1).lookup(NAN), "x"),
}


@pytest.mark.parametrize("call, name", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_fails_the_public_range_checks(call, name):
    # a check written as ``deviation > tol`` or ``tau < 0`` lets NaN through
    with pytest.raises(ValueError, match=name):
        call()


TWIN = twin_beam_state(CoefficientPair(0.5, 0.5))
ARMS = ModeRegister.polarized("a", "b", "c")
UNNORMALIZED = FockKet(ARMS, {(1, 0, 0, 0, 0, 0): 2.0})
REFUSALS = {
    "detect-unknown-force": (lambda: detect(TWIN, 1000.0, 0.1, force="both"), "unknown forced outcome 'both'"),
    "detect-sampled-without-rng": (lambda: detect(TWIN, 1000.0, 0.1), "sampled detection needs an rng or seed"),
    # |3,3> of the H modes leaves a 50:50 splitter with no |3,3> term (odd n)
    "detect-no-symmetric-component": (
        lambda: detect(FockKet(twin_beam_register, {(3, 0, 3, 0): 1.0}), 1000.0, 0.1, force="symmetric"),
        "state has no symmetric component"),
    "detect-no-asymmetric-component": (lambda: detect(TWIN, 1000.0, 0.1, force="asymmetric"),
                                       "state has no asymmetric component"),
    "bs-5050-one-mode": (lambda: bs_5050(ARMS, "a", "a"), "beam splitter needs two distinct spatial modes"),
    "bs-unbalanced-repeated-mode": (lambda: bs_unbalanced(ARMS, "a", "a", "b", 0.5),
                                    "input, reflected and transmitted spatial modes must be distinct"),
    "bs-unbalanced-absent-input": (lambda: bs_unbalanced(ARMS, "z", "b", "c", 0.5),
                                   "input spatial mode 'z' not present in register"),
    "register-empty-spatial-name": (lambda: ModeRegister([("", "H")]), "spatial name must be non-empty"),
    "register-absent-spatial": (lambda: ARMS.spatial_indices("z"), "no spatial mode 'z' in register"),
    "bilinear-negative-power": (lambda: expand_bilinear_power(singlet_form(ARMS), -1, ARMS),
                                "power must be non-negative"),
    "squeezing-negative-order": (lambda: squeezed_weights(0.3, -1), "n_max must be non-negative"),
    "pattern-letter": (lambda: pattern_occupation("HHX"), "pattern must be six H/V letters, got 'HHX'"),
    "circuit-twin-beam-ket": (lambda: tagged_circuit_state(TWIN, 1000.0, 0.1),
                              "circuit expects a ket on the six-mode scheme register"),
    "sampling-unnormalized": (lambda: sample_homodyne(attach_probe(UNNORMALIZED, 2.0, 0.1), 7),
                              "sampling needs a normalized probe-tagged state"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_public_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("text, message", [
    ("experiment = psi-theta\ngrid = 2\ngrid = 3\n", "line 3: duplicate key 'grid'"),
    ("grid = 2\n", "missing required field 'experiment'"),
], ids=["duplicate-key", "no-experiment"])
def test_config_refusals_exit_2_in_run_and_validate(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.setenv("FOCKSIM_OUT_DIR", str(tmp_path / "out"))
    config = tmp_path / "job.cfg"
    config.write_text(text)
    assert main(["run", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert main(["validate", str(config)]) == 2
    assert f"error: {message}" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()
