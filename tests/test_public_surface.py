import ast
import math
import re
import types
from pathlib import Path

import pytest

import focksim
from focksim import ModeRegister, ModeTransform, build_psi_theta, decode_table, discrimination_error, squeezed_weights

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
    "misassignment-alpha": (lambda: discrimination_error(NAN, 0.1), "alpha"),
    "misassignment-theta": (lambda: discrimination_error(2.0, NAN), "theta"),
    "decode-lookup-x": (lambda: decode_table(1000.0, 0.1).lookup(NAN), "x"),
}


@pytest.mark.parametrize("call, name", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_fails_the_public_range_checks(call, name):
    # a check written as ``deviation > tol`` or ``tau < 0`` lets NaN through
    with pytest.raises(ValueError, match=name):
        call()
