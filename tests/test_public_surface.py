import re
import types
from pathlib import Path

import focksim

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
