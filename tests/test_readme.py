"""README's laws section names the test that pins each law. Every test
module or test function that README cites in backticks must exist in the
tier-1 suite, so that the section cannot drift from the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# backticked test names that README may cite though tier-1 holds no such
# module or test function, each with the reason it stays
NOT_IN_TIER1: dict[str, str] = {}


def _test_modules() -> list[Path]:
    return [path for folder in ("tests", "rankbench")
            for path in sorted((ROOT / folder).glob("test_*.py"))]


def _test_functions(module: Path) -> set[str]:
    """The module-level ``test*`` functions of ``module``, which pytest
    collects (the suite has no test classes)."""
    return {node.name for node in ast.parse(module.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def test_every_test_readme_cites_is_in_tier1():
    cited = re.findall(r"`((?:[\w.-]+/)*test_\w+(?:\.py)?)`", (ROOT / "README.md").read_text())
    assert cited, "README cites no test"
    modules = _test_modules()
    known = {path.relative_to(ROOT).as_posix() for path in modules}
    known |= {path.name for path in modules}
    known |= {name for path in modules for name in _test_functions(path)}
    missing = sorted({name for name in cited if name not in known and name not in NOT_IN_TIER1})
    assert not missing, f"README cites tests that tier-1 lacks: {missing}"
