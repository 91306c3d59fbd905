"""The CI workflow names only tests that exist.

pytest runs nothing for a ``file::name`` id whose test is gone, and
says nothing when the whole file is listed too; so every id
``.github/workflows/ci.yml`` names is looked up here, in the file's
syntax tree, without running it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def _defines(path: Path, names: list[str]) -> bool:
    """Whether ``path`` defines ``Class::...::name`` at top level."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (
                node
                for node in body
                if isinstance(
                    node,
                    (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                )
                and node.name == name
            ),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def test_every_test_the_workflow_names_exists():
    named = re.findall(
        r"(tests/[\w/]+\.py)((?:::[\w\[\]-]+)*)", WORKFLOW.read_text()
    )
    assert any(ids for _, ids in named)
    missing = []
    for file, ids in named:
        path = ROOT / file
        names = [name.split("[")[0] for name in ids.split("::")[1:]]
        if not path.is_file() or not _defines(path, names):
            missing.append(file + ids)
    assert missing == []
