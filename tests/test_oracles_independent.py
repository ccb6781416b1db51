"""The test oracles stay independent of the code they check."""

import ast
from pathlib import Path


def test_oracles_import_only_the_space_model():
    # an oracle built on production numerics would agree with a bug in them
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    production = {name for name in imported if name.split(".")[0] == "homricci" or name.startswith(".")}
    assert production <= {"homricci.space_model"}, sorted(production)
