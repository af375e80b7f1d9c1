"""The package's import layers: which ``tlcontrol`` modules each module
imports, read from the source with ``ast``. A new intra-package import must
edit this table, so the learner cannot come to import the exact layer (the
judge) unnoticed."""

import ast
from pathlib import Path

import tlcontrol

PACKAGE = Path(tlcontrol.__file__).parent

LAYERS = {
    "models": set(),
    "synthesis": {"models"},
    "gridenv": {"models", "synthesis"},
    "lookahead": {"models", "synthesis"},
    "exact": {"models", "synthesis"},
    "actor_critic": {"lookahead", "synthesis"},
    "pipeline": {"actor_critic", "exact", "gridenv", "lookahead", "models", "synthesis"},
    "cli": {"gridenv", "models", "pipeline"},
    "__init__": {"actor_critic", "exact", "lookahead", "models", "pipeline", "synthesis"},
    "__main__": {"cli"},
}


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, at any depth
    of its syntax tree, relatively (``from .x import y``, ``from . import x``)
    or absolutely (``import tlcontrol.x``, ``from tlcontrol.x import y``)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").startswith("tlcontrol"):
                module = node.module.partition(".")[2] or None
            else:
                continue
            found |= {module.partition(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("tlcontrol.")}
    return found


def test_every_module_is_in_the_table():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


def test_intra_package_imports_match_the_layer_table():
    assert {name: package_imports(PACKAGE / f"{name}.py") for name in LAYERS} == LAYERS
