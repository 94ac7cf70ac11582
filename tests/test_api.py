"""The package's public names and imports."""
import ast
from pathlib import Path

import mptrotter


def test_all_is_sorted_unique_and_resolves():
    names = mptrotter.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(mptrotter, name)]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used when the module loads it or lists it in __all__
    unused = []
    for path in sorted(Path(mptrotter.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(mptrotter.__all__ if path.name == "__init__.py" else ())
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
