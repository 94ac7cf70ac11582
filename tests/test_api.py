"""The package's public names and imports."""
import ast
import importlib
from pathlib import Path

import pytest

import mptrotter


def test_all_is_sorted_unique_and_resolves():
    names = mptrotter.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(mptrotter, name)]
    assert missing == []


def test_all_is_pinned():
    # a public name is added or removed on purpose, by editing this list too
    assert mptrotter.__all__ == [
        "ErrorReport", "HamiltonianDecomposition", "LcuCircuit", "MpSchedule",
        "SpinModelParams", "SweepConfig", "SweepTable", "apply_lcu", "apply_oaa", "build_lcu",
        "build_spin_hamiltonian", "drop_floor", "emit", "error_report", "fit_order",
        "hermitian_propagator", "load_config", "make_schedule", "mp_coefficients",
        "mp_operator", "oaa_error_report", "predicted_probability", "run_sweep",
        "second_order_step", "state_errors", "total", "trotterize",
    ]


def test_readme_lists_the_public_api():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    _, found, rest = text.partition("\n## Public API\n")
    assert found, "README.md has no Public API section"
    section = rest.split("\n## ", 1)[0]
    missing = [name for name in mptrotter.__all__ if f"`{name}`" not in section]
    assert missing == []


# names that left the package root, each with the module that keeps it
@pytest.mark.parametrize("name, home", [
    ("amplify", "lcu"), ("optimal_split", "lcu"),
    ("eigen_propagator", "linalg"), ("kron", "linalg"), ("spectral_norm", "linalg"),
    ("complete_unitary", "circuit"),
    ("classical_fidelity", "experiments"), ("default_t_grid", "experiments"),
    ("parse_algorithm", "experiments"), ("parse_schedule_spec", "experiments"),
])
def test_a_removed_name_imports_from_its_module(name, home):
    module = importlib.import_module(f"mptrotter.{home}")
    assert callable(getattr(module, name))
    assert not hasattr(mptrotter, name)


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


def test_every_private_definition_is_referenced():
    # a private module-level function, class or constant that no module of the
    # package loads, reads as an attribute or imports is dead code
    defined, referenced = {}, set()
    for path in sorted(Path(mptrotter.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced) == []
