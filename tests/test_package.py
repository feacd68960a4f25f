"""The package namespace: lazy layer loading keeps every public name in place."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import starpcg

# the public names as the package listed them when it imported every layer eagerly
PUBLIC = [
    "Certificate",
    "CertificateError",
    "Feasible",
    "Graph",
    "GridShape",
    "Infeasible",
    "KIND_INTERLEAVING",
    "MODE_EXHAUSTIVE",
    "MODE_RANDOM",
    "SearchConfig",
    "SearchResult",
    "VerifyReport",
    "Witness",
    "check_certificate",
    "check_intervals",
    "check_weights",
    "cycle_star1_obstruction",
    "cycle_witness",
    "format_search_report",
    "grid2_witness",
    "grid4d_certificate",
    "grid_square_witness",
    "grid_witness",
    "induced_subgraph",
    "interleaving_certificate",
    "make_cycle",
    "make_grid",
    "make_path",
    "min_intervals_for_weights",
    "path_witness",
    "realize",
    "search_min_k",
    "search_report",
    "universal_witness",
    "verify",
]


def test_all_lists_the_public_names():
    assert starpcg.__all__ == PUBLIC


def test_star_import_binds_every_name_to_its_home_object():
    ns = {}
    exec("from starpcg import *", ns)
    assert set(PUBLIC) <= set(ns)
    for name in PUBLIC:
        home = importlib.import_module(f"starpcg.{starpcg._HOME[name]}")
        assert ns[name] is getattr(home, name) is getattr(starpcg, name), name


def test_dir_lists_every_name():
    assert set(PUBLIC) | {"__version__"} <= set(dir(starpcg))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        starpcg.no_such_name
    assert not hasattr(starpcg, "no_such_name")


def test_submodule_imports_still_work():
    from starpcg import cli

    import starpcg.stars as m

    assert cli.main is sys.modules["starpcg.cli"].main
    assert m is sys.modules["starpcg.stars"]
    # the weight checks live in graphs; stars still offers them under their old name
    assert m.check_weights is starpcg.check_weights is starpcg.graphs.check_weights
    assert m._check_weight_count is starpcg.graphs._check_weight_count


def test_a_name_loads_only_its_layer_on_first_use():
    script = (
        "import sys\n"
        "import starpcg\n"
        "print(sorted(k for k in sys.modules if k.startswith('starpcg')))\n"
        "starpcg.make_cycle\n"
        "print(sorted(k for k in sys.modules if k.startswith('starpcg')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['starpcg']\n['starpcg', 'starpcg.graphs']\n"


def test_the_package_imports_only_the_standard_library():
    files = sorted(Path(starpcg.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject requires Python >= 3.10: syntax new in later versions
    # (such as except*) must fail here too, not only on the 3.10 CI job
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src/starpcg", "tests", "bench") for p in sorted((root / d).rglob("*.py"))]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_no_check_is_an_assert():
    # python -O drops assert statements and code under `if __debug__`, so a
    # check written either way would vanish there; without them, python -O
    # runs the same library as the plain interpreter.  An impossible state is
    # flagged with RuntimeError, never by raising AssertionError by hand
    found = []
    for path in sorted(Path(starpcg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if (
                isinstance(node, ast.Assert)
                or getattr(node, "id", None) == "__debug__"
                or getattr(raised, "id", None) == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_imported_name_is_used():
    # a change that drops the last use of an import drops the import too
    found = []
    for path in sorted(Path(starpcg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert found == []


def test_refusals_quote_values_through_shown():
    # a value formatted with !r in a refusal can run to megabytes, or to
    # Python's int print limit; graphs._shown keeps every refusal short
    refusals = {"ValueError", "CertificateError", "_UsageError"}
    found = []
    for path in sorted(Path(starpcg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) in refusals):
                continue
            for field in ast.walk(call):
                if isinstance(field, ast.FormattedValue) and field.conversion == ord("r"):
                    found.append(f"{path.name}:{field.lineno}")
    assert found == []


def test_every_graph_is_built_by_the_checked_constructor():
    # Graph.__init__'s type, self-loop and range checks are then the only way
    # in, for the package's own graphs as for outside input
    found = []
    for path in sorted(Path(starpcg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        init = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Graph":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        init = set(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) == "__new__":
                found.append(f"{path.name}:{node.lineno} __new__")
            sets_adj = isinstance(node, ast.Attribute) and node.attr == "_adj"
            if sets_adj and not isinstance(node.ctx, ast.Load) and id(node) not in init:
                found.append(f"{path.name}:{node.lineno} _adj")
            if isinstance(node, ast.Call) and any(
                isinstance(arg, ast.Constant) and arg.value == "_adj" for arg in node.args
            ):
                found.append(f"{path.name}:{node.lineno} _adj by name")
    assert found == []
