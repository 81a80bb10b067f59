"""Checks on the library source itself."""

import ast
import subprocess
import sys
from pathlib import Path

import alttamari


def test_library_code_has_no_assert():
    # ``python -O`` strips assert statements, so no invariant check may rely on one.
    modules = sorted(Path(alttamari.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def self_calls(source: str) -> list[str]:
    """Functions, nested ones included, whose body calls the function by its own name."""
    return [
        f"{node.name}:{call.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == node.name
    ]


def test_self_call_finder_sees_nested_functions():
    source = (
        "def outer(n):\n"
        "    def walk(k):\n"
        "        return walk(k - 1) if k else 0\n"
        "    return walk(n) + other(n)\n"
    )
    assert self_calls(source) == ["walk:3"]


def test_library_code_does_not_recurse():
    # one stack frame per row ends in RecursionError on tall inputs; only the
    # brute-force oracle, which runs on small inputs, may recurse
    modules = sorted(Path(alttamari.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{call}"
        for path in modules
        if path.name != "oracle.py"
        for call in self_calls(path.read_text())
    ]
    assert found == []


def alttamari_imports(source: str) -> list[str]:
    """Imports of the package itself, absolute or relative, found in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "alttamari"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "alttamari":
                found.append("." * node.level + module)
    return found


def test_import_finder_sees_absolute_and_relative_imports():
    source = (
        "import os\nimport alttamari.paths\nfrom alttamari import order\n"
        "from . import trees\nfrom .vectors import row_vector\n"
    )
    assert alttamari_imports(source) == ["alttamari.paths", "alttamari", ".", ".vectors"]


def test_oracle_imports_nothing_from_the_package():
    # the brute-force oracle is the reference for the package, so it may not reuse its code
    oracle = Path(alttamari.__file__).parent / "oracle.py"
    assert alttamari_imports(oracle.read_text()) == []


def nu_beside_delta(source: str) -> list[str]:
    """Functions, methods and lambdas included, that take nu together with delta or delta2."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if "nu" in names and names & {"delta", "delta2"}:
                found.append(f"{getattr(node, 'name', 'lambda')}:{node.lineno}")
    return found


def test_nu_beside_delta_finder_sees_such_signatures():
    source = (
        "def region(nu, delta):\n    pass\n"
        "class Lattice:\n    def __init__(self, delta):\n        pass\n"
        "    def check(self, nu, *, delta2=None):\n        pass\n"
        "lattice = lambda nu, delta: None\n"
    )
    assert nu_beside_delta(source) == ["region:1", "check:6", "lambda:8"]


def test_library_code_takes_delta_without_its_nu():
    # an increment vector carries its base path; taking both invites a pair that disagrees
    modules = sorted(Path(alttamari.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{where}" for path in modules for where in nu_beside_delta(path.read_text())
    ]
    assert found == []


def test_cli_start_up_loads_no_pickle_or_process_pool():
    # every command pays for what importing the CLI loads; only the verify sweep needs pickle
    src = str(Path(alttamari.__file__).parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import alttamari.cli; alttamari.cli.build_parser()\n"
        "print(sorted({'pickle', 'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "[]\n"
