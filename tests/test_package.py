import ast
import functools
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import szegolab

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# | `NAME` | module | threshold | ... : one row of the README guard table
GUARD_ROW = re.compile(r"^\s*\| `([A-Z_]+)` \| (\w+) \| ([0-9.e−-]+) \|", re.MULTILINE)


def test_all_lists_resolvable_non_module_names():
    assert len(set(szegolab.__all__)) == len(szegolab.__all__)
    for name in szegolab.__all__:
        obj = getattr(szegolab, name)
        assert not isinstance(obj, types.ModuleType), name


def test_every_public_definition_is_exported():
    # a name without a leading underscore is API, so a helper that is not exported must be private
    for layer in ("errors", "flow", "geometric", "hankel", "hardy", "inverse"):
        module = importlib.import_module(f"szegolab.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                assert name.startswith("_") or name in szegolab.__all__, f"{layer}.{name}"
    assert len(szegolab.__all__) == 45


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """(called, referenced): the name of the function of every ast.Call, and every ast.Name and
    ast.Attribute, in a file, leaving out those inside a definition of the same name, so a name
    that only refers to itself does not count."""
    called, referenced = set(), set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", None) or node.attr
            if name not in own:
                referenced.add(name)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", None) or node.func.attr
            if name not in own:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return called, referenced


def _public_members(cls) -> list[str]:
    """The public methods and properties a class defines itself; dataclass and NamedTuple fields
    are not among them."""
    kinds = (types.FunctionType, property, classmethod, staticmethod, functools.cached_property)
    return [name for name, v in vars(cls).items() if not name.startswith("_") and isinstance(v, kinds)]


def test_every_export_is_used_by_the_package_or_the_bench():
    # the package exports only what the CLI, the bench or another module uses; what only the
    # tests use belongs in tests/references.py. An exported function must be called, not just
    # named, so a field or an attribute of the same name (HankelSpectrum.tail_mass) does not
    # count as a use of it; an exported class must be named, and each public method or property
    # it defines referenced as an attribute. Names are matched, not resolved, so a method is
    # still taken as used where another class's member of the same name is.
    files = [f for f in (ROOT / "src" / "szegolab").glob("*.py") if f.name != "__init__.py"]
    uses = [_uses(f) for f in [*files, *(ROOT / "bench").glob("*.py")]]
    called = set().union(*(c for c, _ in uses))
    referenced = set().union(*(r for _, r in uses))
    unused = []
    for name in szegolab.__all__:
        obj = getattr(szegolab, name)
        if name not in (called if inspect.isfunction(obj) else referenced):
            unused.append(name)
        if inspect.isclass(obj):
            unused += [f"{name}.{m}" for m in _public_members(obj) if m not in referenced]
    assert unused == []


def test_test_only_names_are_not_in_the_package():
    # the dense reference formulas, identity checks and acceptance-only diagnostics live in
    # tests/references.py, the four wrappers of cached or private values and the two errors
    # only those diagnostics raised are gone, and the Toeplitz builders are private
    gone = ("build_c_matrix", "build_cdot_matrix", "cauchy_inverse_c0", "cauchy_ones_solve",
            "check_rank_one_identity", "check_trace_identity", "entry_bound_table",
            "fhat_closed_form", "hankel_matrix", "shifted_hankel_matrix", "sum_rule_residual",
            "szego_rhs", "check_functional_equations", "phi_symbol", "SymbolGrid",
            "WienerHopfFactors", "wiener_hopf_factorize", "wiener_hopf_inverse_residual",
            "EllipticReport", "elliptic_check", "weighted_first_moment", "NonzeroIndex",
            "NegativeCoefficients", "phi_laurent_coeff", "toeplitz_truncated", "tail_mass")
    modules = [szegolab] + [importlib.import_module(f"szegolab.{layer}")
                            for layer in ("errors", "flow", "geometric", "hankel", "hardy", "inverse")]
    assert [(m.__name__, name) for m in modules for name in gone if hasattr(m, name)] == []


def test_readme_guard_table_matches_the_constants():
    text = README.read_text(encoding="utf-8")
    rows = GUARD_ROW.findall(text)
    assert len(rows) >= 10
    assert len(rows) == len(re.findall(r"^\s*\| `[A-Z_]+` \|", text, re.MULTILINE))  # none skipped
    for name, module, threshold in rows:
        value = getattr(importlib.import_module(f"szegolab.{module}"), name)
        assert value == float(threshold.replace("−", "-")), (name, value, threshold)


def test_cold_start_does_not_import_numpy_random():
    # importing numpy.random adds about 5.5 MB of peak resident memory to a fresh CLI process;
    # numpy.fft is loaded only by the flow, which imports it where it integrates
    code = ("import sys, numpy as np, szegolab, szegolab.cli\n"
            "u = szegolab.reconstruct_function(szegolab.SpectralData(0.5 ** np.arange(4.0), np.arange(4.0)), 256)\n"
            "assert szegolab.pair_singular_values(u, 256).rho.size == 2\n"
            "print('numpy.random' in sys.modules, 'numpy.fft' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(szegolab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
