import ast
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
    assert len(szegolab.__all__) == 46


def _referenced_names(path: Path) -> set[str]:
    """Every ast.Name and ast.Attribute in a file, except those inside the top-level definition
    of the same name, so a name that only refers to itself does not count."""
    used = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                used.add(name)
    return used


def test_every_export_is_used_by_the_package_or_the_bench():
    # the package exports only what the CLI, the bench or another module calls; what only the
    # tests call belongs in tests/references.py
    files = [f for f in (ROOT / "src" / "szegolab").glob("*.py") if f.name != "__init__.py"]
    used = set().union(*map(_referenced_names, [*files, *(ROOT / "bench").glob("*.py")]))
    assert sorted(set(szegolab.__all__) - used) == []


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
            "NegativeCoefficients", "phi_laurent_coeff", "toeplitz_truncated")
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
