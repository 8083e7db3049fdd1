"""The symbolic level (parse, graph building, flow enumeration) loads no
numeric library, the family table agrees with the families, every public
name of the package has a caller outside the tests, no module of the
package imports `dataclasses`, and every value class is a `syntax.Node`."""
import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import flowsmc
from flowsmc import benchmarks, dists, syntax

SRC = str(Path(flowsmc.__file__).resolve().parents[1])


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parse_and_build_load_neither_numpy_nor_scipy():
    # nor `dataclasses`: the setup path builds its classes on syntax.Node;
    # and of the package, only the modules it needs
    out = run_python("""
        import sys
        import flowsmc, flowsmc.frontend, flowsmc.pcfg, flowsmc.benchmarks
        import flowsmc.cli
        g = flowsmc.benchmarks.build("unifCd", 20)
        assert not flowsmc.pcfg.validate(g)
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("numpy", "scipy")))
        print("dataclasses" in sys.modules)
        print(",".join(sorted(m for m in sys.modules
                              if m.split(".")[0] == "flowsmc")))
    """)
    assert out.split() == ["[]", "False", ",".join(sorted(
        ["flowsmc", "flowsmc.benchmarks", "flowsmc.cli", "flowsmc.frontend",
         "flowsmc.pcfg", "flowsmc.syntax"]))]


def test_cdpg_rejects_a_bad_flow_id_before_loading_numpy(tmp_path):
    path = tmp_path / "coin.prob"
    path.write_text(benchmarks.source("coin", 0.36))
    out = run_python(f"""
        import sys
        from flowsmc.cli import main
        code = main(["cdpg", {str(path)!r}, "--flow", "0-1-99"])
        print(code, "numpy" in sys.modules)
    """)
    assert out.strip() == "2 False"


def test_a_run_with_only_uniform_draws_never_loads_scipy():
    # nor `dataclasses`: every value class of the package is a syntax.Node
    out = run_python("""
        import sys
        from flowsmc import benchmarks, sampler
        g = benchmarks.build("unifCd", 5)
        result = sampler.run(g, sampler.RunConfig(budget=20, particles=10))
        print(result.report["status"], "numpy" in sys.modules,
              sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
              "dataclasses" in sys.modules)
    """)
    assert out.strip() == "ok True [] False"


def test_a_geomIt2_run_never_loads_scipy():
    # every draw is beta(a, 1), plain or restricted, or uniform
    out = run_python("""
        import sys
        from flowsmc import benchmarks, sampler
        g = benchmarks.build("geomIt2", 0.5, 5)
        result = sampler.run(g, sampler.RunConfig(budget=40, particles=50))
        print(result.report["status"], len(set(result.pool.keys)) > 1,
              sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "ok True []"


def test_restricted_beta_a_1_draws_never_load_scipy():
    # geomIt2's restrictions of its beta draws have mass 0 or 1, so its
    # runs never sample one; this one takes the quantile
    out = run_python("""
        import sys
        import numpy as np
        from flowsmc import dists
        d = dists.DistInstance("beta", (3.0, 1.0))
        r = dists.restrict(d, dists.Interval(0.2, 0.6))
        xs = r.sample(np.random.default_rng(0), 100)
        print(((xs >= 0.2) & (xs <= 0.6)).all(), round(r.mass, 12),
              sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "True 0.208 []"


def test_family_table_agrees_with_the_families():
    assert set(syntax.ARITY) == set(dists.FAMILIES)
    for name, fam in dists.FAMILIES.items():
        assert fam.name == name
        assert fam.n_params == syntax.ARITY[name] == len(fam.safe_params)
    names = list(syntax.ARITY) + list(syntax.ALIASES)
    for name in names + [n.upper() for n in names]:
        assert dists.lookup_family(name).name == syntax.family_name(name)
    assert syntax.family_name("Unif") == "uniform"
    with pytest.raises(syntax.ParamError,
                       match="unknown distribution family 'cauchy'"):
        dists.lookup_family("cauchy")


def _public_names_without_a_reference(root: Path) -> list:
    """Public top-level functions, classes and constants of `src/flowsmc`
    that no module under `src/flowsmc`, `scripts/` or `perfbench/` names,
    as a name, an attribute or an import."""
    trees = {}
    for sub in ("src/flowsmc", "scripts", "perfbench"):
        for path in sorted((root / sub).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "flowsmc":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names = [node.target.id]
            else:
                continue
            unused += [f"{path.stem}.{n}" for n in names
                       if not n.startswith("_") and n not in used]
    return unused


def _modules_importing(root: Path, module: str) -> list:
    """The modules under `src/flowsmc` that import `module`, at top level
    or inside a function."""
    found = []
    for path in sorted((root / "src/flowsmc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == module for n in names):
                found.append(path.stem)
                break
    return found


def test_no_module_of_the_package_imports_dataclasses():
    # syntax.Node is the one way to declare a value class
    root = Path(__file__).resolve().parents[1]
    assert _modules_importing(root, "dataclasses") == []
    assert _modules_importing(root, "numpy") != []  # the check sees imports


def _hand_written_value_methods(root: Path) -> list:
    """The `__eq__` and `__repr__` that a class body under `src/flowsmc`
    defines, and the `__hash__` of a class that does not derive from
    `Node`."""
    found = []
    for path in sorted((root / "src/flowsmc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            is_node = any(isinstance(b, ast.Name) and b.id == "Node"
                          for b in node.bases)
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and (
                        f.name in ("__eq__", "__repr__")
                        or f.name == "__hash__" and not is_node):
                    found.append(f"{path.stem}.{node.name}.{f.name}")
    return found


def test_every_value_class_takes_its_value_methods_from_node():
    # Node installs __eq__, __hash__ and __repr__ from __init_subclass__; a
    # Node subclass may keep its own __hash__, as SymbolicPredicate does
    root = Path(__file__).resolve().parents[1]
    assert _hand_written_value_methods(root) == []


def test_every_public_name_of_the_package_has_a_caller():
    # a helper that only the tests call belongs in tests/
    root = Path(__file__).resolve().parents[1]
    assert _public_names_without_a_reference(root) == []
