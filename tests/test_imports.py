"""Every name a bhgap module imports is used in that module, every
private helper it defines is used somewhere in the package, every
parameter is read by its function, importing the package leaves scipy
out, and the benchmark tracer finds and restores every attribute it
wraps."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bhgap"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_no_unused_imports():
    offenders = {p.name: unused_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def is_private_def(node: ast.AST) -> bool:
    """A module-private (single-underscore) top-level function or class."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def referenced_names(node: ast.AST) -> set[str]:
    """Names loaded, attribute names and names imported within a node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {a.name for a in sub.names}
    return out


def test_no_dead_private_helpers():
    # every private helper is referenced somewhere in src/bhgap outside its
    # own definition
    nodes = [(p.name, node) for p in sorted(SRC.glob("*.py"))
             for node in ast.parse(p.read_text()).body]
    refs = [referenced_names(node) for _, node in nodes]
    dead = [f"{mod}:{node.name}" for i, (mod, node) in enumerate(nodes)
            if is_private_def(node)
            and not any(node.name in r for j, r in enumerate(refs) if j != i)]
    assert dead == []


def unused_parameters(path: Path) -> list[str]:
    """Parameters of the functions, methods and lambdas in one module that
    their own body never reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}:{prm}" for prm in params if prm not in read]
    return out


def test_no_unused_parameters():
    # a parameter that is accepted and then ignored misleads its callers
    offenders = {p.name: unused_parameters(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_tracer_wrap_sites_resolve():
    # the benchmark tracer wraps bhgap attributes by name; a renamed function
    # or a lost lru_cache would otherwise break `perfbench/run.py --trace 1`
    # unnoticed.  Loaded from perfbench/, its install() must find every
    # LAYERS attribute and CACHES cache_info, and close() put back the very
    # objects it replaced
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [(importlib.import_module(f"bhgap.{mod}"), attr) for _, mod, attr, _ in tracer.LAYERS]
    before = [getattr(mod, attr) for mod, attr in sites]
    t = tracer.Tracer()
    try:
        t.install()
        assert set(t.hit_ratios()) == {name for name, _, _ in tracer.CACHES}
        assert all(getattr(mod, attr) is not orig
                   for (mod, attr), orig in zip(sites, before))
    finally:
        t.close()
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(sites, before))


def test_import_leaves_scipy_out():
    # scipy is most of the import time and only the adaptive quadratures
    # need it; specfun.quad imports it on first call
    code = ("import sys, bhgap, bhgap.ensembles, bhgap.bops, bhgap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
