"""Every name a bhgap module imports is used in that module, and every
private helper it defines is used somewhere in the package."""
import ast
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
