"""Every name a bhgap module imports is used in that module."""
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
