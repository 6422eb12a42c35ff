"""Every name a module under ``src/biaslex`` or ``tests`` imports is read
somewhere in that module; an import nothing reads is dead code."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_bytes(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    paths = sorted([*(ROOT / "src" / "biaslex").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 20
    unread = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := _unread_imports(path))
    }
    assert unread == {}
