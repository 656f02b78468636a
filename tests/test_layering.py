"""Package layering: intra-package imports are eager and point strictly downward.

Reads the package's source with `ast`; nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qassert"


def package_imports(path: Path) -> list[tuple[str, ast.stmt, bool]]:
    """(imported package module, import node, at module top level) per import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            targets = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            targets = [n.split(".")[1] for n in names
                       if n.startswith("qassert.")]
        else:
            continue
        found += [(t.split(".")[0], node, id(node) in top) for t in targets]
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: {module for module, _, _ in package_imports(path)}
            for path in PACKAGE.glob("*.py")}


def test_package_imports_sit_at_module_top_level():
    # Not inside a function, and not under `if TYPE_CHECKING:`.
    nested = [f"{path.name}:{node.lineno} imports .{module}"
              for path in sorted(PACKAGE.glob("*.py"))
              for module, node, at_top in package_imports(path) if not at_top]
    assert nested == []


def test_circuit_ir_and_its_readers_import_only_below_them():
    graph = import_graph()
    assert graph["ir"] <= {"errors"}
    assert graph["parser"] <= {"errors", "ir"}
    assert graph["examples"] <= {"errors", "ir", "parser"}


def test_import_graph_is_acyclic():
    graph = import_graph()
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, "import cycle: " + " -> ".join(path + (module,))
        if module in done:
            return
        for imported in sorted(graph.get(module, ())):
            visit(imported, path + (module,))
        done.add(module)

    for module in sorted(graph):
        visit(module, ())
