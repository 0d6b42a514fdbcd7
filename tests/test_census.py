"""Census of the package's public names: every public function, class and
method in ``src/randstruct`` must be reached from what the package runs.

The roots are ``cli.main`` and every module-level statement (the ``CRITERIA``
list, the ``_register(...)`` calls of the experiment registry, re-exports).
Reach follows the names a reached body mentions:
- a bare name resolves to a definition of its module or to an imported one;
- ``module.name`` and ``Class.name`` resolve to that definition;
- ``obj.name`` on anything else reaches every method called ``name``;
- reaching a class reaches its class-level statements and dunder methods.

The allowlist holds public names the package itself never calls, each with
the reason it stays.  An allowlisted name must be unreached, so the list
cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "randstruct"

ALLOWLIST = {
    "graphs.graph_from_lines": "reader of the `dump --kind graph` format",
    "growth.growing_tree_from_line": "reader of the `dump --kind growth-tree` format",
    "permutations.perm_from_line": "reader of the `dump --kind permutation` format",
    "trees.plane_tree_from_line": "reader of the `dump --kind plane-tree` format",
    "permutations.Permutation.validate": "the check `perm_from_line` makes",
    "trees.sample_cayley": "the one-tree view of `sample_cayley_batch`, which "
                           "perfbench's conditioned-trees workload times",
    "trees.LabeledTree": "the tree `sample_cayley` returns",
    "trees.LabeledTree.from_edges": "the constructor `sample_cayley` calls",
}


class _Module:
    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.tree = tree
        self.modules: set[str] = set()      # local names bound to sibling modules
        self.imported: dict[str, str] = {}  # local name -> "module.name"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules.add(local)
                    else:
                        self.imported[local] = f"{node.module}.{alias.name}"


def _census():
    """(public qualified names, qualified names reached from the roots)."""
    modules = {p.stem: _Module(p.stem, ast.parse(p.read_text()))
               for p in sorted(SRC.glob("*.py"))}
    defs: dict[str, tuple[_Module, ast.AST]] = {}  # qualname -> (module, node)
    methods: dict[str, list[str]] = {}              # method name -> qualnames
    roots: list[tuple[_Module, ast.AST]] = []
    for mod in modules.values():
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod.name}.{node.name}"] = (mod, node)
            else:
                roots.append((mod, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        qual = f"{mod.name}.{node.name}.{item.name}"
                        defs[qual] = (mod, item)
                        methods.setdefault(item.name, []).append(qual)
    reached: set[str] = set()
    todo = list(roots)

    def reach(qual: str):
        if qual not in defs or qual in reached:
            return
        reached.add(qual)
        mod, node = defs[qual]
        if not isinstance(node, ast.ClassDef):
            todo.append((mod, node))
            return
        todo.extend((mod, expr) for expr in node.bases + node.decorator_list)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                todo.append((mod, item))
            elif item.name.startswith("__"):
                reach(f"{qual}.{item.name}")

    reach("cli.main")

    def resolve(mod: _Module, expr: ast.AST) -> str | None:
        """The qualified name an expression denotes, where it is static."""
        if isinstance(expr, ast.Name):
            if expr.id in mod.modules:
                return expr.id
            if expr.id in mod.imported:
                return mod.imported[expr.id]
            if f"{mod.name}.{expr.id}" in defs:
                return f"{mod.name}.{expr.id}"
            return None
        if isinstance(expr, ast.Attribute):
            base = resolve(mod, expr.value)
            if base is not None and (base in modules or base in defs):
                return f"{base}.{expr.attr}"
        return None

    while todo:
        mod, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                qual = resolve(mod, sub)
                if qual is not None:
                    reach(qual)
            elif isinstance(sub, ast.Attribute):
                qual = resolve(mod, sub)
                if qual is not None and qual in defs:
                    reach(qual)
                else:
                    for method in methods.get(sub.attr, ()):
                        reach(method)

    public = {q for q in defs if not any(part.startswith("_") for part in q.split("."))}
    return public, reached


def test_every_public_name_is_reached():
    public, reached = _census()
    unreached = public - reached
    missing = sorted(unreached - set(ALLOWLIST))
    assert not missing, (
        f"{len(missing)} public names are reached neither from cli.main nor from a "
        f"module-level statement, and are not allowlisted: {', '.join(missing)}")


def test_allowlist_names_only_unreached_public_names():
    public, reached = _census()
    for qual, reason in ALLOWLIST.items():
        assert reason
        assert qual in public, f"{qual} is not a public name of the package"
        assert qual not in reached, f"{qual} is reached; drop it from the allowlist"

