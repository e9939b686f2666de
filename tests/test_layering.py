"""One job per solver module, read from its imports: the projector
(fuzzyqp.projector), projected gradient (fuzzyqp.solver) and the
enumeration oracle (fuzzyqp.oracle), which checks projected gradient and
so reaches the projector only through solver's project; and no module
of the package or of its tests imports a name it does not use."""
import ast

import pytest

from helpers import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "fuzzyqp"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    """Every import of a fuzzyqp module, at any depth; each is relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("fuzzyqp") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            assert not node.module.startswith("fuzzyqp")
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_projector_imports_only_problem():
    assert {node.module for node in _package_imports(_tree("projector"))} == {"problem"}


def test_oracle_never_names_the_projector_class():
    names = [getattr(node, attr, None) for node in ast.walk(_tree("oracle"))
             for attr in ("id", "attr", "name", "asname")]
    assert "_Projector" not in names


def test_solver_imports_the_oracle_once_last():
    tree = _tree("solver")
    from_oracle = [node for node in _package_imports(tree) if node.module == "oracle"]
    assert from_oracle == [tree.body[-1]]
    assert [a.name for a in tree.body[-1].names] == ["solve_oracle"]


def _defined(module: str) -> set:
    """The names a module's top level defines: its functions, classes and assignments."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return names


def test_the_projector_owns_the_feasibility_rule_and_the_group_threshold():
    owned = {"_meet", "_STACK_MIN"}
    assert owned <= _defined("projector")
    assert not owned & _defined("solver")


def test_every_member_the_projector_builds_is_read():
    """A projector keeps only the members a call reads: each attribute that
    _Projector.__init__ assigns is read somewhere in the package outside it,
    as self.name in the projector module or, in another module, as a
    private name (a public one, such as A, is also CrispQP's)."""
    trees = {p.stem: _tree(p.stem) for p in PACKAGE.glob("*.py")}
    cls = next(node for node in trees["projector"].body
               if isinstance(node, ast.ClassDef) and node.name == "_Projector")
    init = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    targets = [t for node in ast.walk(init) if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in ast.walk(init) if isinstance(node, (ast.AnnAssign, ast.AugAssign))]
    assigned = {t.attr for target in targets for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"}
    inside = set(map(id, ast.walk(init)))
    read = {node.attr for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
            and (node.attr.startswith("_") if stem != "projector"
                 else isinstance(node.value, ast.Name) and node.value.id == "self")}
    assert assigned and sorted(assigned - read) == []


_MODULES = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
_MODULES.update({f"tests/{p.stem}": p for p in (REPO_ROOT / "tests").glob("*.py")})


@pytest.mark.parametrize("module", sorted(_MODULES))
def test_every_imported_name_is_used(module):
    """Every module of the package but __init__, which only re-exports, and
    every module of the tests."""
    tree = ast.parse(_MODULES[module].read_text(encoding="utf-8"))
    imported = {a.asname or a.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__" for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert unused == (["solve_oracle"] if module == "solver" else [])
