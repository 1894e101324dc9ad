"""Every module of the library uses each name it imports, every
module-level private name is used somewhere in the library, and every
function, class and method it defines is used somewhere in the project.

No linter ships with the toolchain, so this stdlib ``ast`` scan stands in
for one.  ``__init__.py`` is skipped by the import check: its imports are
the package exports.  Every module must also parse under the grammar of the
oldest Python that ``pyproject.toml`` admits.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "postrb"
TESTS = ROOT / "tests"
BENCH = ROOT / "bench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            yield from (a.annotation for a in args if a.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# The oldest Python that pyproject.toml admits.
PYTHON_FLOOR = (3, 10)


def test_python_floor_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'requires-python = ">=%d.%d"' % PYTHON_FLOOR in text


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    # ``except*`` (3.11) and PEP 695 ``type`` statements and generic
    # parameter lists (3.12) are syntax errors under this grammar.
    ast.parse(path.read_text(), filename=str(path), feature_version=PYTHON_FLOOR)


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level private function, class or variable."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in ``tree``."""
    found = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    found.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_no_orphaned_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    referenced = set().union(*map(_references, trees.values()))
    orphans = sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
    )
    assert not orphans, f"private names used nowhere in the library: {', '.join(orphans)}"


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level name of every module that ``tree`` imports from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_only_scalars_imports_fractions():
    # Scalars are integer triples; a Fraction is only built where the
    # scalar layer converts at its boundary.
    importers = sorted(
        p.name
        for p in SRC.glob("*.py")
        if "fractions" in _imported_modules(ast.parse(p.read_text(), filename=str(p)))
    )
    assert importers == ["scalars.py"]


# A string that is one identifier or a dotted path of them, such as the
# benchmark tracer's "ExactMatrix.rank" or a name given to ``setattr``.
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _name_uses(tree: ast.AST) -> Counter:
    """How often each name is used in ``tree``: read as a name, read or set
    as an attribute, imported, or spelled out in a dotted-path string."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                uses.update(node.value.split("."))
    return uses


def test_only_scalars_calls_smith_normal_form():
    # Every Smith normal form is taken in the scalar layer by its one kernel,
    # ``_smith``, which only ``smith_normal_form`` and the congruence solver
    # run; no module calls ``smith_normal_form`` itself, which ``__init__.py``
    # only re-exports.
    def users(name):
        return sorted(
            p.name
            for p in MODULES
            if _name_uses(ast.parse(p.read_text(), filename=str(p)))[name]
        )

    assert users("_smith") == ["scalars.py"]
    assert users("smith_normal_form") == []


def test_one_elimination_kernel_and_one_class_decision():
    # Every elimination over Q(i) but ``determinant`` is a forward pass of
    # ``scalars._echelon``; the only other module that runs it holds the one
    # decision of the Lie obstruction class, which the scan calls.
    def users(name):
        return sorted(
            p.name
            for p in MODULES
            if _name_uses(ast.parse(p.read_text(), filename=str(p)))[name]
        )

    assert users("_echelon") == ["lie_obstruction.py", "scalars.py"]
    assert users("_coboundary_echelon") == ["lie_obstruction.py", "search.py"]


def test_each_verdict_fact_is_checked_once():
    # The group solve tests the cocycle identity before it solves, and the
    # pipeline relies on that one test; the Lie witness solve is a witness
    # by construction, so it does not re-evaluate the product.
    def callers(name):
        return sorted(
            f"{p.name}:{node.name}"
            for p in MODULES
            for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _name_uses(node)[name]
        )

    assert callers("verify_group_2cocycle") == [
        "group_obstruction.py:coboundary_solve_group"
    ]
    assert "postlie.py:innerness_witness" not in callers("is_witness")
    # The scan's walk yields only central defects, so the class decision
    # rechecks neither Jacobi nor centrality; the pullback reads innerness
    # and the center off its own null space; the difference cocycle reads
    # the sub-adjacent table that the Rota-Baxter test built; and pullback
    # pairs closed under a group product form a group.
    assert "search.py:_classify" not in callers("_cyclic_failures")
    assert "search.py:_classify" not in callers("phi")
    assert "lie_obstruction.py:pullback_algebra" not in callers("innerness_witness")
    assert "lie_obstruction.py:pullback_algebra" not in callers("center")
    assert "lie_obstruction.py:rb_difference_cocycle" not in callers("sub_adjacent")
    assert "group_obstruction.py:pullback_group" not in callers("group_violations")
    # Two operators inducing one product differ by a central 1-cocycle, so
    # neither difference rechecks centrality or multiplicativity; the
    # sub-adjacent bracket of a post-Lie algebra and a subalgebra of a Lie
    # algebra satisfy Jacobi; and the pipeline refuses a supplied
    # non-witness, which the CLI does not test first.
    assert "lie_obstruction.py:rb_difference_cocycle" not in callers("center")
    for name in ("center_group", "is_group_homomorphism"):
        assert "group_obstruction.py:rb_difference_cocycle_group" not in callers(name)
    assert "lie_obstruction.py:construct_rb_from_obstruction" not in callers(
        "sub_adjacent"
    )
    assert "lie_obstruction.py:pullback_algebra" not in callers("check_jacobi")
    assert "cli.py:_cmd_obstruction" not in callers("is_witness")


def test_rota_baxter_and_fingerprint_run_on_integer_rows():
    # The Rota-Baxter identity, the homomorphism laws and their defect,
    # the post-Lie axioms, the sub-adjacent table, the cocycle identity,
    # the fingerprint, the tower's power ranks and the scan's tables run on
    # integer rows: none of them evaluates a product into scalars, reads or
    # builds a table of scalars (``sc``, ``tc``, ``values``, each a view
    # built by ``_scalar_table``), applies a scalar map or ranks a scalar
    # matrix.
    scalar = (
        "_product",
        "_scalar_table",
        "sc",
        "tc",
        "values",
        "ExactMatrix",
        "bracket",
        "triangle",
        "apply",
        "rank",
        "coefficient_matrix",
        "induced_table",
        "_killing_form",
        "_derivation_system",
    )
    pinned = {
        "postlie.py": (
            "is_homomorphism",
            "_is_homomorphism",
            "_rota_baxter_tables",
            "check_postlie_axioms",
            "_sub_adjacent_rows",
            "is_witness",
        ),
        "lie.py": ("invariant_fingerprint", "_series_dims"),
        "tower.py": ("_power_ranks", "build_tower"),
        "lie_obstruction.py": ("_defect", "verify_lie_2cocycle"),
        "search.py": ("_scaled",),
    }
    for module, names in pinned.items():
        tree = ast.parse((SRC / module).read_text(), filename=module)
        functions = {
            node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        for name in names:
            uses = _name_uses(functions[name])
            assert not [s for s in scalar if uses[s]], f"{module}:{name}"


def _definitions(tree: ast.Module) -> dict:
    """Each function of ``tree`` by name, and each method as 'Class.name'."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def test_lie_solves_maps_and_map_rows_run_on_integer_rows():
    # The center, the derivations, the witness, the coboundary, the
    # pullback's null space, the constructors of linear maps and their
    # application, the tower and the map-row parser hold integer rows and
    # solve through the one integer solve, ``scalars._solve``: none of them
    # builds or eliminates a matrix of scalars or reads a scalar literal.
    scalar = (
        "ExactMatrix",
        "rref",
        "nullspace",
        "hstack",
        "_solve_columns",
        "coefficient_matrix",
        "parse_scalar",
    )
    pinned = {
        "lie.py": (
            "center",
            "derivations",
            "inner_derivations",
            "_coefficient_rows",
            "_null_basis",
            "_null_subspace",
            "_row_space",
        ),
        "postlie.py": (
            "innerness_witness",
            "LinearMap.from_columns",
            "LinearMap.zero",
            "LinearMap.identity",
            "LinearMap.apply",
            "LinearMap.column",
        ),
        "lie_obstruction.py": ("coboundary_solve", "pullback_algebra"),
        "tower.py": ("build_tower", "tower_report"),
        "documents.py": ("_parse_map",),
    }
    for module, names in pinned.items():
        functions = _definitions(ast.parse((SRC / module).read_text(), filename=module))
        for name in names:
            uses = _name_uses(functions[name])
            assert not [s for s in scalar if uses[s]], f"{module}:{name}"

    def users(name):
        return sorted(
            p.name
            for p in MODULES
            if _name_uses(ast.parse(p.read_text(), filename=str(p)))[name]
        )

    assert users("_solve") == ["lie.py", "lie_obstruction.py", "postlie.py", "scalars.py"]


def test_no_dead_definitions():
    # A use inside the definition itself, such as a recursive call, does
    # not keep it alive.
    files = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py")]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    uses = sum(map(_name_uses, trees.values()), Counter())
    dead = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and uses[node.name] <= _name_uses(node)[node.name]
    )
    assert not dead, f"definitions used nowhere: {', '.join(dead)}"


def _floating_point(tree: ast.Module):
    """(line, what) of each float or complex literal and each call of
    ``float`` or ``complex`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            yield node.lineno, f"call of {node.func.id}"


def test_floating_point_scan_finds_literals_and_calls():
    tree = ast.parse("x = 0.5\ny = 2j\nz = float(x) + complex(1, 2)\nw = 1 / 2\n")
    assert sorted(_floating_point(tree)) == [
        (1, "literal 0.5"),
        (2, "literal 2j"),
        (3, "call of complex"),
        (3, "call of float"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    # Every result is exact; a float literal or conversion is a bug.
    found = sorted(_floating_point(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{path.name} uses floating point: " + ", ".join(
        f"line {line} {what}" for line, what in found
    )
