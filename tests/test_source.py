"""Source hygiene: no module keeps an import or a private helper it never uses,
one function makes every BLAS product and one tests finiteness, commands
read and sum sketch files one way and keep no numerics of their own, one
piece reader fills every payload and recovery opens every sketch through
``io``, the maps import nothing from the sketch and no module scipy.fft,
and listing the package's names loads none of its modules.

Each module of the package (``__init__.py`` aside, which only re-exports)
is parsed with ``ast``.  A name counts as used when the module loads it
somewhere outside the statement that defines it, so a helper that only
calls itself counts as unused too.  A private method counts as used when
the module loads an attribute of its name outside the method itself.
"""

import ast
import sys
from pathlib import Path

import pytest

import tuckersketch

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tuckersketch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _loads(tree: ast.AST, skip: ast.AST | None = None, kind=ast.Name) -> set[str]:
    """Names loaded anywhere in ``tree`` except inside ``skip``: plain
    names, or the names of attributes with ``kind=ast.Attribute``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, kind) and isinstance(node.ctx, ast.Load):
            names.add(node.id if kind is ast.Name else node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _bound(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement binds."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in stmt.names]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _unused(path: Path, wanted) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        name
        for stmt in tree.body
        if wanted(stmt)
        for name in _bound(stmt)
        if (isinstance(stmt, (ast.Import, ast.ImportFrom)) or name.startswith("_"))
        and not name.startswith("__")
        and name not in _loads(tree, skip=stmt)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    def imports(stmt):
        if isinstance(stmt, ast.ImportFrom):
            return stmt.module != "__future__"
        return isinstance(stmt, ast.Import)

    assert _unused(path, imports) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_module_name_is_used(path):
    def definitions(stmt):
        return not isinstance(stmt, (ast.Import, ast.ImportFrom))

    assert _unused(path, definitions) == []


def _private_methods(tree: ast.AST) -> list[ast.FunctionDef]:
    return [
        fn
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_")
        and not fn.name.startswith("__")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_method_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [
        fn.name
        for fn in _private_methods(tree)
        if fn.name not in _loads(tree, skip=fn, kind=ast.Attribute)
    ]
    assert unused == []


def _np_sites(attr: str) -> list[str]:
    """``module.function`` of every reference to numpy's ``attr`` (dotted,
    as ``linalg.norm``) in the package (``module`` alone at module level)."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.stem}.{node.name}"
            if (isinstance(node, ast.Attribute)
                    and ast.unparse(node) in (f"np.{attr}", f"numpy.{attr}")):
                sites.append(where)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                sites += [where for a in node.names if a.name == attr]
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return sites


def test_np_matmul_is_called_in_tensor_matmul_alone():
    # tensor.matmul decides how every GEMM is cut into BLAS calls, so no
    # other function may call np.matmul past it.
    assert set(_np_sites("matmul")) == {"tensor.matmul"}


def test_np_isfinite_is_called_in_tensor_all_finite_alone():
    # tensor.all_finite is the one finiteness test of an array (the
    # sketcher's, the sketch-file reader's, merge's and two-pass recovery's),
    # so no other function may call np.isfinite, and the reader and the
    # sketcher keep no finiteness helper or chunk size of their own.
    assert set(_np_sites("isfinite")) == {"tensor.all_finite"}
    for module in ("io", "sketch"):
        own = [name for stmt in _tree(module).body
               if not isinstance(stmt, (ast.Import, ast.ImportFrom))
               for name in _bound(stmt) if "finite" in name.lower()]
        assert own == []


def test_squares_are_summed_and_units_picked_in_tensor_alone():
    # tensor.sum_sq is the one sum of squares (fro_norm is its square root)
    # and tensor.in_units the one choice of a power-of-two unit, so nothing
    # calls np.linalg.norm, and no other function calls np.frexp.
    assert _np_sites("linalg.norm") == []
    assert set(_np_sites("frexp")) == {"tensor.in_units"}


def test_np_log_is_called_in_rng_libm_log_alone():
    # rng._libm_log takes libm's log, the one Cephes ndtri calls, from
    # numpy's plain loop; any other np.log in rng could run the SIMD loop,
    # whose last bit differs from libm's on some CPUs.  No long double or
    # platform test decides which log the port gets.
    assert [s for s in _np_sites("log") if s.split(".")[0] == "rng"] == ["rng._libm_log"]
    assert _np_sites("longdouble") == []
    assert "platform" not in {name.split(".")[0] for name in _imported()}


def _imported() -> set[str]:
    """Every absolute module the package's modules import, anywhere in them,
    and ``module.name`` for each name of a ``from module import name``."""
    got = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                got |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                got |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return got


def test_src_imports_no_scipy_fft():
    # SSRFT entries are made with numpy.fft; the transform applied by
    # scipy.fft is the tests' reference for them, not package code.
    assert [name for name in _imported() if name.startswith("scipy.fft")] == []


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _names(module: str) -> set[str]:
    """Every name ``module`` imports, defines or loads, attributes included."""
    tree = _tree(module)
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names}
    names |= {node.name for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return names | _loads(tree) | _loads(tree, kind=ast.Attribute)


def _imports_from(module: str, source: str) -> set[str]:
    """What package module ``module`` imports from package module
    ``source``: the names of ``from .source import ...``, and ``source``
    itself for ``from . import source``."""
    got = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == source:
                got |= {a.name for a in node.names}
            elif node.module is None:
                got |= {a.name for a in node.names if a.name == source}
    return got


def test_cli_reads_and_sums_sketches_one_way():
    # Every command reads a sketch file through io.read_sketch_slabs and
    # sums sketches through sketch.sum_sketches, so none may name the
    # whole-file read or the pairwise merge.
    assert not _names("cli") & {"read_sketch", "sketch_merge"}


def test_cli_keeps_no_numerics():
    # The error score is recovery.normalized_error and the finiteness check
    # StreamingSketcher.check_finite, so the command line takes only
    # per_mode from the tensor kernels and names no scorer of its own.
    assert _imports_from("cli", "tensor") == {"per_mode"}
    assert not _names("cli") & {"_projected_error", "_expanded_error",
                                "_normalized_error", "_check_finite"}


def _callers(module: str, name: str) -> set[str]:
    """The module-level functions and classes of ``module`` that call ``name``."""
    return {stmt.name for stmt in _tree(module).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and any(isinstance(node, ast.Call) and ast.unparse(node.func) == name
                    for node in ast.walk(stmt))}


def test_payloads_are_read_by_the_piece_reader_alone():
    # _PieceReader cuts every payload along the last mode, and a whole
    # array is its one piece, so no other code fills an array from a file.
    assert _callers("io", "_read_into") == {"_PieceReader"}


def test_recovery_opens_every_sketch_through_io():
    # io.read_sketch_slabs opens a sketch file or a sketch in memory and
    # cuts its core sketch, so the recoveries call it directly and recovery
    # keeps no opener or cut of its own.
    assert "sketch_core_slabs" not in _names("recovery")
    assert _callers("recovery", "read_sketch_slabs") == {"one_pass_recover",
                                                         "two_pass_recover"}


def test_drm_imports_nothing_from_sketch():
    # The sketch is built on the maps, never the other way round.
    assert _imports_from("drm", "sketch") == set()


def test_dir_lists_every_public_name_without_loading_a_module():
    before = set(sys.modules)
    listed = dir(tuckersketch)
    assert set(tuckersketch.__all__) <= set(listed)
    assert set(sys.modules) == before
