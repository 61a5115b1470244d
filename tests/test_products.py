"""Every exact product of residues mod p is formed in `drinfeld.linalg`.

An `ast` scan of the other library modules: a matrix product `a @ b` is
allowed only where b is an index encoding (a power p ** np.arange(...) or
s ** ..., or a name `index`), which turns digits into integers and never
meets mod p, and numpy's product functions are not called at all.  Every
other product goes through `linalg.matmul_mod_p`, `linalg.PackedMatrix` or
`linalg.sum_products`, which pick an exact route for the dtype and p: no
product is kept raw.

A second scan, over every library module, holds the operands to one
conversion: no `np.array` or `np.asarray` call reads a field element's
`.coords` outside `Field.array`, which builds the array in the field's own
dtype.  Numpy left to infer a dtype takes float64 for coordinates on both
sides of 2^63, and a product of floats is not exact.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "drinfeld"

PRODUCT_FUNCTIONS = {"matmul", "tensordot", "dot", "vdot", "inner", "einsum"}


def is_index_encoding(node: ast.expr) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)) or (
        isinstance(node, ast.Name) and node.id == "index"
    )


def call_name(node: ast.Call) -> str:
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")


def raw_products(tree: ast.Module):
    """(function, line, source) of each product outside the primitive."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func  # nested: its outer function
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if not is_index_encoding(node.right):
                found.append((func, node.lineno, ast.unparse(node)))
        if isinstance(node, ast.Call) and call_name(node) in PRODUCT_FUNCTIONS:
            found.append((func, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "linalg.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_raw_product_outside_linalg(path):
    found = raw_products(ast.parse(path.read_text()))
    assert not found, f"products of residues outside linalg: {found}"


ARRAY_FUNCTIONS = {"array", "asarray"}


def coords_arrays(tree: ast.Module):
    """(scope, line, source) of each numpy array built from `.coords`
    outside `Field.array`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
                and node.func.attr in ARRAY_FUNCTIONS and scope[:2] != ("Field", "array")
                and any(isinstance(n, ast.Attribute) and n.attr == "coords"
                        for n in ast.walk(node))):
            found.append((".".join(scope), node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_coords_array_outside_field_array(path):
    found = coords_arrays(ast.parse(path.read_text()))
    assert not found, f"arrays of coordinates outside Field.array: {found}"


def test_the_coords_scan_finds_an_inferred_dtype():
    tree = ast.parse("def f(x):\n    return np.array(x.coords)\n"
                     "class Field:\n    def array(self, x):\n        return np.array(x.coords)\n")
    assert [line for _, line, _ in coords_arrays(tree)] == [2]
