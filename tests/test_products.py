"""Every exact product of residues mod p is formed in `drinfeld.linalg`.

An `ast` scan of the other library modules: a matrix product `a @ b` is
allowed only where b is an index encoding (a power p ** np.arange(...) or
s ** ..., or a name `index`), which turns digits into integers and never
meets mod p, and numpy's product functions are not called at all.  Every
other product goes through `linalg.matmul_mod_p`, `linalg.PackedMatrix` or
`linalg.sum_products`, which pick an exact route for the dtype and p: no
product is kept raw.
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
