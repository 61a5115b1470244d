"""A residue field is decided in one place, and its T bar read in one module.

An `ast` scan of the library modules: the calls that choose a residue
field or find a root in one, `field_with_modulus`, `_first_roots` and
`first_root`, appear only in `ResidueBatch` (the modulus, T bar and the F_q
embedding of every residue field, `residue_field` being its batch of one)
and in `Field.subfield_embedding` (every embedding of a subfield).  The one
other call is listed below with its reason.  No module but `polynomials`
reads T bar or the F_l basis T bar^a alpha^k (its `weights`), in either
direction between A and F_l.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "drinfeld"

NAMES = {"field_with_modulus", "_first_roots", "first_root"}

# (module, scope): the places that decide a residue field or a subfield
HOMES = {("polynomials", "ResidueBatch"), ("fields", "Field.subfield_embedding")}

# (module, scope): why a call outside the homes stays
KEPT = {
    ("sampling", "_plain_copy"): (
        "F_l relabelled as a degree-1 extension of itself on the modulus of its "
        "residue field, so that the prime sieve lists polynomials over F_l in "
        "the index order of its elements; it decides no residue field"
    ),
}


def call_name(node: ast.Call) -> str:
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")


def calls(tree: ast.Module):
    """(scopes, line, name) of each call of NAMES; scopes holds every dotted
    prefix of the enclosing class and function names, such as `Field` and
    `Field.subfield_embedding`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and call_name(node) in NAMES:
            names = {".".join(scope[: k + 1]) for k in range(len(scope))}
            found.append((names, node.lineno, call_name(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_residue_fields_are_decided_in_one_place(path):
    allowed = {scope for module, scope in HOMES | set(KEPT) if module == path.stem}
    stray = [(line, name) for scopes, line, name in calls(ast.parse(path.read_text()))
             if not scopes & allowed]
    assert not stray, f"residue-field decisions outside ResidueBatch: {stray}"


@pytest.mark.parametrize("module,scope", sorted(HOMES | set(KEPT)))
def test_every_listed_place_still_calls(module, scope):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert any(scope in scopes for scopes, _, _ in calls(tree)), "no call left: drop the entry"


# the image T bar of T and the basis T bar^a alpha^k that it spans, both
# ways between A and F_l, are read through `ResidueBatch` and `ResidueField`
T_BAR = {"t_image", "t_bar", "weights", "_weights"}


@pytest.mark.parametrize("path", [m for m in MODULES if m.stem != "polynomials"],
                         ids=lambda path: path.stem)
def test_t_bar_is_read_only_in_polynomials(path):
    stray = [(node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in T_BAR]
    assert not stray, f"T bar read outside polynomials: {stray}"
