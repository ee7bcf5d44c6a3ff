"""Source rules that pin design decisions, checked on the AST of ``semshot``.

A ``Param`` owns its one gradient buffer for life, and a tape node gets its
buffer when it is built; nothing else may bind a ``.grad`` attribute.  ``+=``
on a buffer accumulates in place and is allowed.

BLAS (``@``, ``np.dot``, ``np.matmul``, ``np.linalg``) runs only at the
listed call sites: the forward products go through the order-controlled
``kernels``, whose bits do not depend on the BLAS build.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "semshot"

# (module, class, function) scopes allowed to bind ``.grad``
GRAD_OWNERS = {("diffmath", "Param", "__init__"), ("diffmath", "Tensor", "__init__")}


def grad_bindings(source: str, module: str) -> list:
    """(module, scope..., line) of every store or delete of a ``.grad``
    attribute and every ``setattr(obj, "grad", ...)`` outside GRAD_OWNERS."""
    found = []

    def visit(node, scope):
        in_place = {id(node.target)} if isinstance(node, ast.AugAssign) else set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            binds = (isinstance(child, ast.Attribute) and child.attr == "grad"
                     and isinstance(child.ctx, (ast.Store, ast.Del)) and id(child) not in in_place)
            binds = binds or (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                              and child.func.id == "setattr" and len(child.args) > 1
                              and isinstance(child.args[1], ast.Constant)
                              and child.args[1].value == "grad")
            if binds and (module, *scope) not in GRAD_OWNERS:
                found.append((module, *scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_only_param_and_tensor_constructors_bind_a_grad_attribute():
    files = sorted(SRC.glob("*.py"))
    assert any(f.stem == "diffmath" for f in files)
    found = [hit for f in files for hit in grad_bindings(f.read_text(), f.stem)]
    assert found == []


def test_the_grad_rule_sees_every_kind_of_binding():
    source = '''
class Param:
    def __init__(self):
        self.grad = None

class Tape:
    def param(self, p):
        p.grad = zeros()
        p.grad += 1.0
        for q.grad in ():
            pass
        del p.grad
        setattr(p, "grad", None)
        return p.grad

def reset(ps):
    ps[0].grad, other = None, 1
'''
    assert grad_bindings(source, "diffmath") == [
        ("diffmath", "Tape", "param", 8), ("diffmath", "Tape", "param", 10),
        ("diffmath", "Tape", "param", 12), ("diffmath", "Tape", "param", 13),
        ("diffmath", "reset", 17),
    ]
    assert grad_bindings(source, "training")[0] == ("training", "Param", "__init__", 4)


# (module, top-level function) scopes allowed to call BLAS, and why
BLAS_SITES = {
    ("diffmath", "_product"): "the backward of every matrix product",
    ("embeddings", "compose_background_row"): "the norm of one seeded background row",
    ("pipeline", "_similarity_graph"): "the cosine graph of the benchmark's heuristic prior",
    ("relation", "_cosine_block"): "the cosine tables of the correlation export",
    ("synthgen", "embedding_map"): "the QR of the seeded embedding-to-feature map",
    ("synthgen", "class_prototypes"): "projecting and normalizing the class prototypes",
    ("synthgen", "generate"): "the regression targets of the synthetic corpus",
}
_BLAS_NAMES = {"dot", "matmul", "linalg"}
_BLAS_ATTRS = {f"{mod}.{name}" for mod in ("np", "numpy") for name in _BLAS_NAMES}


def blas_calls(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every ``@``, ``@=``, ``np.dot``,
    ``np.matmul``, ``np.linalg.*`` and import of one in ``source``.  The
    scope is the top-level function or class that holds the call."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                hit = isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Attribute):  # np.linalg.norm hits once, at np.linalg
                hit = ast.unparse(node) in _BLAS_ATTRS
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "numpy.linalg" or (
                    node.module == "numpy" and bool(_BLAS_NAMES & {a.name for a in node.names}))
            elif isinstance(node, ast.Import):
                hit = any(a.name == "numpy.linalg" for a in node.names)
            else:
                hit = False
            if hit:
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_blas_runs_only_at_the_allowed_call_sites():
    calls = [hit for f in sorted(SRC.glob("*.py")) for hit in blas_calls(f.read_text(), f.stem)]
    assert [c for c in calls if c[:2] not in BLAS_SITES] == []
    # a site that stops calling BLAS leaves the list
    assert {c[:2] for c in calls} == set(BLAS_SITES)


def test_the_blas_rule_sees_every_kind_of_call():
    source = '''
import numpy.linalg
from numpy import dot
from numpy.linalg import norm

def f(a, b):
    c = a @ b
    c @= b
    np.dot(a, b) + numpy.matmul(a, b)

    def inner():
        return np.linalg.qr(a)
    return a * b, "a @ b", np.einsum("ij,jk->ik", a, b), np.linalg

class K:
    def m(self, a):
        return a @ a
'''
    assert blas_calls(source, "kernels") == [
        ("kernels", "<module>", 2), ("kernels", "<module>", 3), ("kernels", "<module>", 4),
        ("kernels", "K", 17), ("kernels", "f", 7), ("kernels", "f", 8),
        ("kernels", "f", 9), ("kernels", "f", 9), ("kernels", "f", 12), ("kernels", "f", 13),
    ]
