"""Source rules that pin design decisions, checked on the AST of ``semshot``.

A ``Param`` owns its one gradient buffer for life, and a tape node gets its
buffer when it is built; nothing else may bind a ``.grad`` attribute.  ``+=``
on a buffer accumulates in place and is allowed.
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
