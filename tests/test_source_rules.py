"""Source rules that pin design decisions, checked on the AST of ``semshot``.

A ``Param`` owns its one gradient buffer for life, and a tape node gets its
buffer when it is built; nothing else may bind a ``.grad`` attribute.  ``+=``
on a buffer accumulates in place and is allowed.

A phase decides what trains: a ``Param`` gets its flag when it is built, and
only ``Head.set_trainable`` changes it; nothing else binds ``.trainable``.

Every op records its backward through ``diffmath._op``; nothing else outside
``Tape`` touches the tape's record.

BLAS (``@``, ``np.dot``, ``np.matmul``, ``np.linalg``) runs only at the
listed call sites: the forward products go through the order-controlled
``kernels``, whose bits do not depend on the BLAS build.

Every numeric setting is bounded by ``embeddings.Interval``, whose one
message names the setting, the interval and the value; no other string
words a range.

Random draws go only through ``numpy.random.Generator`` methods: no module
names a bit generator's internals or its ``.state``.

In ``cli.py`` one owner, ``_Run``, publishes a run: only it makes a
directory, uses ``hashlib`` or names ``"meta.json"``, and a command names
each of its outputs once through ``run.path``.

The rule that an srr head's base phase trains its projection head has one
owner, ``head.base_phase_config``: only ``head.py`` names the projection
head's mode, as ``HeadMode.SSP`` or ``HeadMode("ssp")``.

The relation stages differ in one place, the table ``relation.STAGES``:
outside ``relation.py`` no identifier or exact string spells the heuristic
graph's param name (``relation.GRAPH``), and only ``HeadConfig``, which pairs
srr with a stage, names a graph mode other than none.

No module reads or writes the environment, save the one default in
``__init__.py`` that starts OpenBLAS with one thread: a setting belongs in a
config field or a flag, where a run's ``meta.json`` records it.
"""

import ast
from pathlib import Path

from semshot.relation import GRAPH, GraphMode

SRC = Path(__file__).resolve().parents[1] / "src" / "semshot"

# (module, class, function) scopes allowed to bind ``.grad``
GRAD_OWNERS = {("diffmath", "Param", "__init__"), ("diffmath", "Tensor", "__init__")}
# and ``.trainable``
TRAINABLE_OWNERS = {("diffmath", "Param", "__init__"), ("head", "Head", "set_trainable")}


def attr_bindings(source: str, module: str, attr: str, owners: set, in_place=False) -> list:
    """(module, scope..., line) of every store or delete of an ``attr``
    attribute and every ``setattr(obj, attr, ...)`` outside ``owners``;
    with ``in_place`` an augmented assignment does not count."""
    found = []

    def visit(node, scope):
        skip = {id(node.target)} if in_place and isinstance(node, ast.AugAssign) else set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            binds = (isinstance(child, ast.Attribute) and child.attr == attr
                     and isinstance(child.ctx, (ast.Store, ast.Del)) and id(child) not in skip)
            binds = binds or (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                              and child.func.id == "setattr" and len(child.args) > 1
                              and isinstance(child.args[1], ast.Constant)
                              and child.args[1].value == attr)
            if binds and (module, *scope) not in owners:
                found.append((module, *scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def grad_bindings(source: str, module: str) -> list:
    return attr_bindings(source, module, "grad", GRAD_OWNERS, in_place=True)


def trainable_bindings(source: str, module: str) -> list:
    return attr_bindings(source, module, "trainable", TRAINABLE_OWNERS)


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


def test_only_the_param_constructor_and_set_trainable_bind_a_trainable_flag():
    files = sorted(SRC.glob("*.py"))
    assert {"diffmath", "head"} <= {f.stem for f in files}
    found = [hit for f in files for hit in trainable_bindings(f.read_text(), f.stem)]
    assert found == []


def test_the_trainable_rule_sees_every_kind_of_binding():
    source = '''
class Head:
    def set_trainable(self, names):
        for p in self.params.values():
            p.trainable = p.name in names

def switch_graph_mode(head, maps):
    for p in maps.values():
        p.trainable = False
    maps["t_l"].trainable |= True
    for q.trainable in ():
        pass
    del p.trainable
    setattr(p, "trainable", True)
    return p.trainable
'''
    assert trainable_bindings(source, "head") == [
        ("head", "switch_graph_mode", 9), ("head", "switch_graph_mode", 10),
        ("head", "switch_graph_mode", 11), ("head", "switch_graph_mode", 13),
        ("head", "switch_graph_mode", 14),
    ]
    assert trainable_bindings(source, "training")[0] == ("training", "Head", "set_trainable", 5)


# (module, top-level scope) pairs allowed to reach the tape's record: the tape
# itself and the one helper that every op records through
RECORDERS = {("diffmath", "Tape"), ("diffmath", "_op")}
_RECORD_NAMES = {"_record", "_ops"}


def record_uses(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every ``._record`` or ``._ops``
    attribute, and every string naming one, outside RECORDERS."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        if (module, scope) in RECORDERS:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in _RECORD_NAMES) or (
                    isinstance(node, ast.Constant) and node.value in _RECORD_NAMES):
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_only_the_op_helper_records_on_a_tape():
    files = sorted(SRC.glob("*.py"))
    assert [hit for f in files for hit in record_uses(f.read_text(), f.stem)] == []
    # read as another module's source, diffmath's record sits in exactly the
    # allowed scopes, so the rule above is not vacuous
    diffmath = (SRC / "diffmath.py").read_text()
    assert {scope for _, scope, _ in record_uses(diffmath, "elsewhere")} == {"Tape", "_op"}


def test_the_record_rule_sees_every_kind_of_use():
    source = '''
class Tape:
    def _record(self, fn):
        self._ops.append(fn)

def _op(value, *operands):
    operands[0][0].tape._record(lambda: None)

def add(a, b):
    a.tape._record(lambda: None)

    def inner():
        return len(b.tape._ops), getattr(b.tape, "_record")
    return inner, "_ops are private"
'''
    assert record_uses(source, "diffmath") == [
        ("diffmath", "add", 10), ("diffmath", "add", 13), ("diffmath", "add", 13),
    ]
    assert [scope for _, scope, _ in record_uses(source, "head")] == [
        "Tape", "_op", "add", "add", "add"]


# (module, top-level function) scopes allowed to call BLAS, and why
BLAS_SITES = {
    ("diffmath", "transport"): "the backward of every matrix product",
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


# a bit generator's internals, by attribute, name, import or string
GENERATOR_INTERNALS = {"bit_generator", "random_raw", "has_uint32"}
# calls that return a generator or a bit generator
_GENERATOR_MAKERS = {"default_rng", "Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64",
                     "MT19937"}


def _callee(node) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)


def generator_internals(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every attribute, name, import or
    string in GENERATOR_INTERNALS, and of every ``.state`` on a generator:
    a call in _GENERATOR_MAKERS, a name bound to one or to a
    ``.bit_generator``, or a name starting with ``rng``."""
    tree = ast.parse(source)
    generators = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and (
                      _callee(node.value) in _GENERATOR_MAKERS
                      or isinstance(node.value, ast.Attribute)
                      and node.value.attr == "bit_generator")
                  for target in node.targets if isinstance(target, ast.Name)}

    def is_generator(node):
        return _callee(node) in _GENERATOR_MAKERS or isinstance(node, ast.Name) and (
            node.id in generators or node.id.startswith("rng"))

    found = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = node.attr in GENERATOR_INTERNALS or (
                    node.attr == "state" and is_generator(node.value))
            elif isinstance(node, ast.Name):
                hit = node.id in GENERATOR_INTERNALS
            elif isinstance(node, ast.alias):
                hit = node.name in GENERATOR_INTERNALS
            else:
                hit = isinstance(node, ast.Constant) and node.value in GENERATOR_INTERNALS
            if hit:
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_draws_go_only_through_generator_methods():
    files = sorted(SRC.glob("*.py"))
    assert any(f.stem == "training" for f in files)
    assert [hit for f in files for hit in generator_internals(f.read_text(), f.stem)] == []


def test_the_generator_rule_sees_every_kind_of_use():
    source = '''
from numpy.random import bit_generator

def draw(rng, n):
    words = rng.bit_generator.random_raw(n)
    saved = rng.state
    rng_b = np.random.default_rng(1)
    return words, saved, rng_b.state, getattr(rng, "bit_generator")

class Sampler:
    def __init__(self, seed):
        bits = np.random.PCG64(seed)
        gen = np.random.Generator(bits)
        self.buffered = bits.state["has_uint32"]
        gen.state = np.random.PCG64(0).state
        self.state = head.state, gen.integers(0, 3)
'''
    assert generator_internals(source, "training") == [
        ("training", "<module>", 2), ("training", "Sampler", 14),
        ("training", "Sampler", 14), ("training", "Sampler", 15),
        ("training", "Sampler", 15), ("training", "draw", 5), ("training", "draw", 5),
        ("training", "draw", 6), ("training", "draw", 8), ("training", "draw", 8),
    ]


# (module, top-level scope) allowed to word a range: the one bound type
RANGE_WORDERS = {("embeddings", "Interval")}
RANGE_PHRASES = ("must be at least", "must be finite", "must lie in", "must be positive",
                 "non-negative", "step budget")


def range_phrases(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every string constant outside
    RANGE_WORDERS that carries one of RANGE_PHRASES, in any case."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        if (module, scope) in RANGE_WORDERS:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
                    phrase in node.value.lower() for phrase in RANGE_PHRASES):
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_only_the_bound_type_words_a_range():
    files = sorted(SRC.glob("*.py"))
    assert [hit for f in files for hit in range_phrases(f.read_text(), f.stem)] == []
    # read as another module's source, the bound type's message is caught,
    # so the rule above is not vacuous
    embeddings = (SRC / "embeddings.py").read_text()
    assert {scope for _, scope, _ in range_phrases(embeddings, "elsewhere")} == {"Interval"}


def test_the_range_rule_sees_every_kind_of_string():
    source = '''
"""Runs on a step budget."""

class Interval:
    def check(self, value, name):
        raise ValueError(f"{name} must be finite and in [0, 1], got {value}")

def f(x):
    if x < 0:
        raise ValueError(f"x must be at least 0, got {x}")
    return "Non-negative only", "x must lie between 0 and 1"

class Config:
    def g(self):
        return ("lr must "
                "be positive")
'''
    assert range_phrases(source, "embeddings") == [
        ("embeddings", "<module>", 2), ("embeddings", "Config", 15),
        ("embeddings", "f", 10), ("embeddings", "f", 11),
    ]
    assert [scope for _, scope, _ in range_phrases(source, "head")] == [
        "<module>", "Config", "Interval", "f", "f"]


# the one scope of cli.py that publishes a run
PUBLISHER = "_Run"
_DIR_MAKERS = {"mkdir", "makedirs", "mkdtemp"}


def publish_uses(source: str, owner=PUBLISHER) -> list:
    """Sorted (scope, line) of every directory made, every use of ``hashlib``
    and every ``"meta.json"`` literal outside ``owner``."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        if scope == owner:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in _DIR_MAKERS) or (
                    isinstance(node, ast.Name) and node.id == "hashlib") or (
                    isinstance(node, ast.ImportFrom) and node.module == "hashlib") or (
                    isinstance(node, ast.Constant) and node.value == "meta.json"):
                found.append((scope, node.lineno))
    return sorted(found)


def test_only_the_run_owner_publishes_in_the_cli():
    cli = (SRC / "cli.py").read_text()
    assert publish_uses(cli) == []
    # without an owner the rule finds the owner's own uses, so it is not vacuous
    assert {scope for scope, _ in publish_uses(cli, owner=None)} == {PUBLISHER}


def test_the_publish_rule_sees_every_kind_of_use():
    source = '''
import hashlib
from hashlib import sha256

class _Run:
    def execute(self, fn):
        self.out.mkdir()
        return hashlib.sha256(b"").hexdigest(), "meta.json"

def cmd_train(cfg, run):
    out = Path(cfg["out.dir"])
    out.mkdir(parents=True, exist_ok=True)
    os.makedirs(out / "sub")
    digest = hashlib.sha256
    save_json(out / "meta.json", {})
    return "see meta.json", tempfile.mkdtemp()
'''
    assert publish_uses(source) == [
        ("<module>", 3), ("cmd_train", 12), ("cmd_train", 13), ("cmd_train", 14),
        ("cmd_train", 15), ("cmd_train", 16),
    ]
    assert [scope for scope, _ in publish_uses(source, owner=None)] == [
        "<module>", "_Run", "_Run", "_Run", "cmd_train", "cmd_train", "cmd_train",
        "cmd_train", "cmd_train"]


# the one module that names the projection head's mode
SSP_NAMER = "head"


def ssp_names(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every ``HeadMode.SSP`` attribute and
    every ``HeadMode("ssp")`` call, the enum reached by any path, outside
    SSP_NAMER."""
    if module == SSP_NAMER:
        return []
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "SSP" and ast.unparse(node.value).split(".")[-1] == "HeadMode"
            elif isinstance(node, ast.Call) and node.args:
                hit = (_callee(node) == "HeadMode" and isinstance(node.args[0], ast.Constant)
                       and node.args[0].value == "ssp")
            else:
                hit = False
            if hit:
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_only_the_head_module_names_the_projection_heads_mode():
    files = sorted(SRC.glob("*.py"))
    assert [hit for f in files for hit in ssp_names(f.read_text(), f.stem)] == []
    # read as another module's source, the base-phase rule's own line is caught,
    # so the rule above is not vacuous
    head = (SRC / "head.py").read_text()
    assert "base_phase_config" in {scope for _, scope, _ in ssp_names(head, "elsewhere")}


def test_the_ssp_rule_sees_every_kind_of_use():
    source = '''
from .head import HeadMode

DEFAULT = HeadMode.SSP

def base_mode(cfg):
    if cfg.mode is head.HeadMode.SRR:
        return semshot.head.HeadMode.SSP
    return HeadMode("ssp"), HeadMode(cfg.mode), HeadMode("srr"), "HeadMode.SSP", Other.SSP

class Config:
    mode: HeadMode = HeadMode("ssp")
'''
    assert ssp_names(source, "pipeline") == [
        ("pipeline", "<module>", 4), ("pipeline", "Config", 12),
        ("pipeline", "base_mode", 8), ("pipeline", "base_mode", 9),
    ]
    assert ssp_names(source, "head") == []


# the one module that tells the relation stages apart, and the one scope
# elsewhere that names a graph mode: the rule pairing srr with a stage
STAGE_OWNER = "relation"
PAIRING_RULE = ("head", "HeadConfig")
_STAGE_MEMBERS = {m.name for m in GraphMode} - {GraphMode.NONE.name}
_STAGE_VALUES = {m.value for m in GraphMode} - {GraphMode.NONE.value}
_SPELLINGS = ("id", "arg", "name", "asname", "attr", "value")


def stage_names(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every identifier or exact string
    ``relation.GRAPH`` names, and every graph mode other than NONE named as
    a ``GraphMode`` attribute or ``GraphMode("...")`` call (the enum reached
    by any path) outside PAIRING_RULE, all outside STAGE_OWNER."""
    if module == STAGE_OWNER:
        return []
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        pairing = (module, scope) == PAIRING_RULE
        for node in ast.walk(top):
            # a name, argument, keyword, alias, definition, attribute or string
            hit = any(getattr(node, f, None) == GRAPH for f in _SPELLINGS)
            if isinstance(node, ast.Attribute) and not pairing:
                hit = hit or node.attr in _STAGE_MEMBERS and (
                    ast.unparse(node.value).split(".")[-1] == "GraphMode")
            elif isinstance(node, ast.Call) and node.args and not pairing:
                hit = hit or _callee(node) == "GraphMode" and isinstance(
                    node.args[0], ast.Constant) and node.args[0].value in _STAGE_VALUES
            if hit:
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_only_the_relation_module_tells_the_stages_apart():
    files = sorted(SRC.glob("*.py"))
    assert [hit for f in files for hit in stage_names(f.read_text(), f.stem)] == []
    # read as another module's source, the stage table is caught, and so is
    # the pairing rule's default read as any other scope
    relation = (SRC / "relation.py").read_text()
    assert {"<module>", "relation_forward_t"} <= {
        scope for _, scope, _ in stage_names(relation, "elsewhere")}
    head = (SRC / "head.py").read_text().replace("class HeadConfig", "class Config")
    assert "Config" in {scope for _, scope, _ in stage_names(head, "head")}


def test_the_stage_rule_sees_every_kind_of_use():
    # the sites that branched on the graph mode before the stage table
    source = '''
from .relation import GraphMode as g_heur

class HeadConfig:
    def __post_init__(self):
        self.graph_mode = rel.GraphMode.DYNAMIC if srr else rel.GraphMode.NONE

def _effective_rows_t(tape, head):
    if gm is rel.GraphMode.HEURISTIC:
        return dm.matmul(tape.param(head.params["g_heur"]), we_t)
    if gm is semshot.relation.GraphMode.TRAINABLE_TRANSFORM:
        return rel.trainable_transform_t(we_t, maps_t)

def relation_graph(head, g_heur=None):
    if (g_heur := head.params.get("g_heur")) is not None:
        return head.g_heur, GraphMode("tt"), GraphMode("none"), GraphMode(mode), "g_heur map"

def cmd_finetune(cfg, run):
    graph = _cooccurrence(cfg, head.registry, head.cfg.graph_mode, "g_heur" in head.params)
    return switch(g_heur=1), GraphMode.NONE, Other.HEURISTIC, rel.GraphMode.DYNAMIC.value
'''
    assert stage_names(source, "head") == [
        ("head", "<module>", 2), ("head", "_effective_rows_t", 9),
        ("head", "_effective_rows_t", 10), ("head", "_effective_rows_t", 11),
        ("head", "cmd_finetune", 19), ("head", "cmd_finetune", 20),
        ("head", "cmd_finetune", 20), ("head", "relation_graph", 14),
        ("head", "relation_graph", 15), ("head", "relation_graph", 15),
        ("head", "relation_graph", 16), ("head", "relation_graph", 16),
    ]
    # elsewhere HeadConfig is one more scope, and the owner may name anything
    assert ("pipeline", "HeadConfig", 6) in stage_names(source, "pipeline")
    assert stage_names(source, "relation") == []


# the one environment variable semshot sets, as (module, the call that sets it)
ENV_SETTER = ("__init__", "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')")
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environ_uses(source: str, module: str) -> list:
    """Sorted (module, scope, line) of every ``environ``, ``getenv``,
    ``putenv`` or ``unsetenv`` by attribute, name, import or string, except
    the ``os.environ`` of the one call ENV_SETTER allows."""
    tree = ast.parse(source)
    allowed = {id(node.func.value) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and (module, ast.unparse(node)) == ENV_SETTER}
    found = []
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = node.attr in _ENV_NAMES and id(node) not in allowed
            elif isinstance(node, ast.Name):
                hit = node.id in _ENV_NAMES
            elif isinstance(node, ast.alias):
                hit = node.name in _ENV_NAMES
            else:
                hit = isinstance(node, ast.Constant) and node.value in _ENV_NAMES
            if hit:
                found.append((module, scope, node.lineno))
    return sorted(found)


def test_only_the_package_root_sets_an_environment_variable():
    files = sorted(SRC.glob("*.py"))
    assert any(f.stem == "__init__" for f in files)
    assert [hit for f in files for hit in environ_uses(f.read_text(), f.stem)] == []
    # read as another module's source, the package root's default is caught,
    # so the rule above is not vacuous
    init = (SRC / "__init__.py").read_text()
    assert [scope for _, scope, _ in environ_uses(init, "elsewhere")] == ["<module>"]


def test_the_environ_rule_sees_every_kind_of_use():
    source = '''
import os
from os import environ, getenv

os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')
os.environ.setdefault("OMP_NUM_THREADS", "1")

def backend():
    if os.getenv("SEMSHOT_NUMBA") or environ.get("X"):
        os.environ["Y"] = "1"
    return getattr(os, "environ"), os.putenv, "environment"

class Config:
    threads = int(os.environ.get("THREADS", 1))
'''
    assert environ_uses(source, "__init__") == [
        ("__init__", "<module>", 3), ("__init__", "<module>", 3), ("__init__", "<module>", 6),
        ("__init__", "Config", 14), ("__init__", "backend", 9), ("__init__", "backend", 9),
        ("__init__", "backend", 10), ("__init__", "backend", 11), ("__init__", "backend", 11),
    ]
    # the allowed call is allowed only in the package root
    assert ("kernels", "<module>", 5) in environ_uses(source, "kernels")
