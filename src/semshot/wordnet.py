"""Hypernym graph handling for dataset-hygiene removal lists.

Pretraining corpora leak into few-shot evaluation when they contain hyponyms
of the held-out classes, so the tool walks the hypernym graph and emits, per
class, the sorted synset ids of its full hyponym closure (root included).  A
hand-checked manifest for the standard 11 held-out VOC classes ships with the
package.
"""

import re
from dataclasses import dataclass
from itertools import pairwise

from .embeddings import read_file

SYNSET_RE = re.compile(r"^n\d{8}$")


@dataclass
class WordNetGraph:
    nodes: frozenset
    children: dict  # hypernym -> tuple of direct hyponyms
    cyclic: bool = False

    def children_of(self, node: str) -> tuple:
        return self.children.get(node, ())


def _is_cyclic(children: dict, hypernyms: dict) -> bool:
    """Peel off nodes with no hypernym left: a node on or below a cycle never
    peels.  Uses up ``hypernyms``, each node's count of hypernyms."""
    ready = [node for node, count in hypernyms.items() if not count]
    for node in ready:  # grows as nodes free up
        for child in children.get(node, ()):
            hypernyms[child] -= 1
            if not hypernyms[child]:
                ready.append(child)
    return len(ready) < len(hypernyms)


def parse_hypernym_edges(stream) -> WordNetGraph:
    """Read tab-separated ``hypernym<TAB>hyponym`` lines into a graph.

    ``#`` starts a comment line; blank lines are skipped.  Ids must look like
    WordNet noun offsets (n + 8 digits).  Self-edges are rejected; duplicate
    edges collapse.  Cycles are tolerated (closure still terminates) but
    flagged on the returned graph.
    """
    children: dict = {}  # hypernym -> its hyponyms, a dict used as an ordered set
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(
                f"line {lineno}: expected 'hypernym<TAB>hyponym', got {raw.rstrip()!r}"
            )
        parent, child = fields[0].strip(), fields[1].strip()
        for ident in (parent, child):
            if not SYNSET_RE.match(ident):
                raise ValueError(f"line {lineno}: malformed synset id {ident!r}")
        if parent == child:
            raise ValueError(f"line {lineno}: self-edge on {parent!r}")
        children.setdefault(parent, {})[child] = None
    hypernyms = dict.fromkeys(children, 0)
    for parent, kids in children.items():
        for child in kids:
            hypernyms[child] = hypernyms.get(child, 0) + 1
        children[parent] = tuple(kids)
    return WordNetGraph(nodes=frozenset(hypernyms), children=children,
                        cyclic=_is_cyclic(children, hypernyms))


def load_hypernym_edges(path) -> WordNetGraph:
    return read_file(path, parse_hypernym_edges)


def hyponym_closure(graph: WordNetGraph, roots) -> list:
    """All synsets reachable from the roots (roots included), sorted ascending."""
    roots = list(roots)
    for root in roots:
        if root not in graph.nodes:
            raise ValueError(f"root {root!r} is not a node of the graph")
    visited = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        stack.extend(graph.children_of(node))
    return sorted(visited)


def _sorted_unique(ids) -> tuple:
    """``ids`` sorted ascending without repeats, as one tuple.  Ids that
    already are (a closure) are copied once, not sorted again."""
    ids = tuple(ids)
    if all(a < b for a, b in pairwise(ids)):
        return ids
    return tuple(sorted(set(ids)))


@dataclass
class RemovalManifest:
    """Per-class sorted synset ids to strip from a pretraining corpus."""

    classes: dict  # class name -> tuple of sorted ids
    provenance: str = ""

    def __post_init__(self):
        self.classes = {name: _sorted_unique(ids) for name, ids in self.classes.items()}

    def to_json(self) -> dict:
        return {
            "provenance": self.provenance,
            "classes": {k: list(v) for k, v in sorted(self.classes.items())},
        }


def manifest_from_graph(graph: WordNetGraph, class_roots: dict,
                        provenance: str = "computed") -> RemovalManifest:
    return RemovalManifest(
        classes={name: hyponym_closure(graph, roots) for name, roots in class_roots.items()},
        provenance=provenance,
    )


def emit_removal_list(manifest: RemovalManifest, fmt: str = "text") -> str:
    """Render a manifest as ``class: id1, id2, ...`` lines or as JSON."""
    if fmt == "text":
        lines = [
            f"{name}: {', '.join(ids)}" for name, ids in sorted(manifest.classes.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    if fmt == "json":
        import json

        return json.dumps(manifest.to_json(), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected 'text' or 'json')")


# Hand-checked hyponym closures for the 11 classes customarily held out of
# VOC-style few-shot splits, against the WordNet 3.0 noun hierarchy.
_VOC_GOLDEN = {
    "aeroplane": ("n02690373", "n02692877", "n04552348"),
    "bird": (
        "n01514668", "n01514859", "n01518878", "n01530575", "n01531178",
        "n01532829", "n01534433", "n01537544", "n01558993", "n01560419",
        "n01580077", "n01582220", "n01592084", "n01601694", "n01608432",
        "n01614925", "n01616318", "n01622779", "n01795545", "n01796340",
        "n01797886", "n01798484", "n01806143", "n01806567", "n01807496",
        "n01817953", "n01818515", "n01819313", "n01820546", "n01824575",
        "n01828970", "n01829413", "n01833805", "n01843065", "n01843383",
        "n01847000", "n01855032", "n01855672", "n01860187", "n02002556",
        "n02002724", "n02006656", "n02007558", "n02009229", "n02009912",
        "n02011460", "n02012849", "n02013706", "n02017213", "n02018207",
        "n02018795", "n02025239", "n02027492", "n02028035", "n02033041",
        "n02037110", "n02051845", "n02056570", "n02058221",
    ),
    "boat": (
        "n02687172", "n02951358", "n03095699", "n03344393", "n03447447",
        "n03662601", "n03673027", "n03873416", "n03947888", "n04147183",
        "n04273569", "n04347754", "n04606251", "n04612504",
    ),
    "bottle": (
        "n02823428", "n03062245", "n03937543", "n03983396", "n04522168",
        "n04557648", "n04560804", "n04579145", "n04591713",
    ),
    "bus": ("n03769881", "n04065272", "n04146614", "n04487081"),
    "cat": (
        "n02123045", "n02123159", "n02123394", "n02123597", "n02124075",
        "n02125311", "n02127052",
    ),
    "cow": ("n02403003", "n02408429", "n02410509"),
    "horse": ("n02389026", "n02391049"),
    "motorbike": ("n03785016", "n03791053"),
    "sheep": (
        "n02412080", "n02415577", "n02417914", "n02422106", "n02422699",
        "n02423022",
    ),
    "sofa": ("n04344873",),
}


def bundled_voc_manifest() -> RemovalManifest:
    """The shipped removal manifest for the 11 standard held-out classes."""
    return RemovalManifest(classes=dict(_VOC_GOLDEN), provenance="bundled-golden")
