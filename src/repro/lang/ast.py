"""Abstract syntax of lambda-syn expressions and programs.

Grammar (Figure 3 of the paper), extended with the implementation-level forms
that Section 4 relies on (hash literals, symbol/string/integer constants and
class-constant references):

.. code-block:: text

   e ::= nil | true | false | <int> | <str> | :<sym> | <Const>
       | x | e; e | e.m(e, ...) | {k: e, ...}
       | if b then e else e | let x = e in e
       | [] : tau          (typed hole)
       | <> : eps          (effect hole)
   b ::= e | !b | b or b

All nodes are frozen dataclasses with structural equality; the synthesizer
relies on this to deduplicate candidates.  Every node computes three fields
once, at construction, from its children's fields:

* ``_hash`` -- the structural hash that ``hash(node)`` returns;
* ``_node_count`` -- the number of nodes (:func:`node_count`);
* ``_holes`` -- the number of holes in it (:func:`count_holes`,
  :func:`has_holes`).

So none of them ever walks a tree, and subtrees shared between candidates
are never measured twice.  ``__reduce__`` rebuilds a node through its
constructor: pickles and deep copies carry only the dataclass fields, and the
construction-time fields are recomputed on the far side (the hash is only
valid under one interpreter's string-hash seed).  Neither do the memos that
are attached lazily to a node's ``__dict__`` (``_type_memo``, ``_fp_memo``,
``_free_vars``, ``_fv_tuple``, ``_alpha_memo``, ``_first_hole``) travel.

Two utilities matter for synthesis:

* :func:`first_hole` finds the left-most hole and reports its *path* -- the
  child indices leading to it from the root -- plus the ``let`` bindings in
  scope at that position, so the enumerator can extend the type environment
  correctly (rule T-Let).
* :func:`replace_at` splices a replacement in at such a path, rebuilding only
  the nodes on the path (one :meth:`Node.with_child` per level) and sharing
  every other subtree; a :class:`Splicer` walks the path once for many
  replacements, and its :class:`Pending` entries defer each splice: an entry
  knows the size and hole count of its tree from the construction-time
  fields of the parent and the replacement, and builds the tree only when
  :meth:`Pending.build` is first called.  The search's work list holds such
  entries, so a refinement that is never popped is never built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.lang.effects import Effect
from repro.lang.types import Type

#: A path to a subtree: the child index (see :meth:`Node.children`) taken at
#: each level from the root.
Path = Tuple[int, ...]


class Node:
    """Base class for all AST nodes.

    A leaf counts one node and contains no hole unless it is one (the hole
    classes override ``_holes``); its hash is set by the ``__post_init__``
    below.  Compound nodes set all three construction-time fields in their
    own ``__init__`` and override :meth:`children` and :meth:`with_child`.
    """

    _node_count = 1
    _holes = 0
    _hash: int
    #: The dataclass field names, in order (set by :func:`_node`).
    _field_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Leaves only: right after the dataclass __init__ the instance dict
        # holds exactly the node's fields, in declaration order.
        self.__dict__["_hash"] = hash((type(self).__name__, *self.__dict__.values()))

    def children(self) -> Tuple["Node", ...]:
        """The child nodes in evaluation order (empty for leaves)."""

        return ()

    def with_child(self, index: int, child: "Node") -> "Node":
        """This node with ``children()[index]`` replaced by ``child``."""

        raise IndexError(f"{type(self).__name__} has no children")

    def _args(self) -> tuple:
        """The constructor arguments: the dataclass fields, in order."""

        fields = self.__dict__
        return tuple([fields[name] for name in self._field_names])

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._args() == other._args()

    def __reduce__(self) -> Tuple[type, tuple]:
        return type(self), self._args()

    def __str__(self) -> str:
        from repro.lang.pretty import pretty

        return pretty(self)


def _node(cls):
    """The dataclass decorator of every node class.

    ``eq=False`` keeps the ``__eq__`` and the stored ``__hash__`` of
    :class:`Node` instead of generating field-by-field ones; a class that
    defines its own ``__init__`` keeps it.
    """

    cls = dataclass(frozen=True, eq=False)(cls)
    cls._field_names = tuple(f.name for f in dataclasses.fields(cls))
    return cls


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@_node
class NilLit(Node):
    """The literal ``nil``."""


@_node
class BoolLit(Node):
    value: bool


@_node
class IntLit(Node):
    value: int


@_node
class StrLit(Node):
    value: str


@_node
class SymLit(Node):
    """A symbol literal ``:name``."""

    name: str


@_node
class ConstRef(Node):
    """A reference to a class constant such as ``Post``."""

    name: str


@_node
class Var(Node):
    name: str


# ---------------------------------------------------------------------------
# Holes
# ---------------------------------------------------------------------------


@_node
class TypedHole(Node):
    """A typed hole ``[]:tau`` to be filled by an expression of type ``tau``."""

    type: Type

    _holes = 1


@_node
class EffectHole(Node):
    """An effect hole ``<>:eps`` to be filled by code with write effect ``eps``."""

    effect: Effect

    _holes = 1


# ---------------------------------------------------------------------------
# Compound expressions
#
# Each constructor stores its fields and the three construction-time fields
# straight into the instance dict: the generated frozen-dataclass __init__
# (one object.__setattr__ per field plus a __post_init__ call) would double
# the cost of building a candidate's root-to-hole spine.
# ---------------------------------------------------------------------------


@_node
class Seq(Node):
    """Sequencing ``first; second``; evaluates to ``second``."""

    first: Node
    second: Node

    def __init__(self, first: Node, second: Node) -> None:
        fields = self.__dict__
        fields["first"] = first
        fields["second"] = second
        fields["_hash"] = hash(("Seq", first._hash, second._hash))
        fields["_node_count"] = 1 + first._node_count + second._node_count
        fields["_holes"] = first._holes + second._holes

    def children(self) -> Tuple[Node, ...]:
        return (self.first, self.second)

    def with_child(self, index: int, child: Node) -> Node:
        return Seq(child, self.second) if index == 0 else Seq(self.first, child)


@_node
class Let(Node):
    """``let var = value in body``."""

    var: str
    value: Node
    body: Node

    def __init__(self, var: str, value: Node, body: Node) -> None:
        fields = self.__dict__
        fields["var"] = var
        fields["value"] = value
        fields["body"] = body
        fields["_hash"] = hash(("Let", var, value._hash, body._hash))
        fields["_node_count"] = 1 + value._node_count + body._node_count
        fields["_holes"] = value._holes + body._holes

    def children(self) -> Tuple[Node, ...]:
        return (self.value, self.body)

    def with_child(self, index: int, child: Node) -> Node:
        if index == 0:
            return Let(self.var, child, self.body)
        return Let(self.var, self.value, child)


@_node
class MethodCall(Node):
    """A method call ``receiver.name(args...)``."""

    receiver: Node
    name: str
    args: Tuple[Node, ...] = ()

    def __init__(self, receiver: Node, name: str, args: Tuple[Node, ...] = ()) -> None:
        fields = self.__dict__
        fields["receiver"] = receiver
        fields["name"] = name
        fields["args"] = args
        count = 1 + receiver._node_count
        holes = receiver._holes
        for arg in args:
            count += arg._node_count
            holes += arg._holes
        fields["_hash"] = hash(("MethodCall", receiver._hash, name, args))
        fields["_node_count"] = count
        fields["_holes"] = holes

    def children(self) -> Tuple[Node, ...]:
        return (self.receiver,) + self.args

    def with_child(self, index: int, child: Node) -> Node:
        if index == 0:
            return MethodCall(child, self.name, self.args)
        args = self.args
        return MethodCall(
            self.receiver, self.name, args[: index - 1] + (child,) + args[index:]
        )


@_node
class HashLit(Node):
    """A hash literal ``{key: value, ...}`` with symbol keys."""

    entries: Tuple[Tuple[str, Node], ...] = ()

    def __init__(self, entries: Tuple[Tuple[str, Node], ...] = ()) -> None:
        fields = self.__dict__
        fields["entries"] = entries
        count = 1
        holes = 0
        for _, value in entries:
            count += value._node_count
            holes += value._holes
        fields["_hash"] = hash(("HashLit", entries))
        fields["_node_count"] = count
        fields["_holes"] = holes

    def children(self) -> Tuple[Node, ...]:
        return tuple([value for _, value in self.entries])

    def with_child(self, index: int, child: Node) -> Node:
        entries = self.entries
        entry = (entries[index][0], child)
        return HashLit(entries[:index] + (entry,) + entries[index + 1 :])


@_node
class If(Node):
    """``if cond then then_branch else else_branch``."""

    cond: Node
    then_branch: Node
    else_branch: Node

    def __init__(self, cond: Node, then_branch: Node, else_branch: Node) -> None:
        fields = self.__dict__
        fields["cond"] = cond
        fields["then_branch"] = then_branch
        fields["else_branch"] = else_branch
        fields["_hash"] = hash(
            ("If", cond._hash, then_branch._hash, else_branch._hash)
        )
        fields["_node_count"] = (
            1 + cond._node_count + then_branch._node_count + else_branch._node_count
        )
        fields["_holes"] = cond._holes + then_branch._holes + else_branch._holes

    def children(self) -> Tuple[Node, ...]:
        return (self.cond, self.then_branch, self.else_branch)

    def with_child(self, index: int, child: Node) -> Node:
        if index == 0:
            return If(child, self.then_branch, self.else_branch)
        if index == 1:
            return If(self.cond, child, self.else_branch)
        return If(self.cond, self.then_branch, child)


@_node
class Not(Node):
    """Guard negation ``!b``."""

    expr: Node

    def __init__(self, expr: Node) -> None:
        fields = self.__dict__
        fields["expr"] = expr
        fields["_hash"] = hash(("Not", expr._hash))
        fields["_node_count"] = 1 + expr._node_count
        fields["_holes"] = expr._holes

    def children(self) -> Tuple[Node, ...]:
        return (self.expr,)

    def with_child(self, index: int, child: Node) -> Node:
        return Not(child)


@_node
class Or(Node):
    """Guard disjunction ``b1 or b2``."""

    left: Node
    right: Node

    def __init__(self, left: Node, right: Node) -> None:
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right
        fields["_hash"] = hash(("Or", left._hash, right._hash))
        fields["_node_count"] = 1 + left._node_count + right._node_count
        fields["_holes"] = left._holes + right._holes

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def with_child(self, index: int, child: Node) -> Node:
        return Or(child, self.right) if index == 0 else Or(self.left, child)


@_node
class MethodDef(Node):
    """A synthesized program ``def name(params...) = body``."""

    name: str
    params: Tuple[str, ...]
    body: Node

    def __init__(self, name: str, params: Tuple[str, ...], body: Node) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["params"] = params
        fields["body"] = body
        fields["_hash"] = hash(("MethodDef", name, params, body._hash))
        fields["_node_count"] = 1 + body._node_count
        fields["_holes"] = body._holes

    def children(self) -> Tuple[Node, ...]:
        return (self.body,)

    def with_child(self, index: int, child: Node) -> Node:
        return MethodDef(self.name, self.params, child)


# ---------------------------------------------------------------------------
# Generic traversal utilities
# ---------------------------------------------------------------------------


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all of its descendants in pre-order."""

    yield node
    for child in node.children():
        yield from walk(child)


def node_count(node: Node) -> int:
    """Number of AST nodes, the "Meth Size" metric reported in Table 1.

    It also orders the work list and bounds candidate size.
    """

    return node._node_count


def count_holes(node: Node) -> int:
    """Number of typed and effect holes in ``node``."""

    return node._holes


def has_holes(node: Node) -> bool:
    """Negation of the paper's ``evaluable`` predicate (Figure 12)."""

    return node._holes > 0


def count_paths(node: Node) -> int:
    """Number of control-flow paths through an expression (Table 1, # Paths)."""

    if isinstance(node, If):
        return count_paths(node.then_branch) + count_paths(node.else_branch)
    if isinstance(node, Seq):
        return count_paths(node.first) * count_paths(node.second)
    if isinstance(node, Let):
        return count_paths(node.value) * count_paths(node.body)
    if isinstance(node, MethodDef):
        return count_paths(node.body)
    return 1


def free_variables(node: Node, bound: frozenset[str] = frozenset()) -> frozenset[str]:
    """The free variables of an expression (used by merge-time sanity checks)."""

    if isinstance(node, Var):
        return frozenset() if node.name in bound else frozenset({node.name})
    if isinstance(node, Let):
        return free_variables(node.value, bound) | free_variables(
            node.body, bound | {node.var}
        )
    result: frozenset[str] = frozenset()
    for child in node.children():
        result |= free_variables(child, bound)
    return result


def free_vars(node: Node) -> frozenset[str]:
    """``free_variables(node)`` memoized per (immutable) node.

    The incremental typechecker keys its per-node memo by the types of the
    node's free variables, so this is consulted on every cached check; the
    memo is shared by every candidate containing the subtree.
    """

    cached = node.__dict__.get("_free_vars")
    if cached is not None:
        return cached
    if isinstance(node, Var):
        result = frozenset({node.name})
    elif isinstance(node, Let):
        result = free_vars(node.value) | (free_vars(node.body) - {node.var})
    else:
        result = frozenset()
        for child in node.children():
            result |= free_vars(child)
    node.__dict__["_free_vars"] = result
    return result


# ---------------------------------------------------------------------------
# Hole location and replacement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoleSite:
    """A located hole: the hole node, its path, and the binders in scope.

    ``bindings`` lists the enclosing ``let`` binders from outermost to
    innermost as ``(name, value_expression)`` pairs; the enumerator
    typechecks the value expressions to extend the type environment at the
    hole (rule T-Let).
    """

    hole: Union[TypedHole, EffectHole]
    path: Path
    bindings: Tuple[Tuple[str, Node], ...] = ()


def iter_holes(node: Node) -> Iterator[HoleSite]:
    """Yield every hole in left-to-right evaluation order."""

    yield from _iter_holes(node, (), ())


def _iter_holes(
    node: Node, path: Path, bindings: Tuple[Tuple[str, Node], ...]
) -> Iterator[HoleSite]:
    if not node._holes:
        return
    if isinstance(node, (TypedHole, EffectHole)):
        yield HoleSite(node, path, bindings)
        return
    for index, child in enumerate(node.children()):
        inner = bindings
        if index == 1 and isinstance(node, Let):
            # The binder is in scope in the body, not in the value.
            inner = bindings + ((node.var, node.value),)
        yield from _iter_holes(child, path + (index,), inner)


_NOT_LOCATED = object()


def first_hole(node: Node) -> Optional[HoleSite]:
    """The left-most hole of ``node``, or ``None`` if the node is evaluable.

    Memoized on the (immutable) node in ``_first_hole``.
    """

    site = node.__dict__.get("_first_hole", _NOT_LOCATED)
    if site is _NOT_LOCATED:
        site = next(iter_holes(node), None)
        node.__dict__["_first_hole"] = site
    return site


class Splicer:
    """``splice(replacement)`` is ``replace_at(node, path, replacement)``,
    walking ``path`` once however many replacements are spliced in."""

    __slots__ = ("_spine", "_rest_size", "_rest_holes")

    def __init__(self, node: Node, path: Path) -> None:
        spine: List[Tuple[Node, int]] = []
        root = node
        for index in path:
            spine.append((node, index))
            node = node.children()[index]
        spine.reverse()
        self._spine = spine
        # Size and holes of the tree once the subtree at ``path`` is cut out.
        self._rest_size = root._node_count - node._node_count
        self._rest_holes = root._holes - node._holes

    def __call__(self, replacement: Node) -> Node:
        for parent, index in self._spine:
            replacement = parent.with_child(index, replacement)
        return replacement


class Pending:
    """The tree ``splice(replacement)``, built only when :meth:`build` is
    first called.

    ``size`` and ``holes`` are the tree's :func:`node_count` and
    :func:`count_holes`, known without building it.
    """

    __slots__ = ("size", "holes", "_splice", "_replacement", "_node")

    def __init__(self, splice: Splicer, replacement: Node) -> None:
        self.size: int = splice._rest_size + replacement._node_count
        self.holes: int = splice._rest_holes + replacement._holes
        self._splice = splice
        self._replacement = replacement
        self._node: Optional[Node] = None

    @classmethod
    def of(cls, node: Node) -> "Pending":
        """An entry for a tree that is already built: ``node`` spliced in
        at the empty path, which builds ``node`` itself."""

        return cls(Splicer(node, ()), node)

    def build(self) -> Node:
        """The tree, spliced on the first call and the same object after."""

        node = self._node
        if node is None:
            node = self._node = self._splice(self._replacement)
        return node


def replace_at(node: Node, path: Path, replacement: Node) -> Node:
    """Rebuild ``node`` with ``replacement`` spliced in at ``path``."""

    return Splicer(node, path)(replacement)


def fill_first_hole(node: Node, replacement: Node) -> Node:
    """Replace the left-most hole of ``node`` with ``replacement``."""

    site = first_hole(node)
    if site is None:
        raise ValueError("expression has no holes")
    return replace_at(node, site.path, replacement)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

NIL = NilLit()
TRUE = BoolLit(True)
FALSE = BoolLit(False)


def seq(*exprs: Node) -> Node:
    """Right-nest a sequence of expressions; a single expression is returned
    unchanged."""

    if not exprs:
        raise ValueError("seq() requires at least one expression")
    result = exprs[-1]
    for e in reversed(exprs[:-1]):
        result = Seq(e, result)
    return result


def call(receiver: Node, name: str, *args: Node) -> MethodCall:
    return MethodCall(receiver, name, tuple(args))


def hash_lit(**entries: Node) -> HashLit:
    return HashLit(tuple(entries.items()))


def fresh_name(prefix: str, taken: Sequence[str]) -> str:
    """Generate ``t0``, ``t1``, ... style names avoiding ``taken``."""

    taken_set = set(taken)
    i = 0
    while f"{prefix}{i}" in taken_set:
        i += 1
    return f"{prefix}{i}"


def bound_names(node: Node) -> List[str]:
    """All names bound by ``let`` anywhere in the expression."""

    return [n.var for n in walk(node) if isinstance(n, Let)]
