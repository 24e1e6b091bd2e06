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

All nodes are immutable, slotted objects (no instance ``__dict__``) with
structural equality; the synthesizer relies on this to deduplicate
candidates.  Assigning or deleting any attribute raises
:class:`dataclasses.FrozenInstanceError`, and ``repr`` keeps the dataclass
form (``Seq(first=..., second=...)``).  Every node computes four facts
once, at construction, from its children's:

* ``_hash`` -- the structural hash that ``hash(node)`` returns;
* ``_node_count`` -- the number of nodes (:func:`node_count`);
* ``_holes`` -- the number of holes in it (:func:`count_holes`,
  :func:`has_holes`);
* ``_fv`` -- its free variables as a sorted tuple: the union of its
  children's, minus a ``let``'s binder (a :class:`MethodDef`'s params stay
  free, as in :func:`free_variables`).

So none of them ever walks a tree, and subtrees shared between candidates
are never measured twice.  :class:`Compound` nodes also have three memo
slots, filled lazily by the analyses that own them: ``_type_memo``
(:mod:`repro.typesys.typecheck`), ``_fp_memo``
(:mod:`repro.analysis.footprint`) and ``_alpha_memo``
(:mod:`repro.lang.resolve`).  ``__reduce__`` rebuilds a node through its
constructor: pickles and deep copies carry only the fields, the
construction-time facts are recomputed on the far side (the hash is only
valid under one interpreter's string-hash seed), and the memos stay behind.

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

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.lang.effects import Effect
from repro.lang.types import Type

#: A path to a subtree: the child index (see :meth:`Node.children`) taken at
#: each level from the root.
Path = Tuple[int, ...]

#: Constructors store their fields past the immutability guard of
#: ``Node.__setattr__``; the construction-time facts go through the slot
#: setters below, which skip the generic attribute lookup.
_setattr = object.__setattr__


class Node:
    """Base class for all AST nodes.

    A leaf counts one node, contains no hole unless it is one (the hole
    classes override ``_holes``) and has no free variable unless it is a
    :class:`Var`; its constructor stores its field and its hash.  Compound
    nodes derive from :class:`Compound`, store all four construction-time
    facts in their own constructor, and override :meth:`children` and
    :meth:`with_child`.

    Every class declares its ``__slots__``: its fields, in constructor order,
    then any underscore-prefixed fact it stores per instance.
    """

    __slots__ = ("_hash",)

    _hash: int
    _node_count = 1
    _holes = 0
    _fv: Tuple[str, ...] = ()
    #: The field names, in constructor order (set by ``__init_subclass__``).
    _field_names: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._field_names = tuple(
            name for name in vars(cls)["__slots__"] if not name.startswith("_")
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def children(self) -> Tuple["Node", ...]:
        """The child nodes in evaluation order (empty for leaves)."""

        return ()

    def with_child(self, index: int, child: "Node") -> "Node":
        """This node with ``children()[index]`` replaced by ``child``."""

        raise IndexError(f"{type(self).__name__} has no children")

    def _args(self) -> tuple:
        """The constructor arguments: the fields, in order."""

        return tuple([getattr(self, name) for name in self._field_names])

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

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._field_names
        )
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:
        from repro.lang.pretty import pretty

        return pretty(self)


_set_hash = Node._hash.__set__  # type: ignore[attr-defined]


def _union(a: Tuple[str, ...], b: Tuple[str, ...]) -> Tuple[str, ...]:
    """The sorted union of two sorted free-variable tuples."""

    if not b or a == b:
        return a
    if not a:
        return b
    return tuple(sorted({*a, *b}))


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class NilLit(Node):
    """The literal ``nil``."""

    __slots__ = ()

    def __init__(self) -> None:
        _set_hash(self, hash(("NilLit",)))


class BoolLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        _setattr(self, "value", value)
        _set_hash(self, hash(("BoolLit", value)))


class IntLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        _setattr(self, "value", value)
        _set_hash(self, hash(("IntLit", value)))


class StrLit(Node):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        _setattr(self, "value", value)
        _set_hash(self, hash(("StrLit", value)))


class SymLit(Node):
    """A symbol literal ``:name``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)
        _set_hash(self, hash(("SymLit", name)))


class ConstRef(Node):
    """A reference to a class constant such as ``Post``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)
        _set_hash(self, hash(("ConstRef", name)))


class Var(Node):
    __slots__ = ("name", "_fv")

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)
        _set_hash(self, hash(("Var", name)))
        _setattr(self, "_fv", (name,))


# ---------------------------------------------------------------------------
# Holes
# ---------------------------------------------------------------------------


class TypedHole(Node):
    """A typed hole ``[]:tau`` to be filled by an expression of type ``tau``."""

    __slots__ = ("type",)

    _holes = 1

    def __init__(self, type: Type) -> None:
        _setattr(self, "type", type)
        _set_hash(self, hash(("TypedHole", type)))


class EffectHole(Node):
    """An effect hole ``<>:eps`` to be filled by code with write effect ``eps``."""

    __slots__ = ("effect",)

    _holes = 1

    def __init__(self, effect: Effect) -> None:
        _setattr(self, "effect", effect)
        _set_hash(self, hash(("EffectHole", effect)))


# ---------------------------------------------------------------------------
# Compound expressions
# ---------------------------------------------------------------------------


class Compound(Node):
    """Base class of the nodes with children.

    Each constructor stores its fields and the four construction-time facts.
    The memo slots start empty: their owners read them with a ``None``
    default and fill them through ``object.__setattr__``.
    """

    __slots__ = (
        "_node_count", "_holes", "_fv", "_type_memo", "_fp_memo", "_alpha_memo"
    )


_set_node_count = Compound._node_count.__set__  # type: ignore[attr-defined]
_set_holes = Compound._holes.__set__  # type: ignore[attr-defined]
_set_fv = Compound._fv.__set__  # type: ignore[attr-defined]


class Seq(Compound):
    """Sequencing ``first; second``; evaluates to ``second``."""

    __slots__ = ("first", "second")

    def __init__(self, first: Node, second: Node) -> None:
        _setattr(self, "first", first)
        _setattr(self, "second", second)
        _set_hash(self, hash(("Seq", first._hash, second._hash)))
        _set_node_count(self, 1 + first._node_count + second._node_count)
        _set_holes(self, first._holes + second._holes)
        _set_fv(self, _union(first._fv, second._fv))

    def children(self) -> Tuple[Node, ...]:
        return (self.first, self.second)

    def with_child(self, index: int, child: Node) -> Node:
        return Seq(child, self.second) if index == 0 else Seq(self.first, child)


class Let(Compound):
    """``let var = value in body``."""

    __slots__ = ("var", "value", "body")

    def __init__(self, var: str, value: Node, body: Node) -> None:
        _setattr(self, "var", var)
        _setattr(self, "value", value)
        _setattr(self, "body", body)
        _set_hash(self, hash(("Let", var, value._hash, body._hash)))
        _set_node_count(self, 1 + value._node_count + body._node_count)
        _set_holes(self, value._holes + body._holes)
        body_fv = body._fv
        if var in body_fv:
            body_fv = tuple([name for name in body_fv if name != var])
        _set_fv(self, _union(value._fv, body_fv))

    def children(self) -> Tuple[Node, ...]:
        return (self.value, self.body)

    def with_child(self, index: int, child: Node) -> Node:
        if index == 0:
            return Let(self.var, child, self.body)
        return Let(self.var, self.value, child)


class MethodCall(Compound):
    """A method call ``receiver.name(args...)``."""

    __slots__ = ("receiver", "name", "args")

    def __init__(self, receiver: Node, name: str, args: Tuple[Node, ...] = ()) -> None:
        _setattr(self, "receiver", receiver)
        _setattr(self, "name", name)
        _setattr(self, "args", args)
        count = 1 + receiver._node_count
        holes = receiver._holes
        fv = receiver._fv
        for arg in args:
            count += arg._node_count
            holes += arg._holes
            fv = _union(fv, arg._fv)
        _set_hash(self, hash(("MethodCall", receiver._hash, name, args)))
        _set_node_count(self, count)
        _set_holes(self, holes)
        _set_fv(self, fv)

    def children(self) -> Tuple[Node, ...]:
        return (self.receiver,) + self.args

    def with_child(self, index: int, child: Node) -> Node:
        if index == 0:
            return MethodCall(child, self.name, self.args)
        args = self.args
        return MethodCall(
            self.receiver, self.name, args[: index - 1] + (child,) + args[index:]
        )


class HashLit(Compound):
    """A hash literal ``{key: value, ...}`` with symbol keys."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[str, Node], ...] = ()) -> None:
        _setattr(self, "entries", entries)
        count = 1
        holes = 0
        fv: Tuple[str, ...] = ()
        for _, value in entries:
            count += value._node_count
            holes += value._holes
            fv = _union(fv, value._fv)
        _set_hash(self, hash(("HashLit", entries)))
        _set_node_count(self, count)
        _set_holes(self, holes)
        _set_fv(self, fv)

    def children(self) -> Tuple[Node, ...]:
        return tuple([value for _, value in self.entries])

    def with_child(self, index: int, child: Node) -> Node:
        entries = self.entries
        entry = (entries[index][0], child)
        return HashLit(entries[:index] + (entry,) + entries[index + 1 :])


class If(Compound):
    """``if cond then then_branch else else_branch``."""

    __slots__ = ("cond", "then_branch", "else_branch")

    def __init__(self, cond: Node, then_branch: Node, else_branch: Node) -> None:
        _setattr(self, "cond", cond)
        _setattr(self, "then_branch", then_branch)
        _setattr(self, "else_branch", else_branch)
        _set_hash(self, hash(("If", cond._hash, then_branch._hash, else_branch._hash)))
        _set_node_count(
            self,
            1 + cond._node_count + then_branch._node_count + else_branch._node_count,
        )
        _set_holes(self, cond._holes + then_branch._holes + else_branch._holes)
        _set_fv(self, _union(_union(cond._fv, then_branch._fv), else_branch._fv))

    def children(self) -> Tuple[Node, ...]:
        return (self.cond, self.then_branch, self.else_branch)

    def with_child(self, index: int, child: Node) -> Node:
        if index == 0:
            return If(child, self.then_branch, self.else_branch)
        if index == 1:
            return If(self.cond, child, self.else_branch)
        return If(self.cond, self.then_branch, child)


class Not(Compound):
    """Guard negation ``!b``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Node) -> None:
        _setattr(self, "expr", expr)
        _set_hash(self, hash(("Not", expr._hash)))
        _set_node_count(self, 1 + expr._node_count)
        _set_holes(self, expr._holes)
        _set_fv(self, expr._fv)

    def children(self) -> Tuple[Node, ...]:
        return (self.expr,)

    def with_child(self, index: int, child: Node) -> Node:
        return Not(child)


class Or(Compound):
    """Guard disjunction ``b1 or b2``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node) -> None:
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _set_hash(self, hash(("Or", left._hash, right._hash)))
        _set_node_count(self, 1 + left._node_count + right._node_count)
        _set_holes(self, left._holes + right._holes)
        _set_fv(self, _union(left._fv, right._fv))

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def with_child(self, index: int, child: Node) -> Node:
        return Or(child, self.right) if index == 0 else Or(self.left, child)


class MethodDef(Compound):
    """A synthesized program ``def name(params...) = body``."""

    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: Tuple[str, ...], body: Node) -> None:
        _setattr(self, "name", name)
        _setattr(self, "params", params)
        _setattr(self, "body", body)
        _set_hash(self, hash(("MethodDef", name, params, body._hash)))
        _set_node_count(self, 1 + body._node_count)
        _set_holes(self, body._holes)
        # The params are bound by ``call_program``, not by the tree.
        _set_fv(self, body._fv)

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
    """The free variables of an expression, found by walking it.

    The reference for the construction-time ``_fv`` of every node.
    """

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


_HOLES = (TypedHole, EffectHole)


def first_hole(node: Node) -> Optional[HoleSite]:
    """The left-most hole of ``node``, or ``None`` if the node is evaluable.

    Walks down from the root into the first child that holds a hole (each
    node knows how many it does), so it finds the same site as
    ``next(iter_holes(node), None)`` without visiting any other subtree.
    """

    if not node._holes:
        return None
    path: List[int] = []
    bindings: Tuple[Tuple[str, Node], ...] = ()
    while not isinstance(node, _HOLES):
        for index, child in enumerate(node.children()):
            if child._holes:
                break
        if index == 1 and isinstance(node, Let):
            bindings += ((node.var, node.value),)
        path.append(index)
        node = child
    return HoleSite(node, tuple(path), bindings)


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
