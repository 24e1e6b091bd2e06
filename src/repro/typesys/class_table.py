"""Class tables and method signatures (the class table ``CT`` of Figure 3).

A :class:`ClassTable` stores the class hierarchy and, for every method the
synthesizer may call, a :class:`MethodSig` carrying

* the receiver kind (instance method ``A#m`` vs singleton/class method
  ``A.m``),
* argument and return types,
* a read/write :class:`~repro.lang.effects.EffectPair` annotation,
* an executable implementation (used by the interpreter), and
* optionally a *comp type*: a callable that recomputes argument/return types
  from the receiver type, reproducing RDL's type-level computations used for
  ActiveRecord's ``where``/``joins``/``[]`` (Section 4).

The class table also resolves the ``self`` effect region against the concrete
receiver class, which is how a ``Post.exists?`` call inherited from
``ActiveRecord::Base`` reads the ``Post`` table and not any other table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.lang import types as T
from repro.lang.effects import EffectPair, coarsen_pair

#: Implementation callable: ``impl(interpreter, receiver, *args) -> value``.
Impl = Callable[..., Any]

#: Comp type callable: ``comp(sig, receiver_type, class_table) -> (arg_types, ret_type)``.
CompType = Callable[["MethodSig", T.Type, "ClassTable"], Tuple[Tuple[T.Type, ...], T.Type]]


@dataclass(frozen=True)
class ClassInfo:
    """A class known to the table: name, superclass and optional Python class."""

    name: str
    superclass: Optional[str] = "Object"
    pyclass: Any = None


@dataclass(frozen=True)
class MethodSig:
    """The type-and-effect signature of one library or app method."""

    owner: str
    name: str
    arg_types: Tuple[T.Type, ...]
    ret_type: T.Type
    effects: EffectPair = EffectPair.pure()
    singleton: bool = False
    impl: Optional[Impl] = None
    comp_type: Optional[CompType] = None
    synthesis: bool = True

    @property
    def receiver_type(self) -> T.Type:
        if self.singleton:
            return T.SingletonClassType(self.owner)
        return T.ClassType(self.owner)

    @property
    def qualified_name(self) -> str:
        sep = "." if self.singleton else "#"
        return f"{self.owner}{sep}{self.name}"

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arg_types)
        return f"{self.qualified_name}: ({args}) -> {self.ret_type} {self.effects}"


@dataclass(frozen=True)
class ResolvedSig:
    """A signature specialized to a receiver type.

    Comp types may refine the argument/return types and the ``self`` effect
    region is resolved to the receiver's class.
    """

    sig: MethodSig
    receiver_cls: str
    arg_types: Tuple[T.Type, ...]
    ret_type: T.Type
    effects: EffectPair


#: Process-wide source of :attr:`ClassTable.generation` tokens.  Tokens are
#: unique across table *instances* and bumped on every mutation, so external
#: memos keyed by generation (the incremental typechecker's and the footprint
#: analysis's node memos, the per-problem production tables) can never be
#: served stale -- not even through ``id()`` reuse after a table is collected.
_GENERATIONS = iter(range(1, 2**63))


class ClassTable:
    """The class table ``CT``: classes, methods and class constants."""

    def __init__(self, effect_precision: str = "precise") -> None:
        self._classes: Dict[str, ClassInfo] = {}
        self._methods: Dict[Tuple[str, str, bool], MethodSig] = {}
        self.effect_precision = effect_precision
        self._generation = next(_GENERATIONS)
        # Memo tables; synthesis resolves the same signatures and checks the
        # same subtype pairs millions of times, so these are load-bearing.
        # The resolve cache is keyed by the signature's identity (signatures
        # are interned in the table) to avoid hashing large dataclasses.
        self._resolve_cache: Dict[Tuple[int, T.Type], ResolvedSig] = {}
        self._subtype_cache: Dict[Tuple[T.Type, T.Type], bool] = {}
        for name, superclass in T.BUILTIN_CLASSES.items():
            self._classes[name] = ClassInfo(name, superclass)

    @property
    def generation(self) -> int:
        """A mutation-aware identity token for externally keyed memos.

        Distinct tables never share a generation, and any mutation of this
        table (``add_class``/``add_method``/``remove_method``) moves it to a
        fresh one, so a memo entry keyed by generation is valid forever.
        """

        return self._generation

    def _invalidate_caches(self) -> None:
        self._generation = next(_GENERATIONS)
        self._resolve_cache.clear()
        self._subtype_cache.clear()
        self._resolved_methods: Optional[List[ResolvedSig]] = None

    # -- classes -------------------------------------------------------------

    def add_class(
        self, name: str, superclass: str = "Object", pyclass: Any = None
    ) -> ClassInfo:
        if superclass not in self._classes and superclass is not None:
            raise KeyError(f"unknown superclass {superclass!r} for {name!r}")
        info = ClassInfo(name, superclass, pyclass)
        self._classes[name] = info
        self._invalidate_caches()
        return info

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def class_info(self, name: str) -> ClassInfo:
        try:
            return self._classes[name]
        except KeyError:
            raise KeyError(f"unknown class {name!r}") from None

    def classes(self) -> Iterator[ClassInfo]:
        return iter(self._classes.values())

    def pyclass(self, name: str) -> Any:
        """The Python-level class object registered for ``name`` (or ``None``)."""

        info = self._classes.get(name)
        return info.pyclass if info is not None else None

    def superclass_chain(self, name: str) -> List[str]:
        chain: List[str] = []
        cur: Optional[str] = name
        seen: set[str] = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            chain.append(cur)
            info = self._classes.get(cur)
            cur = info.superclass if info is not None else None
        return chain

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Nominal subclassing, with ``Object`` as the universal superclass."""

        if sub == sup or sup == "Object":
            return True
        return sup in self.superclass_chain(sub)

    def subclasses(self, name: str) -> List[str]:
        return [c.name for c in self._classes.values() if self.is_subclass(c.name, name)]

    # -- methods -------------------------------------------------------------

    def add_method(self, sig: MethodSig) -> MethodSig:
        if sig.owner not in self._classes:
            raise KeyError(f"unknown class {sig.owner!r} for method {sig.name!r}")
        self._methods[(sig.owner, sig.name, sig.singleton)] = sig
        self._invalidate_caches()
        return sig

    def add_methods(self, sigs: Iterable[MethodSig]) -> None:
        for sig in sigs:
            self.add_method(sig)

    def remove_method(self, owner: str, name: str, singleton: bool = False) -> None:
        if self._methods.pop((owner, name, singleton), None) is not None:
            self._invalidate_caches()

    def methods(self) -> List[MethodSig]:
        return list(self._methods.values())

    def synthesis_methods(self) -> List[MethodSig]:
        """Methods the synthesizer is allowed to call (the library methods)."""

        return [sig for sig in self._methods.values() if sig.synthesis]

    def methods_of(self, owner: str, singleton: Optional[bool] = None) -> List[MethodSig]:
        return [
            sig
            for sig in self._methods.values()
            if sig.owner == owner and (singleton is None or sig.singleton == singleton)
        ]

    def lookup(
        self, cls: str, name: str, singleton: bool = False
    ) -> Optional[MethodSig]:
        """Dynamic-dispatch lookup: walk the superclass chain of ``cls``."""

        for owner in self.superclass_chain(cls):
            sig = self._methods.get((owner, name, singleton))
            if sig is not None:
                return sig
        return None

    # -- signature resolution -------------------------------------------------

    def resolve(self, sig: MethodSig, receiver_type: Optional[T.Type] = None) -> ResolvedSig:
        """Specialize ``sig`` for ``receiver_type`` (defaults to the owner).

        Applies the comp type (if any), resolves ``self`` effect regions and
        coarsens the effect annotation to the table's precision level.
        """

        if receiver_type is None:
            receiver_type = sig.receiver_type
        cache_key = (id(sig), receiver_type)
        cached = self._resolve_cache.get(cache_key)
        if cached is not None:
            return cached
        receiver_cls = _receiver_class_name(receiver_type, sig)
        arg_types, ret_type = sig.arg_types, sig.ret_type
        if sig.comp_type is not None:
            arg_types, ret_type = sig.comp_type(sig, receiver_type, self)
        effects = sig.effects.resolve_self(receiver_cls)
        effects = coarsen_pair(effects, self.effect_precision)
        resolved = ResolvedSig(sig, receiver_cls, tuple(arg_types), ret_type, effects)
        self._resolve_cache[cache_key] = resolved
        return resolved

    def resolved_synthesis_methods(self) -> List[ResolvedSig]:
        """Every synthesis-eligible method resolved at its default receiver.

        The result is cached (keyed off the resolve cache) because the
        enumerator consults this list on every hole expansion.
        """

        cached = getattr(self, "_resolved_methods", None)
        if cached is not None:
            return cached
        resolved = [self.resolve(sig) for sig in self.synthesis_methods()]
        self._resolved_methods = resolved
        return resolved

    def is_subtype(self, t1: T.Type, t2: T.Type) -> bool:
        """Memoized subtype query (the hot path of candidate filtering)."""

        key = (t1, t2)
        cached = self._subtype_cache.get(key)
        if cached is None:
            cached = T.is_subtype(t1, t2, self)
            self._subtype_cache[key] = cached
        return cached

    def effects_of_call(self, cls: str, name: str, singleton: bool = False) -> EffectPair:
        """The (resolved, coarsened) effect of calling ``cls``'s method ``name``."""

        sig = self.lookup(cls, name, singleton)
        if sig is None:
            return EffectPair.pure()
        receiver_type: T.Type
        if singleton:
            receiver_type = T.SingletonClassType(cls)
        else:
            receiver_type = T.ClassType(cls)
        return self.resolve(sig, receiver_type).effects

    # -- variants -------------------------------------------------------------

    def coarsened(self, precision: str) -> "ClassTable":
        """A view of this table with effect annotations at ``precision``."""

        clone = ClassTable(effect_precision=precision)
        clone._classes = dict(self._classes)
        clone._methods = dict(self._methods)
        return clone

    def without_methods(self, qualified_names: Iterable[str]) -> "ClassTable":
        """A view with some methods removed (used by benchmark A9's tweak)."""

        drop = set(qualified_names)
        clone = ClassTable(effect_precision=self.effect_precision)
        clone._classes = dict(self._classes)
        clone._methods = {
            key: sig
            for key, sig in self._methods.items()
            if sig.qualified_name not in drop
        }
        return clone

    def __len__(self) -> int:
        return len(self._methods)


def _receiver_class_name(receiver_type: T.Type, sig: MethodSig) -> str:
    if isinstance(receiver_type, (T.ClassType, T.SingletonClassType)):
        return receiver_type.name
    return sig.owner
