"""Type-and-effect annotation generation for ORM models.

RbSyn extends RDL's metaprogramming-generated type annotations for
ActiveRecord with *effect* annotations (Section 5.1): when RDL creates the
signature for the ``Post#title`` accessor it now also creates the read effect
``Post.title``.  This module reproduces that step for our in-memory ORM: for
every model class it generates :class:`~repro.typesys.class_table.MethodSig`
entries covering

* per-column accessors ``M#col`` (read ``M.col``) and mutators ``M#col=``
  (write ``M.col``),
* query class methods ``M.where`` / ``M.exists?`` / ``M.find_by`` /
  ``M.first`` / ``M.count`` / ``M.create`` with *comp types* that compute the
  keyword-hash argument type from the model's schema,
* relation methods ``MRelation#first`` / ``#exists?`` / ``#where`` / ...
* record methods ``M#update!`` / ``M#reload`` / ``M#destroy`` / ``M#save``.

Effects on query methods use the ``self`` region so the annotations written
once here behave like the inherited ``ActiveRecord::Base`` annotations of the
paper: at a ``Post.exists?`` call the effect resolves to the ``Post`` table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Type as PyType

from repro.lang import types as T
from repro.lang.effects import Effect, EffectPair
from repro.lang.values import HashValue
from repro.typesys.class_table import ClassTable, MethodSig
from repro.activerecord.model import Model

#: Class-table name of the shared ORM base class.
BASE_CLASS = "ActiveRecord::Base"
RELATION_CLASS = "Relation"


def register_activerecord(ct: ClassTable) -> None:
    """Register the ORM base classes in a class table."""

    if not ct.has_class(BASE_CLASS):
        ct.add_class(BASE_CLASS, "Object")
    if not ct.has_class(RELATION_CLASS):
        ct.add_class(RELATION_CLASS, "Object")


def columns_hash_type(model_cls: PyType[Model], include_id: bool = True) -> T.FiniteHashType:
    """The finite hash type ``{col: ?Type, ...}`` of a model's columns."""

    optional: Dict[str, T.Type] = {}
    if include_id:
        optional["id"] = T.INT
    for col, col_type in model_cls.schema.items():
        optional[col] = col_type
    return T.FiniteHashType.make(optional=optional)


def _columns_hash_comp(sig: MethodSig, receiver_type: T.Type, ct: ClassTable):
    """Comp type: recompute the keyword-hash argument type from the schema.

    Reproduces RDL's type-level computations for ActiveRecord query methods:
    the argument type depends on the receiver model's columns, looked up at
    synthesis time from the class table.
    """

    owner = sig.owner
    if isinstance(receiver_type, (T.ClassType, T.SingletonClassType)):
        name = receiver_type.name
        if name.endswith("Relation"):
            name = name[: -len("Relation")]
        if ct.has_class(name) and ct.pyclass(name) is not None:
            owner = name
    model_cls = ct.pyclass(owner if not owner.endswith("Relation") else owner[:-8])
    if model_cls is None:
        return sig.arg_types, sig.ret_type
    return (columns_hash_type(model_cls),), sig.ret_type


def _columns_hash_comp_no_id(sig: MethodSig, receiver_type: T.Type, ct: ClassTable):
    """Comp type for ``create``: like the column hash but without ``id``.

    New records never take an explicit primary key, and excluding it keeps
    the synthesizer from proposing meaningless ``create(id: 0)`` candidates.
    """

    arg_types, ret_type = _columns_hash_comp(sig, receiver_type, ct)
    if arg_types and isinstance(arg_types[0], T.FiniteHashType):
        hash_type = arg_types[0]
        optional = {k: v for k, v in hash_type.optional_map.items() if k != "id"}
        arg_types = (
            T.FiniteHashType.make(required=hash_type.required_map, optional=optional),
        )
    return arg_types, ret_type


def register_model(
    ct: ClassTable,
    model_cls: PyType[Model],
    synthesis: bool = True,
    include_setters: bool = True,
    include_class_queries: bool = True,
) -> List[MethodSig]:
    """Generate and register signatures for ``model_cls``.

    Returns the list of registered signatures.  ``synthesis=False`` registers
    the methods (so specs can call them and effects are tracked) without
    letting the synthesizer insert calls to them.
    """

    register_activerecord(ct)
    name = model_cls.model_name
    relation_name = f"{name}Relation"
    if not ct.has_class(name):
        ct.add_class(name, BASE_CLASS, pyclass=model_cls)
    if not ct.has_class(relation_name):
        ct.add_class(relation_name, RELATION_CLASS)

    model_type = T.ClassType(name)
    relation_type = T.ClassType(relation_name)
    hash_type = columns_hash_type(model_cls)
    sigs: List[MethodSig] = []

    def add(sig: MethodSig) -> None:
        sigs.append(ct.add_method(sig))

    # -- column accessors and mutators ---------------------------------------

    for col in list(model_cls.schema.keys()):
        col_type = model_cls.schema[col]
        add(
            MethodSig(
                owner=name,
                name=col,
                arg_types=(),
                ret_type=col_type,
                effects=EffectPair.of(read=f"self.{col}"),
                impl=_make_reader(col),
                synthesis=synthesis,
            )
        )
        if include_setters:
            add(
                MethodSig(
                    owner=name,
                    name=f"{col}=",
                    arg_types=(col_type,),
                    ret_type=col_type,
                    effects=EffectPair.of(write=f"self.{col}"),
                    impl=_make_writer(col),
                    synthesis=synthesis,
                )
            )

    add(
        MethodSig(
            owner=name,
            name="id",
            arg_types=(),
            ret_type=T.INT,
            effects=EffectPair.of(read="self.id"),
            impl=lambda interp, recv: getattr(recv, "id"),
            synthesis=synthesis,
        )
    )

    # -- record-level methods --------------------------------------------------

    add(
        MethodSig(
            owner=name,
            name="update!",
            arg_types=(hash_type,),
            ret_type=model_type,
            effects=EffectPair.of(write="self"),
            impl=lambda interp, recv, h: recv.update(**_kwargs(h)),
            comp_type=_columns_hash_comp,
            synthesis=synthesis,
        )
    )
    # ActiveRecord's increment!/decrement! take the column as a symbol; the
    # comp type narrows the symbol argument to the model's numeric columns so
    # the synthesizer enumerates ``record.decrement!(:count)`` directly.
    int_columns = [
        col for col, col_type in model_cls.schema.items() if col_type == T.INT
    ]
    if int_columns:
        column_symbols = T.union(*[T.SymbolType(c) for c in int_columns])
        add(
            MethodSig(
                owner=name,
                name="increment!",
                arg_types=(column_symbols,),
                ret_type=model_type,
                effects=EffectPair.of(write="self"),
                impl=lambda interp, recv, col: recv.increment(_column_name(col)),
                synthesis=synthesis,
            )
        )
        add(
            MethodSig(
                owner=name,
                name="decrement!",
                arg_types=(column_symbols,),
                ret_type=model_type,
                effects=EffectPair.of(write="self"),
                impl=lambda interp, recv, col: recv.decrement(_column_name(col)),
                synthesis=synthesis,
            )
        )

    add(
        MethodSig(
            owner=name,
            name="reload",
            arg_types=(),
            ret_type=model_type,
            effects=EffectPair.of(read="self"),
            impl=lambda interp, recv: recv.reload(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=name,
            name="destroy",
            arg_types=(),
            ret_type=model_type,
            effects=EffectPair.of(write="self"),
            impl=lambda interp, recv: recv.destroy(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=name,
            name="save",
            arg_types=(),
            ret_type=T.BOOL,
            effects=EffectPair.of(write="self"),
            impl=lambda interp, recv: recv.save(),
            # ``save`` is callable from specs but excluded from the search
            # pool: it returns ``true`` without observably changing state,
            # which makes it a degenerate filler for Boolean-typed holes.
            synthesis=False,
        )
    )

    # -- class-level query methods ----------------------------------------------

    if include_class_queries:
        add(
            MethodSig(
                owner=name,
                name="create",
                arg_types=(hash_type,),
                ret_type=model_type,
                effects=EffectPair.of(write="self"),
                singleton=True,
                impl=lambda interp, recv, h: recv.create(**_kwargs(h)),
                comp_type=_columns_hash_comp_no_id,
                synthesis=synthesis,
            )
        )
        add(
            MethodSig(
                owner=name,
                name="where",
                arg_types=(hash_type,),
                ret_type=relation_type,
                effects=EffectPair.of(read="self"),
                singleton=True,
                impl=lambda interp, recv, h: recv.where(**_kwargs(h)),
                comp_type=_columns_hash_comp,
                synthesis=synthesis,
            )
        )
        add(
            MethodSig(
                owner=name,
                name="exists?",
                arg_types=(hash_type,),
                ret_type=T.BOOL,
                effects=EffectPair.of(read="self"),
                singleton=True,
                impl=lambda interp, recv, h: recv.exists(**_kwargs(h)),
                comp_type=_columns_hash_comp,
                synthesis=synthesis,
            )
        )
        add(
            MethodSig(
                owner=name,
                name="find_by",
                arg_types=(hash_type,),
                ret_type=model_type,
                effects=EffectPair.of(read="self"),
                singleton=True,
                impl=lambda interp, recv, h: recv.find_by(**_kwargs(h)),
                comp_type=_columns_hash_comp,
                synthesis=synthesis,
            )
        )
        add(
            MethodSig(
                owner=name,
                name="first",
                arg_types=(),
                ret_type=model_type,
                effects=EffectPair.of(read="self"),
                singleton=True,
                impl=lambda interp, recv: recv.first(),
                synthesis=synthesis,
            )
        )
        add(
            MethodSig(
                owner=name,
                name="count",
                arg_types=(),
                ret_type=T.INT,
                effects=EffectPair.of(read="self"),
                singleton=True,
                impl=lambda interp, recv: recv.count(),
                synthesis=synthesis,
            )
        )

    # -- relation methods ----------------------------------------------------------

    rel_effects_read = EffectPair(read=Effect.region(name))
    add(
        MethodSig(
            owner=relation_name,
            name="first",
            arg_types=(),
            ret_type=model_type,
            effects=rel_effects_read,
            impl=lambda interp, recv: recv.first(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=relation_name,
            name="last",
            arg_types=(),
            ret_type=model_type,
            effects=rel_effects_read,
            impl=lambda interp, recv: recv.last(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=relation_name,
            name="exists?",
            arg_types=(),
            ret_type=T.BOOL,
            effects=rel_effects_read,
            impl=lambda interp, recv: recv.exists(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=relation_name,
            name="count",
            arg_types=(),
            ret_type=T.INT,
            effects=rel_effects_read,
            impl=lambda interp, recv: recv.count(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=relation_name,
            name="empty?",
            arg_types=(),
            ret_type=T.BOOL,
            effects=rel_effects_read,
            impl=lambda interp, recv: recv.empty(),
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=relation_name,
            name="where",
            arg_types=(hash_type,),
            ret_type=relation_type,
            effects=rel_effects_read,
            impl=lambda interp, recv, h: recv.where(**_kwargs(h)),
            comp_type=_columns_hash_comp,
            synthesis=synthesis,
        )
    )
    add(
        MethodSig(
            owner=relation_name,
            name="update_all",
            arg_types=(hash_type,),
            ret_type=T.INT,
            effects=EffectPair(write=Effect.region(name)),
            impl=lambda interp, recv, h: recv.update_all(**_kwargs(h)),
            comp_type=_columns_hash_comp,
            synthesis=synthesis,
        )
    )

    return sigs


def _make_reader(col: str):
    def impl(interp: Any, recv: Model) -> Any:
        return getattr(recv, col)

    return impl


def _make_writer(col: str):
    def impl(interp: Any, recv: Model, value: Any) -> Any:
        return recv.write_column(col, value)

    return impl


def _column_name(value: Any) -> str:
    name = getattr(value, "name", value)
    return str(name)


def _kwargs(hash_value: Any) -> Dict[str, Any]:
    if type(hash_value) is HashValue:
        # Inlined ``to_kwargs`` on the exact-type hot path (every interpreted
        # hash-argument call comes through here).
        return {k.name: v for k, v in hash_value._entries.items()}
    if hash_value is None:
        return {}
    if hasattr(hash_value, "to_kwargs"):
        return hash_value.to_kwargs()
    if isinstance(hash_value, dict):
        return dict(hash_value)
    raise TypeError(f"expected a hash argument, got {hash_value!r}")
