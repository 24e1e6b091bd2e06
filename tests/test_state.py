"""Tests for the state-management subsystem (repro.synth.state) and the
database-layer guarantees it builds on: the ``Table.update`` id-override
fix, the exact snapshot/restore round-trip (rows, ``next_id``, globals),
deep-copied row boundaries, copy-on-write snapshots and restores (with a
differential test of snapshot isolation), recording/replay equivalence
across every registered benchmark app, batched
``evaluate_all_specs``, and invalidation via ``rebind_reset``."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activerecord import database as database_module
from repro.activerecord.database import Database
from repro.apps.blog import build_blog_app, seed_blog
from repro.apps.diaspora import build_diaspora_app, seed_invitations, seed_pods
from repro.apps.discourse import build_discourse_app, seed_users
from repro.apps.gitlab import build_gitlab_app, seed_issues, seed_two_factor_user
from repro.benchmarks import all_benchmarks, get_benchmark, run_benchmark
from repro.lang import ast as A
from repro.lang.values import HashValue, Symbol
from repro.synth import SynthConfig, SynthesisSession, define
from repro.synth.goal import evaluate_all_specs, evaluate_guard, evaluate_spec
from repro.synth.state import StateManager


# ---------------------------------------------------------------------------
# Table.update id-override regression
# ---------------------------------------------------------------------------


def test_update_strips_id_override():
    db = Database()
    row = db.insert("posts", title="a")
    updated = db.update("posts", row["id"], id=99, title="b")
    assert updated["id"] == row["id"]
    assert updated["title"] == "b"


def test_update_id_override_keeps_get_delete_consistent():
    db = Database()
    row = db.insert("posts", title="a")
    db.update("posts", row["id"], id=42)
    # The stored id must still match its key in rows: lookups by the
    # original id hit, lookups by the attempted override miss.
    assert db.get("posts", row["id"])["id"] == row["id"]
    assert db.get("posts", 42) is None
    assert db.delete("posts", row["id"]) is True


# ---------------------------------------------------------------------------
# Snapshot/restore round-trip (next_id, globals, late tables)
# ---------------------------------------------------------------------------


def test_snapshot_restores_next_id():
    db = Database()
    first = db.insert("posts", title="a")
    second = db.insert("posts", title="b")
    db.delete("posts", second["id"])
    snap = db.snapshot()
    db.restore(snap)
    third = db.insert("posts", title="c")
    # Ids handed out before the snapshot are never reused after a restore.
    assert third["id"] == 3
    assert first["id"] == 1 and second["id"] == 2


def test_snapshot_restore_round_trip_is_exact():
    db = Database()
    db.insert("posts", title="a", tags=["x"])
    db.set_global("mode", {"strict": True})
    snap = db.snapshot()
    db.insert("posts", title="b")
    db.insert("comments", body="later table")
    db.set_global("mode", {"strict": False})
    db.restore(snap)
    assert db.snapshot() == snap
    assert db.count("posts") == 1
    # Tables created after the capture are cleared by the restore.
    assert db.count("comments") == 0


def test_snapshot_globals_are_independent():
    db = Database()
    db.set_global("config", {"limit": 1})
    snap = db.snapshot()
    db.get_global("config")["limit"] = 2
    db.restore(snap)
    assert db.get_global("config") == {"limit": 1}


# ---------------------------------------------------------------------------
# Copy-on-write snapshots (globals and table rows shared with the snapshot)
# ---------------------------------------------------------------------------


def test_atomic_globals_are_shared_cow_with_snapshot():
    db = Database()
    db.set_global("mode", "fast")
    snap = db.snapshot()
    # All-atomic globals: the snapshot adopts the live dict by reference...
    assert snap["globals"] is db._globals
    # ...and the next write un-shares it instead of corrupting the snapshot.
    db.set_global("mode", "slow")
    assert snap["globals"] == {"mode": "fast"}
    assert db.get_global("mode") == "slow"


def test_table_rows_are_shared_cow_with_snapshot(monkeypatch):
    db = Database(indexing=True)
    db.bulk_insert("users", ({"username": f"u{i}", "n": i % 7} for i in range(1000)))
    db.query("users", {"username": "u9"})  # builds the username index
    table = db.table("users")
    copies = []
    copy_row = database_module._copy_row

    def counting_copy_row(row):
        copies.append(row["id"])
        return copy_row(row)

    monkeypatch.setattr(database_module, "_copy_row", counting_copy_row)
    snap = db.snapshot()
    rows = snap["tables"]["users"]["rows"]
    # Taking the snapshot copies no row: the snapshot shares the row dicts.
    assert copies == []
    assert all(rows[row_id] is row for row_id, row in table.rows.items())
    # One write copies exactly the written row, leaving the snapshot's intact.
    db.write_one("users", 10, "username", "changed")
    assert copies == [10]
    assert rows[10]["username"] == "u9"
    assert table.rows[10]["username"] == "changed"
    assert all(rows[row_id] is table.rows[row_id] for row_id in rows if row_id != 10)
    # Restoring copies no row either: the table adopts the snapshot's mapping.
    copies.clear()
    db.restore(snap)
    assert copies == []
    assert table.rows is rows
    assert [r["id"] for r in db.query("users", {"username": "u9"})] == [10]


def test_restore_adopts_globals_cow_and_survives_writes():
    db = Database()
    db.set_global("a", 1)
    snap = db.snapshot()
    db.set_global("a", 2)
    db.set_global("b", 3)
    db.restore(snap)
    assert db.get_global("a") == 1 and db.get_global("b") is None
    db.set_global("b", 4)
    db.delete_global("a")
    # The snapshot stays valid across any number of restores.
    db.restore(snap)
    assert db.get_global("a") == 1 and db.get_global("b") is None
    assert snap["globals"] == {"a": 1}


def test_reset_does_not_corrupt_shared_globals_snapshot():
    db = Database()
    db.set_global("a", 1)
    snap = db.snapshot()
    db.reset()
    assert db.get_global("a") is None
    assert snap["globals"] == {"a": 1}
    db.restore(snap)
    assert db.get_global("a") == 1


def test_mutable_global_values_keep_eager_snapshot_copies():
    db = Database()
    db.set_global("tags", ["x"])
    snap = db.snapshot()
    # A mutable value could be mutated in place through get_global, which
    # dict-level sharing cannot see: the legacy eager copy must kick in.
    assert snap["globals"] is not db._globals
    db.get_global("tags").append("y")
    assert snap["globals"]["tags"] == ["x"]


# ---------------------------------------------------------------------------
# Deep-copied row boundaries (no aliasing of nested values)
# ---------------------------------------------------------------------------


def test_insert_does_not_alias_input_values():
    db = Database()
    values = {"title": "a", "tags": ["x"]}
    db.insert("posts", **values)
    values["tags"].append("y")
    assert db.get("posts", 1)["tags"] == ["x"]


def test_returned_rows_do_not_alias_stored_state():
    db = Database()
    db.insert("posts", title="a", tags=["x"])
    db.get("posts", 1)["tags"].append("via-get")
    db.all("posts")[0]["tags"].append("via-all")
    db.select("posts", lambda r: True)[0]["tags"].append("via-select")
    assert db.get("posts", 1)["tags"] == ["x"]


@pytest.mark.parametrize(
    "predicate, selected",
    [
        pytest.param(
            lambda r: r["tags"].append("y") or True,
            {"title": "a", "tags": ["x", "y"], "id": 1},
            id="nested-append",
        ),
        pytest.param(
            lambda r: r.update(id=99) or True,
            {"title": "a", "tags": ["x"], "id": 99},
            id="id-override",
        ),
    ],
)
def test_select_predicate_cannot_mutate_stored_rows(predicate, selected):
    db = Database()
    db.insert("posts", title="a", tags=["x"])
    snap = db.snapshot()
    # The predicate sees, and may change, the copy that select returns.
    assert db.select("posts", predicate) == [selected]
    stored = {"title": "a", "tags": ["x"], "id": 1}
    assert db.get("posts", 1) == stored and db.get("posts", 99) is None
    db.restore(snap)
    assert db.get("posts", 1) == stored
    assert snap["tables"]["posts"]["rows"] == {1: stored}


def test_update_values_are_deep_copied():
    db = Database()
    db.insert("posts", title="a", tags=[])
    tags = ["x"]
    db.update("posts", 1, tags=tags)
    tags.append("y")
    assert db.get("posts", 1)["tags"] == ["x"]


def test_cow_update_does_not_corrupt_snapshot():
    db = Database()
    db.insert("posts", title="a")
    db.insert("posts", title="b")
    snap = db.snapshot()
    db.restore(snap)
    db.update("posts", 1, title="mutated")
    assert db.get("posts", 1)["title"] == "mutated"
    db.restore(snap)
    assert db.get("posts", 1)["title"] == "a"
    assert db.get("posts", 2)["title"] == "b"


def test_symbols_survive_deepcopy_interned():
    value = HashValue.of(title="Foo", author="bar")
    clone = copy.deepcopy(value)
    assert clone == value
    assert next(iter(clone)) is Symbol("title")


# ---------------------------------------------------------------------------
# Differential: snapshots stay isolated from every later write
# ---------------------------------------------------------------------------

_TABLES = ("posts", "late")  # "late" is first written after some snapshot
_ROW_IDS = st.integers(1, 6)
_CELLS = {
    "a": st.integers(0, 2),
    "b": st.sampled_from(["x", "y", None]),
    "tags": st.lists(st.integers(0, 1), max_size=2),
}
_TABLE = st.sampled_from(_TABLES)
_VALUES = st.fixed_dictionaries({}, optional=_CELLS)
_CONDITIONS = st.fixed_dictionaries({}, optional={"a": _CELLS["a"], "b": _CELLS["b"]})
_OPS = st.one_of(
    st.tuples(st.just("insert"), _TABLE, _VALUES),
    st.tuples(st.just("bulk_insert"), _TABLE, st.lists(_VALUES, max_size=3)),
    st.tuples(
        st.just("update"),
        _TABLE,
        _ROW_IDS,
        st.fixed_dictionaries({}, optional={**_CELLS, "id": _ROW_IDS}),
    ),
    st.tuples(st.just("write"), _TABLE, _ROW_IDS, _VALUES),
    st.sampled_from([*_CELLS, "id"]).flatmap(
        lambda column: st.tuples(
            st.just("write_one"),
            _TABLE,
            _ROW_IDS,
            st.just(column),
            _CELLS.get(column, _ROW_IDS),
        )
    ),
    st.tuples(st.just("update_where"), _TABLE, _CONDITIONS, _VALUES),
    st.tuples(st.just("delete"), _TABLE, _ROW_IDS),
    st.tuples(st.just("delete_where"), _TABLE, _CONDITIONS),
    st.just(("reset",)),
    st.tuples(
        st.just("set_global"),
        st.sampled_from(["mode", "tags"]),
        st.one_of(_CELLS["a"], _CELLS["tags"]),
    ),
    st.just(("snapshot",)),
    st.tuples(st.just("restore"), st.integers(0, 50)),
)
_SEED = (
    "bulk_insert",
    "posts",
    [{"a": 0, "b": "x", "tags": [0]}, {"a": 1}, {"b": "y"}],
)
_PROBES = [
    dict(conditions={}),
    dict(conditions={"a": 0}),
    dict(conditions={"a": 2}),
    dict(conditions={"b": "x"}),
    dict(conditions={"b": None}),
    dict(conditions={"a": 1, "b": "y"}),
    dict(conditions={"tags": [0]}),
    dict(conditions={"b": "x"}, order="a", descending=True, limit=2),
]


def _apply(db, op):
    kind, *args = copy.deepcopy(op)
    if kind == "insert":
        db.insert(args[0], **args[1])
    elif kind == "update":
        db.update(args[0], args[1], **args[2])
    else:
        getattr(db, kind)(*args)


def _apply_to_model(model, op):
    """``op`` applied to a plain-dict model of the logical database state."""

    kind, *args = copy.deepcopy(op)
    if kind == "reset":
        model["tables"], model["globals"] = {}, {}
        return
    if kind == "set_global":
        model["globals"][args[0]] = args[1]
        return
    table = model["tables"].setdefault(args[0], {"rows": {}, "next_id": 1})
    rows = table["rows"]

    def insert(values):
        rows[table["next_id"]] = {**values, "id": table["next_id"]}
        table["next_id"] += 1

    def update(row_id, values):
        # Ids are storage keys, never written; a write whose every value
        # already reads back equal (a missing column reads as None) is
        # skipped whole.
        row = rows.get(row_id)
        changes = {k: v for k, v in values.items() if k != "id"}
        if row is not None and any(row.get(k) != v for k, v in changes.items()):
            row.update(changes)

    def matching(conditions):
        return [
            row_id
            for row_id, row in rows.items()
            if all(row.get(c) == v for c, v in conditions.items())
        ]

    if kind == "insert":
        insert(args[1])
    elif kind == "bulk_insert":
        for values in args[1]:
            insert(values)
    elif kind in ("update", "write"):
        update(args[1], args[2])
    elif kind == "write_one":
        update(args[1], {args[2]: args[3]})
    elif kind == "update_where":
        for row_id in matching(args[1]):
            update(row_id, args[2])
    elif kind == "delete":
        rows.pop(args[1], None)
    elif kind == "delete_where":
        for row_id in matching(args[1]):
            del rows[row_id]


def _logical(model):
    """A deep copy of the model, shaped like ``Database.snapshot()``."""

    return copy.deepcopy(
        {
            "tables": {
                name: table
                for name, table in model["tables"].items()
                if table["rows"] or table["next_id"] != 1
            },
            "globals": model["globals"],
        }
    )


@given(st.lists(st.lists(_OPS, min_size=1, max_size=4), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_snapshots_stay_isolated_from_every_write(steps):
    # An indexed database, its scan-only twin and a plain-dict model run the
    # same operations; every snapshot ever taken keeps a deep-copied
    # reference of the logical state it captured.  The checks after each
    # step take a snapshot too, so a step groups up to four operations:
    # writes must also stay isolated when no snapshot separates them.
    db, twin = Database(indexing=True), Database(indexing=False)
    model = {"tables": {}, "globals": {}}
    for target in (db, twin):
        _apply(target, _SEED)
    _apply_to_model(model, _SEED)
    snaps = []  # (db snapshot, twin snapshot, reference)
    for step in steps:
        for op in step:
            if op[0] == "snapshot":
                snaps.append((db.snapshot(), twin.snapshot(), _logical(model)))
            elif op[0] == "restore":
                if snaps:
                    snap, twin_snap, reference = snaps[op[1] % len(snaps)]
                    db.restore(snap)
                    twin.restore(twin_snap)
                    model = copy.deepcopy(reference)
            else:
                _apply(db, op)
                _apply(twin, op)
                _apply_to_model(model, op)
        for snap, twin_snap, reference in snaps:
            assert snap == reference and twin_snap == reference
        reference = _logical(model)
        now, twin_now = db.snapshot(), twin.snapshot()
        assert now == reference and twin_now == reference
        snaps.append((now, twin_now, reference))
        for name in _TABLES:
            for probe in _PROBES:
                assert db.query(name, **probe) == twin.query(name, **probe)
                assert db.count(name, probe["conditions"]) == twin.count(
                    name, probe["conditions"]
                )


# ---------------------------------------------------------------------------
# Snapshot/restore equivalence vs. reset-closure replay, per app substrate
# ---------------------------------------------------------------------------


_APP_SEEDS = [
    pytest.param(build_blog_app, seed_blog, id="blog"),
    pytest.param(build_gitlab_app, seed_issues, id="gitlab-issues"),
    pytest.param(build_gitlab_app, seed_two_factor_user, id="gitlab-2fa"),
    pytest.param(build_discourse_app, seed_users, id="discourse"),
    pytest.param(build_diaspora_app, seed_pods, id="diaspora-pods"),
    pytest.param(build_diaspora_app, seed_invitations, id="diaspora-invites"),
]


@pytest.mark.parametrize("builder, seeder", _APP_SEEDS)
def test_snapshot_restore_matches_reset_replay(builder, seeder):
    app = builder()
    seeder(app)
    seeded = app.database.snapshot()

    # Mutate: the restore must erase inserts, updates, deletes and globals.
    model = next(iter(app.models.values()))
    rows = app.database.all(model.table_name)
    if rows:
        app.database.update(model.table_name, rows[0]["id"], **{})
        app.database.delete(model.table_name, rows[-1]["id"])
    app.database.insert(model.table_name)
    app.database.set_global("dirty", True)

    app.database.restore(seeded)
    assert app.database.snapshot() == seeded

    # Equivalence with the reset-closure replay the snapshot replaces.
    app.reset()
    seeder(app)
    assert app.database.snapshot() == seeded


# ---------------------------------------------------------------------------
# StateManager recording and replay
# ---------------------------------------------------------------------------


def _blog_problem(**spec_kwargs):
    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "find_user",
        "(Str) -> User",
        consts=[True, False, User],
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )

    def setup(ctx):
        seed_blog(app)
        ctx.invoke("carol")

    def postcond(ctx, result):
        ctx.assert_(lambda: result.username == "carol")

    problem.add_spec("finds carol", setup, postcond)
    problem.app = app  # type: ignore[attr-defined]
    return problem


def _find_user_program(problem):
    """User.where(username: arg0).first as a lambda-syn method body."""

    body = A.call(
        A.call(A.ConstRef("User"), "where", A.hash_lit(username=A.Var("arg0"))),
        "first",
    )
    return problem.make_program(body)


def test_state_manager_requires_database():
    app = build_blog_app()
    problem = define("f", "(Str) -> Str", class_table=app.class_table, reset=app.reset)
    assert problem.database is None
    assert problem.state_manager() is None


def test_registry_problems_expose_state_manager():
    for benchmark in all_benchmarks():
        problem = benchmark.build()
        assert problem.database is not None, benchmark.id
        manager = problem.state_manager()
        assert isinstance(manager, StateManager)
        # One manager per problem, shared across calls.
        assert problem.state_manager() is manager


def test_record_then_replay_matches_legacy_outcomes():
    problem = _blog_problem()
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    recorded = evaluate_spec(problem, program, spec, state=state)
    replayed = evaluate_spec(problem, program, spec, state=state)
    legacy = evaluate_spec(problem, program, spec)

    for outcome in (recorded, replayed):
        assert outcome.ok is legacy.ok is True
        assert outcome.passed_asserts == legacy.passed_asserts
    assert state.counters["state.rebuilds"] == 1
    assert state.counters["state.restores"] == 1
    assert state.counters["state.unreplayable"] == 0


def test_replay_restores_database_between_failing_candidates():
    problem = _blog_problem()
    state = problem.state_manager()
    spec = problem.specs[0]
    good = _find_user_program(problem)
    # A failing candidate that pollutes the database: User.create(name: ...)
    # inserts a row whose username is nil, so the postcondition rejects it.
    bad = problem.make_program(
        A.call(A.ConstRef("User"), "create", A.hash_lit(name=A.Var("arg0")))
    )

    assert evaluate_spec(problem, good, spec, state=state).ok
    assert not evaluate_spec(problem, bad, spec, state=state).ok
    # The pollution from the failing candidate must not leak into the next.
    assert evaluate_spec(problem, good, spec, state=state).ok
    app = problem.app  # type: ignore[attr-defined]
    assert app.models["User"].count(username="carol") == 1


def test_postcondition_writes_never_reach_the_next_evaluation():
    """Every replay restores the spec's snapshot, so a write made by one
    evaluation's postcondition is invisible to the next evaluation of the
    same spec, whatever the candidate's static footprint."""

    def counts_seen(**overrides):
        app = build_blog_app()
        User = app.models["User"]
        problem = define(
            "find_user",
            "(Str) -> User",
            consts=[True, False, User],
            class_table=app.class_table,
            reset=app.reset,
            database=app.database,
        )
        counts = []

        def setup(ctx):
            seed_blog(app)
            ctx.invoke("carol")

        def postcond(ctx, result):
            counts.append(app.database.count("users"))
            User.create(name="Extra", username="extra")
            ctx.assert_(lambda: result.username == "carol")

        problem.add_spec("finds carol", setup, postcond)
        with SynthesisSession(SynthConfig(timeout_s=30, **overrides)) as session:
            assert session.run(problem).success
        return counts

    rebuilt = counts_seen(snapshot_state=False)
    assert len(rebuilt) > 2 and len(set(rebuilt)) > 1
    assert counts_seen(static_pruning=False) == rebuilt
    assert counts_seen() == rebuilt


@pytest.mark.parametrize("bench_spec", all_benchmarks(), ids=lambda b: b.id)
def test_registry_spec_replay_equivalence(bench_spec):
    """Recording, replay and legacy evaluation agree on every registry spec.

    The trivial ``nil`` body exercises setup+postcond without synthesis;
    outcomes (ok, passed assertions, failure/error classification) must be
    identical whether state is rebuilt or restored from a snapshot.
    """

    problem = bench_spec.build()
    state = problem.state_manager()
    program = problem.make_program(A.NIL)
    for spec in problem.specs:
        recorded = evaluate_spec(problem, program, spec, state=state)
        replayed = evaluate_spec(problem, program, spec, state=state)
        legacy = evaluate_spec(problem, program, spec)
        for outcome in (recorded, replayed):
            assert outcome.ok == legacy.ok
            assert outcome.passed_asserts == legacy.passed_asserts
            assert (outcome.failure is None) == (legacy.failure is None)
            assert type(outcome.error) is type(legacy.error)


def test_state_write_after_invoke_is_unreplayable():
    problem = _blog_problem()

    def setup(ctx):
        seed_blog(problem.app)
        ctx.invoke("carol")
        ctx["after"] = "depends-on-candidate"

    def postcond(ctx, result):
        ctx.assert_(lambda: ctx["after"] == "depends-on-candidate")

    problem.specs.clear()
    problem.add_spec("writes state after invoke", setup, postcond)
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    first = evaluate_spec(problem, program, spec, state=state)
    second = evaluate_spec(problem, program, spec, state=state)
    assert first.ok and second.ok
    assert state.counters["state.unreplayable"] == 1
    assert state.counters["state.restores"] == 0
    assert state.counters["state.rebuilds"] == 2


def test_database_write_after_invoke_is_unreplayable():
    problem = _blog_problem()
    app = problem.app  # type: ignore[attr-defined]

    def setup(ctx):
        seed_blog(app)
        ctx.invoke("carol")
        app.models["User"].create(name="Late", username="late")

    def postcond(ctx, result):
        ctx.assert_(lambda: app.models["User"].exists(username="late"))

    problem.specs.clear()
    problem.add_spec("seeds after invoke", setup, postcond)
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    first = evaluate_spec(problem, program, spec, state=state)
    second = evaluate_spec(problem, program, spec, state=state)
    # Replay would skip the post-invoke insert; the fallback must not.
    assert first.ok and second.ok
    assert state.counters["state.unreplayable"] == 1
    assert state.counters["state.restores"] == 0


def test_double_invoke_is_unreplayable():
    problem = _blog_problem()
    app = problem.app  # type: ignore[attr-defined]

    def setup(ctx):
        seed_blog(app)
        ctx.invoke("carol")
        ctx.invoke("dummy")

    def postcond(ctx, result):
        ctx.assert_(lambda: result.username == "dummy")

    problem.specs.clear()
    problem.add_spec("invokes twice", setup, postcond)
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    assert evaluate_spec(problem, program, spec, state=state).ok
    assert evaluate_spec(problem, program, spec, state=state).ok
    assert state.counters["state.unreplayable"] == 1


def test_post_invoke_inplace_state_mutation_is_unreplayable():
    problem = _blog_problem()
    app = problem.app  # type: ignore[attr-defined]

    def setup(ctx):
        seed_blog(app)
        ctx["log"] = []
        ctx.invoke("carol")
        # In-place mutation, invisible to __setitem__: replay would hand the
        # postcondition the empty pre-invoke list.
        ctx["log"].append(ctx.result)

    def postcond(ctx, result):
        ctx.assert_(lambda: len(ctx["log"]) == 1)

    problem.specs.clear()
    problem.add_spec("mutates state in place after invoke", setup, postcond)
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    first = evaluate_spec(problem, program, spec, state=state)
    second = evaluate_spec(problem, program, spec, state=state)
    assert first.ok and second.ok
    assert state.counters["state.unreplayable"] == 1
    assert state.counters["state.restores"] == 0


def test_replay_preserves_identity_between_state_and_invoke_args():
    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "touch_user",
        "(User) -> User",
        consts=[User],
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )

    def setup(ctx):
        seed_blog(app)
        user = User.find_by(username="carol")
        ctx["user"] = user
        ctx.invoke(user)

    def postcond(ctx, result):
        # Holds only if the replayed ctx["user"] IS the invoke argument,
        # as in a real setup run (the candidate mutates the shared object).
        ctx.assert_(lambda: ctx["user"].name == "Touched")

    problem.add_spec("mutation via shared arg", setup, postcond)
    state = problem.state_manager()
    # arg0.name = "Touched"; returns the user.
    program = problem.make_program(
        A.call(A.Var("arg0"), "name=", A.StrLit("Touched"))
    )

    recorded = evaluate_spec(problem, program, spec := problem.specs[0], state=state)
    replayed = evaluate_spec(problem, program, spec, state=state)
    assert recorded.ok == replayed.ok
    assert state.counters["state.restores"] == 1


@pytest.mark.parametrize("held_in_state", [False, True], ids=["arg", "state-model"])
def test_mutating_candidate_cannot_poison_the_next_replay(held_in_state):
    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "user_name",
        "(User) -> Str",
        consts=[User],
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )

    def setup(ctx):
        seed_blog(app)
        user = User.find_by(username="carol")
        if held_in_state:
            ctx["user"] = user
        ctx.invoke(user)

    def postcond(ctx, result):
        seen = ctx["user"].name if held_in_state else result
        ctx.assert_(lambda: seen == "Carol")

    problem.add_spec("reads carol's name", setup, postcond)
    state = problem.state_manager()
    spec = problem.specs[0]
    reader = problem.make_program(A.call(A.Var("arg0"), "name"))
    toucher = problem.make_program(A.call(A.Var("arg0"), "name=", A.StrLit("Touched")))

    assert evaluate_spec(problem, reader, spec, state=state).ok  # records
    assert not evaluate_spec(problem, toucher, spec, state=state).ok
    # The toucher renamed its copy of the model, never the recording's.
    assert evaluate_spec(problem, reader, spec, state=state).ok
    assert state.counters["state.restores"] == 2


@dataclass
class _Box:
    """A value the copy plan leaves to ``copy.deepcopy``."""

    items: list


@pytest.mark.parametrize(
    "make_shared", [lambda: _Box([1]), lambda: [1]], ids=["fallback", "list"]
)
def test_replay_copies_state_and_args_through_one_memo(make_shared):
    app = build_blog_app()
    problem = define(
        "echo",
        "(Str) -> Str",
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )

    def setup(ctx):
        shared = make_shared()
        ctx["shared"] = shared
        ctx.invoke(shared)

    def postcond(ctx, result):
        ctx.assert_(lambda: result is ctx["shared"])

    problem.add_spec("echoes the stashed object", setup, postcond)
    state = problem.state_manager()
    program = problem.make_program(A.Var("arg0"))
    spec = problem.specs[0]

    assert evaluate_spec(problem, program, spec, state=state).ok
    assert evaluate_spec(problem, program, spec, state=state).ok
    assert state.counters["state.restores"] == 1
    recording = state.recording_for(spec)
    copied_state, copied_args = recording.plan()
    assert copied_state["shared"] is copied_args[0]
    assert copied_args[0] == recording.args[0]
    assert copied_args[0] is not recording.args[0]


def test_replay_of_a_cyclic_recording_keeps_the_cycle():
    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "echo_user",
        "(User) -> User",
        consts=[User],
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )

    def setup(ctx):
        seed_blog(app)
        user = User.find_by(username="carol")
        # Models compare by name and id alone, so this recording is
        # replayable although it holds a cycle.
        vars(user)["_attributes"]["friends"] = [user]
        ctx["user"] = user
        ctx.invoke(user)

    def postcond(ctx, result):
        user = ctx["user"]
        ctx.assert_(
            lambda: result is user and vars(user)["_attributes"]["friends"][0] is user
        )

    problem.add_spec("echoes a self-referencing user", setup, postcond)
    state = problem.state_manager()
    program = problem.make_program(A.Var("arg0"))
    spec = problem.specs[0]

    assert evaluate_spec(problem, program, spec, state=state).ok
    assert evaluate_spec(problem, program, spec, state=state).ok
    assert state.counters["state.restores"] == 1
    recording = state.recording_for(spec)
    copied_state, copied_args = recording.plan()
    user = copied_state["user"]
    assert user is copied_args[0] and user is not recording.state["user"]
    assert vars(user)["_attributes"]["friends"][0] is user


def test_recording_too_deep_to_plan_is_unreplayable(monkeypatch):
    import repro.synth.state as state_module

    def too_deep(state, args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(state_module, "copy_plan", too_deep)
    problem = _blog_problem()
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    # Not a candidate failure: the spec just rebuilds from its setup.
    assert evaluate_spec(problem, program, spec, state=state).ok
    assert evaluate_spec(problem, program, spec, state=state).ok
    assert state.counters["state.unreplayable"] == 1
    assert state.counters["state.restores"] == 0


def test_broken_reset_closure_propagates_as_infrastructure_error():
    problem = _blog_problem()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    def broken_reset():
        raise RuntimeError("reset infrastructure down")

    problem.rebind_reset(broken_reset)
    # Legacy path: the reset crash must reach the caller, not become a
    # candidate failure.
    with pytest.raises(RuntimeError, match="infrastructure down"):
        evaluate_spec(problem, program, spec)
    # State path: the baseline capture replays the reset closure.
    with pytest.raises(RuntimeError, match="infrastructure down"):
        evaluate_spec(problem, program, spec, state=problem.state_manager())


@pytest.mark.parametrize("kind", ["spec", "guard"])
def test_failing_finalize_propagates_and_is_not_memoized(monkeypatch, kind):
    def broken_finalize(self, spec, ctx, recorder):
        raise RuntimeError("finalize infrastructure down")

    monkeypatch.setattr(StateManager, "_finalize", broken_finalize)
    problem = get_benchmark("S4").build()
    state = problem.state_manager()
    spec = problem.specs[0]

    def evaluate():
        if kind == "spec":
            evaluate_spec(problem, problem.make_program(A.Var("arg0")), spec,
                          state=state)
        else:
            evaluate_guard(problem, A.BoolLit(True), spec, expect=True,
                           state=state)

    # The recording pass runs under the candidate-crash handler; a failure
    # of the state manager's own must still reach the caller, and nothing
    # keeps it: the next evaluation records again and fails again.
    for _ in range(2):
        with pytest.raises(RuntimeError) as raised:
            evaluate()
        assert "finalize infrastructure down" in str(raised.value.__cause__)
    assert state.recording_for(spec) is None
    assert not state.is_unreplayable(spec)


def test_crashing_setup_leaves_no_recording():
    problem = _blog_problem()
    state = problem.state_manager()
    spec = problem.specs[0]
    # arg0.username crashes inside invoke (Str has no username method).
    crashing = problem.make_program(A.call(A.Var("arg0"), "username"))

    outcome = evaluate_spec(problem, crashing, spec, state=state)
    assert not outcome.ok
    assert state.recording_for(spec) is None
    # A later well-behaved candidate records the spec as usual.
    assert evaluate_spec(problem, _find_user_program(problem), spec, state=state).ok
    assert state.recording_for(spec) is not None


def test_rebind_reset_invalidates_recordings_and_baseline():
    problem = _blog_problem()
    app = problem.app  # type: ignore[attr-defined]
    state = problem.state_manager()
    program = _find_user_program(problem)
    spec = problem.specs[0]

    assert evaluate_spec(problem, program, spec, state=state).ok
    assert state.recording_for(spec) is not None

    def new_reset():
        app.database.reset()
        app.models["User"].create(name="Pre", username="pre")

    problem.rebind_reset(new_reset)
    assert state.recording_for(spec) is None
    assert state.counters["state.invalidations"] == 1
    # The new baseline (with the pre-seeded user) is observed on re-record.
    outcome = evaluate_spec(problem, program, spec, state=state)
    assert outcome.ok
    assert app.models["User"].exists(username="pre")


def test_evaluate_all_specs_batched_equivalence():
    benchmark = get_benchmark("S4")
    problem = benchmark.build()
    state = problem.state_manager()
    # User.exists?(username: arg0) passes both S4 specs.
    program = problem.make_program(
        A.call(A.ConstRef("User"), "exists?", A.hash_lit(username=A.Var("arg0")))
    )
    assert evaluate_all_specs(problem, program, state=state) is True
    assert evaluate_all_specs(problem, program, state=state) is True
    legacy_problem = benchmark.build()
    assert evaluate_all_specs(legacy_problem, legacy_problem.make_program(
        A.call(A.ConstRef("User"), "exists?", A.hash_lit(username=A.Var("arg0")))
    )) is True
    failing = problem.make_program(A.TRUE)
    assert evaluate_all_specs(problem, failing, state=state) is False


# ---------------------------------------------------------------------------
# End-to-end: snapshots must not change synthesis results
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("benchmark_id", ["S1", "S4", "S5"])
def test_synthesis_identical_with_and_without_snapshots(benchmark_id):
    benchmark = get_benchmark(benchmark_id)
    results = {}
    for snapshots in (False, True):
        config = benchmark.make_config(
            SynthConfig.full(timeout_s=60.0, snapshot_state=snapshots)
        )
        with SynthesisSession(config) as session:
            results[snapshots] = session.run(benchmark.build())
    assert results[False].success and results[True].success
    assert results[False].program == results[True].program
    with_snapshots, without = results[True].counters, results[False].counters
    assert with_snapshots["state.restores"] > 0
    # The reset closure ran once (baseline capture) instead of per candidate.
    assert with_snapshots["search.reset_replays"] == 1
    assert without["search.reset_replays"] >= 2 * with_snapshots["search.reset_replays"]
    # No snapshot manager, so no state counters at all.
    assert "state" not in results[False].metrics["stats"]


def test_warm_runner_shares_state_across_runs():
    benchmark = get_benchmark("S1")
    config = SynthConfig.full(timeout_s=60.0)
    warm = run_benchmark(benchmark, config, runs=2)
    assert warm.success
    # Run 2 replays the shared snapshot baseline and recordings: the reset
    # closure ran only for run 1's baseline capture.
    assert warm.counters["search.reset_replays"] == 1
    cold = run_benchmark(benchmark, config, runs=2, warm_state=False)
    assert cold.success
    assert cold.counters["search.reset_replays"] == 2


# ---------------------------------------------------------------------------
# verify_recordings: the opt-in determinism audit
# ---------------------------------------------------------------------------


def test_verify_recordings_passes_on_deterministic_setup():
    problem = _blog_problem()
    state = problem.state_manager()
    state.verify_every = 1  # audit every would-be replay
    program = _find_user_program(problem)
    spec = problem.specs[0]

    recorded = evaluate_spec(problem, program, spec, state=state)
    verified = evaluate_spec(problem, program, spec, state=state)
    assert recorded.ok and verified.ok
    assert state.counters["state.verifications"] == 1
    # The verification pass is a full rebuild, not a restore.
    assert state.counters["state.restores"] == 0
    assert state.counters["state.rebuilds"] == 2


def test_verify_recordings_interval_mixes_replays_and_audits():
    problem = _blog_problem()
    state = problem.state_manager()
    state.verify_every = 2  # every second replay is audited
    program = _find_user_program(problem)
    spec = problem.specs[0]

    for _ in range(5):  # 1 recording + 4 replay slots
        assert evaluate_spec(problem, program, spec, state=state).ok
    assert state.counters["state.verifications"] == 2
    assert state.counters["state.restores"] == 2


def test_verify_recordings_catches_nondeterministic_setup():
    from repro.synth.state import NondeterministicSetupError

    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "find_user",
        "(Str) -> User",
        consts=[User],
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )
    calls = {"n": 0}

    def setup(ctx):
        # Violates the determinism contract: each pass seeds a different row.
        calls["n"] += 1
        User.create(name="N", username=f"user{calls['n']}")
        ctx.invoke(f"user{calls['n']}")

    def postcond(ctx, result):
        ctx.assert_(lambda: result is not None)

    problem.add_spec("nondeterministic seed", setup, postcond)
    state = problem.state_manager()
    state.verify_every = 1
    program = _find_user_program(problem)
    spec = problem.specs[0]

    assert evaluate_spec(problem, program, spec, state=state).ok  # records
    with pytest.raises(NondeterministicSetupError):
        evaluate_spec(problem, program, spec, state=state)  # audits


def test_verify_recordings_threaded_from_config():
    from repro.synth.session import SynthesisSession

    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        result = session.run("S1", verify_recordings=2)
        assert result.success
        manager = session.problem_for("S1").state_manager()
        assert manager.verify_every == 2
        assert manager.counters["state.verifications"] > 0
