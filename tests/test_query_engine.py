"""Tests for the indexed query engine: secondary indexes, the planner,
snapshot copy-on-write interaction, Relation pushdown and the scale tier.

The load-bearing property everywhere is *observational equivalence*: a
database with indexing enabled must be byte-identical in results and effect
logs to one that only scans -- the planner is an execution strategy, never a
semantics change.
"""

from __future__ import annotations

import os

import pytest

from repro.activerecord import (
    Database,
    TableSnapshot,
    create_model,
    default_indexing,
    set_default_indexing,
)
from repro.interp.effect_log import effect_capture
from repro.benchmarks import all_benchmarks, get_benchmark, run_benchmark
from repro.benchmarks.scale import (
    build_scale_find_user,
    build_scale_user_exists,
    scale_user_rows,
    seed_scale_users,
)
from repro.synth.config import SynthConfig
from repro.synth.goal import evaluate_spec
from repro.synth.session import SynthesisSession

#: Row count for the (fast) scale-tier synthesis tests; crank up with the
#: environment variable for an explicit slow run at production size.
_SCALE_TEST_ROWS = int(os.environ.get("REPRO_SCALE_TEST_ROWS", "2000"))


def _seed(db: Database) -> None:
    db.insert("posts", author="alice", title="a", score=3)
    db.insert("posts", author="bob", title="b", score=1)
    db.insert("posts", author="alice", title="c", score=2)
    db.insert("posts", author="carol", title="d", score=None)
    db.insert("posts", author="bob", title="e", score=2)


def _pair() -> tuple:
    """Identically seeded databases, one indexing and one scan-only."""

    indexed, scan = Database(indexing=True), Database(indexing=False)
    _seed(indexed)
    _seed(scan)
    return indexed, scan


# ---------------------------------------------------------------------------
# Differential: indexed results must equal scan results
# ---------------------------------------------------------------------------

_BATTERY = [
    dict(conditions={"author": "alice"}),
    dict(conditions={"author": "alice", "score": 2}),
    dict(conditions={"author": "nobody"}),
    dict(conditions={"score": None}),
    dict(conditions={"score": 2}, order="title", descending=True),
    dict(conditions={"author": "bob"}, order="score"),
    dict(conditions={"author": "alice"}, limit=1),
    dict(conditions={"author": "bob"}, order="score", limit=1),
    dict(conditions={"author": "alice"}, limit=0),
    dict(conditions={"author": "alice"}, limit=-1),
    dict(conditions={}),
    dict(conditions={"id": 3}),
    dict(conditions={"id": 3, "author": "alice"}),
    dict(conditions={"id": 99}),
]


@pytest.mark.parametrize("shape", _BATTERY, ids=lambda s: repr(s)[:50])
def test_indexed_query_equals_scan(shape):
    indexed, scan = _pair()
    assert indexed.query("posts", **shape) == scan.query("posts", **shape)
    assert indexed.match_ids("posts", **shape) == scan.match_ids("posts", **shape)


def test_indexed_count_exists_pluck_equal_scan():
    indexed, scan = _pair()
    for conditions in ({"author": "alice"}, {"author": "nobody"}, None, {"score": 2}):
        assert indexed.count("posts", conditions) == scan.count("posts", conditions)
        assert indexed.exists("posts", conditions) == scan.exists("posts", conditions)
    assert indexed.pluck("posts", "title", {"author": "bob"}) == scan.pluck(
        "posts", "title", {"author": "bob"}
    )


def test_cross_type_keys_match_scan_semantics():
    # 1 == 1.0 == True share a dict bucket, exactly like ``==`` in a scan.
    indexed, scan = _pair()
    for db in (indexed, scan):
        db.insert("vals", v=1)
        db.insert("vals", v=1.0)
        db.insert("vals", v=True)
        db.insert("vals", v=2)
        db.insert("vals", v=False)
        db.insert("vals", v=0)
    for probe in (1, 1.0, True, 0, False, 2):
        assert indexed.query("vals", {"v": probe}) == scan.query("vals", {"v": probe})


def test_nan_conditions_take_the_scan_path():
    # NaN identity-matches as a dict key but ==-misses in a scan; the planner
    # must not let the index change that.
    indexed, scan = _pair()
    nan = float("nan")
    for db in (indexed, scan):
        db.insert("vals", v=nan)
        db.insert("vals", v=1.0)
    assert indexed.query("vals", {"v": nan}) == scan.query("vals", {"v": nan}) == []
    assert indexed.explain("vals", {"v": nan}).kind == "scan"


def test_unhashable_values_mark_column_unindexable():
    indexed, scan = _pair()
    for db in (indexed, scan):
        db.insert("vals", v=[1, 2])
        db.insert("vals", v=[3])
        db.insert("vals", v="x")
    for probe in ([1, 2], "x", [9]):
        assert indexed.query("vals", {"v": probe}) == scan.query("vals", {"v": probe})
    # Once seen unhashable, the column keeps planning as a scan.
    assert indexed.explain("vals", {"v": "x"}).kind == "scan"


# ---------------------------------------------------------------------------
# Incremental maintenance
# ---------------------------------------------------------------------------


def test_index_maintained_across_insert_update_delete_clear():
    indexed, scan = _pair()
    # Force the index to exist before mutating.
    indexed.query("posts", {"author": "alice"})

    def check():
        for conditions in ({"author": "alice"}, {"author": "dave"}, {"score": 2}):
            assert indexed.query("posts", conditions) == scan.query("posts", conditions)

    for db in (indexed, scan):
        db.insert("posts", author="dave", title="f", score=2)
    check()
    for db in (indexed, scan):
        db.update("posts", 1, author="dave")
    check()
    for db in (indexed, scan):
        db.delete("posts", 2)
    check()
    for db in (indexed, scan):
        db.table("posts").clear()
    check()
    assert indexed.count("posts") == 0


def test_update_to_same_value_keeps_index_consistent():
    db = Database(indexing=True)
    _seed(db)
    db.query("posts", {"author": "alice"})
    db.update("posts", 1, author="alice")  # no-op transition
    assert [r["id"] for r in db.query("posts", {"author": "alice"})] == [1, 3]


def test_unique_column_index_holds_bare_row_ids():
    # Cost model: a bucket is the bare row id while one row holds the value,
    # so an index on a unique column allocates no container per row.
    db = Database(indexing=True)
    db.bulk_insert(
        "users",
        (dict(row, first=row["name"].split()[0]) for row in scale_user_rows(200)),
    )
    db.query("users", {"username": "user_5"})
    db.query("users", {"first": "Ada"})
    table = db.table("users")
    unique = table.index_on("username")
    assert len(unique) == 200
    assert all(type(bucket) is int for bucket in unique.values())
    assert unique["user_5"] == 6
    repeated = table.index_on("first")
    assert all(
        isinstance(bucket, set) and len(bucket) >= 2 for bucket in repeated.values()
    )
    assert db.counters["query.index_builds"] == 2


def _tag_rows() -> list:
    # Buckets of one ("a", "c"), two ("b") and three ("d") rows.
    return [
        {"tag": tag, "n": n}
        for n, tag in enumerate(["a", "b", "b", "c", "d", "d", "d"])
    ]


def _move(path: str, db: Database, row_id: int, tag: str) -> None:
    """Move row ``row_id`` to ``tag`` through one write path."""

    if path == "update":
        db.update("items", row_id, tag=tag)
    elif path == "write_one":
        db.write_one("items", row_id, "tag", tag)
    else:  # update_where, selecting the row through the index being written
        row = db.get("items", row_id)
        db.update_where("items", {"tag": row["tag"], "n": row["n"]}, {"tag": tag})


# Run from the snapshot, and again one after another, these moves take a
# row out of a one-, two- and three-row bucket and into an empty, one-row
# and two-row one: every widening and narrowing of a bucket.
_MOVES = [(1, "c"), (2, "e"), (5, "a"), (4, "e"), (6, "b")]


def _insert_steps(db: Database):
    yield db.insert("items", tag="c", n=10)  # one row -> two
    yield db.insert("items", tag="f", n=11)  # none -> one
    yield db.insert("items", tag="f", n=12)  # one -> two
    yield db.insert("items", tag="d", n=13)  # three -> four


def _delete_steps(db: Database, where: bool):
    for tag, row_id in (("a", 1), ("b", 2), ("d", 5), ("b", 3)):
        # one -> none, two -> one, three -> two, one -> none
        if where:
            yield db.delete_where("items", {"tag": tag}, limit=1)
        else:
            yield db.delete("items", row_id)


def _steps(path: str, db: Database):
    if path == "insert":
        return _insert_steps(db)
    if path in ("delete", "delete_where"):
        return _delete_steps(db, where=path == "delete_where")
    return (_move(path, db, row_id, tag) for row_id, tag in _MOVES)


@pytest.mark.parametrize(
    "path", ["insert", "update", "write_one", "update_where", "delete", "delete_where"]
)
def test_bucket_transitions_match_scan_across_snapshots(path):
    indexed, scan = Database(indexing=True), Database(indexing=False)
    for db in (indexed, scan):
        db.bulk_insert("items", _tag_rows())
    indexed.query("items", {"tag": "a"})  # build the index before the snapshot
    snaps = (indexed.snapshot(), scan.snapshot())
    probes = [{"tag": tag} for tag in "abcdefz"] + [{"tag": "d", "n": 5}]

    def check():
        for conditions in probes:
            for shape in ({}, {"order": "n", "descending": True}, {"limit": 1}):
                assert indexed.query("items", conditions, **shape) == scan.query(
                    "items", conditions, **shape
                ), (conditions, shape)
            assert indexed.count("items", conditions) == scan.count("items", conditions)
        # A set bucket holds two or more rows; one row is a bare id.
        index = indexed.table("items").index_on("tag")
        assert all(len(b) >= 2 for b in index.values() if isinstance(b, set))

    check()
    for _ in zip(_steps(path, indexed), _steps(path, scan)):
        check()
        indexed.restore(snaps[0])
        scan.restore(snaps[1])
        check()  # the snapshot's buckets were never written through
    # Then every step on top of the last, and one restore at the end.
    for _ in zip(_steps(path, indexed), _steps(path, scan)):
        check()
    indexed.restore(snaps[0])
    scan.restore(snaps[1])
    check()


# ---------------------------------------------------------------------------
# Planner: plan kinds, selectivity, counters
# ---------------------------------------------------------------------------


def test_plan_kinds():
    db = Database(indexing=True)
    _seed(db)
    assert db.explain("posts", None).kind == "scan"
    assert db.explain("posts", {"id": 3}).kind == "get"
    assert db.explain("posts", {"author": "alice"}).kind == "index"
    db.count("posts")
    assert db.last_plan.kind == "all"
    scan_only = Database(indexing=False)
    _seed(scan_only)
    assert scan_only.explain("posts", {"author": "alice"}).kind == "scan"


def test_planner_picks_most_selective_column():
    db = Database(indexing=True)
    _seed(db)
    db.query("posts", {"author": "alice"})  # build author index
    db.query("posts", {"score": 2})  # build score index
    # author "carol" has 1 row, score None has 1 row; author "alice" has 2.
    plan = db.explain("posts", {"author": "alice", "score": 2})
    assert plan.kind == "index"
    assert plan.index_column in ("author", "score")
    # A unique bucket beats a bigger one.
    plan = db.explain("posts", {"author": "carol", "score": 2})
    assert plan.index_column == "author"


def test_query_stats_counters():
    db = Database(indexing=True)
    _seed(db)
    before = db.counters.copy()
    db.query("posts", {"author": "alice"})
    delta = db.counters.since(before)
    assert delta["query.index_builds"] == 1
    assert delta["query.index_hits"] == 1 and delta["query.scans"] == 0
    db.query("posts", {"author": "bob"})
    delta = db.counters.since(before)
    assert delta["query.index_builds"] == 1 and delta["query.index_hits"] == 2
    db.count("posts")
    assert db.counters.since(before)["query.shortcuts"] == 1
    db.query("posts")
    assert db.counters.since(before)["query.scans"] == 1


def test_no_copy_count_exists_examine_no_rows():
    db = Database(indexing=True)
    _seed(db)
    db.count("posts")
    assert db.last_plan.kind == "all" and db.last_plan.rows_examined == 0
    db.query("posts", {"author": "alice"})  # build index
    db.count("posts", {"author": "alice"})
    assert db.last_plan.rows_examined == 2  # the bucket, not the table
    db.exists("posts", {"author": "alice"})
    assert db.last_plan.rows_examined == 1  # stops at the first match


# ---------------------------------------------------------------------------
# Snapshot / restore copy-on-write
# ---------------------------------------------------------------------------


def test_post_snapshot_update_leaves_snapshot_index_untouched():
    db = Database(indexing=True)
    _seed(db)
    db.query("posts", {"author": "alice"})  # index rides into the snapshot
    snap = db.snapshot()
    db.update("posts", 1, author="zed")
    db.insert("posts", author="alice", title="z", score=9)
    assert [r["id"] for r in db.query("posts", {"author": "alice"})] == [3, 6]
    db.restore(snap)
    assert [r["id"] for r in db.query("posts", {"author": "alice"})] == [1, 3]
    # The snapshot survives any number of restore/mutate cycles.
    db.delete("posts", 3)
    db.restore(snap)
    assert [r["id"] for r in db.query("posts", {"author": "alice"})] == [1, 3]


def test_indexes_stay_warm_across_restores():
    db = Database(indexing=True)
    _seed(db)
    db.query("posts", {"author": "alice"})
    snap = db.snapshot()
    builds = db.counters["query.index_builds"]
    for _ in range(3):
        db.restore(snap)
        assert [r["id"] for r in db.query("posts", {"author": "alice"})] == [1, 3]
    assert db.counters["query.index_builds"] == builds


def test_index_built_after_snapshot_is_published_back():
    # An index built while the table is still undiverged from its snapshot
    # warms the snapshot itself: later restores do not rebuild.
    db = Database(indexing=True)
    _seed(db)
    snap = db.snapshot()
    db.query("posts", {"author": "alice"})  # lazy build, undiverged
    builds = db.counters["query.index_builds"]
    db.restore(snap)
    db.query("posts", {"author": "bob"})
    assert db.counters["query.index_builds"] == builds  # restore carried it back in


def test_table_snapshot_equality_ignores_index_cache():
    # StateManager compares snapshots with ==; the out-of-band index cache
    # must never make two row-identical snapshots unequal.
    warm = Database(indexing=True)
    cold = Database(indexing=False)
    _seed(warm)
    _seed(cold)
    warm.query("posts", {"author": "alice"})
    warm_snap, cold_snap = warm.snapshot(), cold.snapshot()
    assert isinstance(warm_snap["tables"]["posts"], TableSnapshot)
    assert warm_snap["tables"]["posts"] == cold_snap["tables"]["posts"]
    assert warm_snap == cold_snap
    assert warm_snap["tables"]["posts"]["rows"][1]["author"] == "alice"


def test_restore_into_scan_only_database_round_trips():
    db = Database(indexing=False)
    _seed(db)
    snap = db.snapshot()
    db.update("posts", 1, author="zed")
    db.restore(snap)
    assert db.get("posts", 1)["author"] == "alice"


# ---------------------------------------------------------------------------
# Relation / model pushdown
# ---------------------------------------------------------------------------

def _models():
    from repro.lang import types as T

    cols = {"author": T.STRING, "title": T.STRING, "score": T.INT}
    indexed = create_model("Post", cols, Database(indexing=True))
    scan = create_model("Post", cols, Database(indexing=False))
    for model in (indexed, scan):
        model.create(author="alice", title="a", score=3)
        model.create(author="bob", title="b", score=1)
        model.create(author="alice", title="c", score=2)
        model.create(author="bob", title="e", score=2)
    return indexed, scan


def test_relation_pushdown_matches_scan():
    indexed, scan = _models()
    for model in (indexed, scan):
        model._probe = (
            [p.id for p in model.where(author="alice")],
            model.where(author="alice").count(),
            model.where(author="nobody").exists(),
            model.where(score=2).order("title", descending=True).first().id,
            model.where(author="bob").last().id,
            model.where(author="alice").pluck("title"),
            model.where(author="alice").empty(),
            model.first().id,
            model.last().id,
            model.find_by(author="bob").id,
            model.exists(author="alice"),
            model.count(),
        )
    assert indexed._probe == scan._probe


def test_relation_effect_logs_identical_indexed_vs_scan():
    indexed, scan = _models()
    logs = []
    for model in (indexed, scan):
        with effect_capture() as log:
            model.where(author="alice").count()
            model.where(score=2).first()
            model.exists(author="bob")
            model.where(author="alice").pluck("title")
            model.where(author="zed").update_all(score=0)
            model.where(author="zed").delete_all()
        logs.append((str(log.read), str(log.write)))
    assert logs[0] == logs[1]


def test_update_all_delete_all_operate_on_matched_ids():
    indexed, scan = _models()
    for model in (indexed, scan):
        # order+limit: only the top-scoring alice row is touched.
        n = model.where(author="alice").order("score", descending=True).limit(1).update_all(score=10)
        assert n == 1
        model._after_update = [(p.id, p.score) for p in model.where(author="alice")]
        m = model.where(author="bob").order("score").limit(1).delete_all()
        assert m == 1
        model._after_delete = [p.id for p in model.where(author="bob")]
    assert indexed._after_update == scan._after_update
    assert indexed._after_delete == scan._after_delete


def test_relation_count_is_no_copy(monkeypatch):
    indexed, _ = _models()
    db = indexed.database()

    def boom(*args, **kwargs):  # pragma: no cover - the assertion is "not called"
        raise AssertionError("count must not materialize rows")

    monkeypatch.setattr(db, "query", boom)
    assert indexed.where(author="alice").count() == 2
    assert indexed.where(author="alice").exists()
    assert not indexed.where(author="alice").empty()


# ---------------------------------------------------------------------------
# Synthesis identity and counters
# ---------------------------------------------------------------------------


@pytest.mark.slow
def _spec_effect_logs(problem, program) -> list:
    """Each spec's captured read/write effect log when ``program`` runs it."""

    manager = problem.state_manager()
    logs = []
    for spec in problem.specs:
        with effect_capture() as log:
            evaluate_spec(problem, program, spec, state=manager)
        logs.append(f"{spec.name}: <read: {log.read}, write: {log.write}>")
    return logs


@pytest.mark.parametrize("benchmark_id", ["S3", "S4", "A8"])
def test_synthesis_identical_with_indexing_off_and_on(benchmark_id):
    programs, effect_logs = {}, {}
    previous = default_indexing()
    try:
        for indexing in (False, True):
            set_default_indexing(indexing)
            benchmark = get_benchmark(benchmark_id)
            problem = benchmark.build()
            config = benchmark.make_config(SynthConfig())
            with SynthesisSession(config) as session:
                result = session.run(problem)
            assert result.success
            programs[indexing] = result.program
            effect_logs[indexing] = _spec_effect_logs(problem, result.program)
    finally:
        set_default_indexing(previous)
    assert programs[False] == programs[True]
    assert effect_logs[False] == effect_logs[True]
    assert len(effect_logs[True]) == len(problem.specs) > 0


@pytest.mark.slow
def test_run_benchmark_reports_index_counters():
    result = run_benchmark(get_benchmark("S4"), runs=1)
    assert result.success
    assert result.counters["query.index_hits"] > 0
    assert (
        result.last_result.counters["query.index_hits"]
        == result.counters["query.index_hits"]
    )


# ---------------------------------------------------------------------------
# Scale tier
# ---------------------------------------------------------------------------


def test_scale_rows_deterministic():
    first = list(scale_user_rows(50))
    second = list(scale_user_rows(50))
    assert first == second
    assert first[7]["username"] == "user_7"
    assert len({row["username"] for row in first}) == 50
    assert list(scale_user_rows(5, seed=1)) != list(scale_user_rows(5, seed=2))


def _scale_battery(rows: int) -> list:
    """``(method, args, kwargs)`` calls on the scale rows' users table.

    Usernames and names are unique; ``first`` (the first name alone) is the
    repeated column.  The calls reach one-row and many-row buckets, misses,
    ``None``, multi-column conditions, order, descending and limit.
    """

    calls = []
    for i in ((k * 7919 + 13) % rows for k in range(12)):
        username, first = f"user_{i}", ("Ada", "Grace", "Alan")[i % 3]
        calls += [
            ("query", ({"username": username},), {}),
            ("exists", ({"username": username},), {}),
            ("count", ({"name": f"Ada {i}"},), {}),
            ("pluck", ("name", {"username": username}), {}),
            ("query", ({"first": first, "username": username},), {}),
        ]
    for first in ("Ada", "Grace", "Alan", "Nobody"):
        calls += [
            ("match_ids", ({"first": first},), {}),
            ("count", ({"first": first},), {}),
            ("query", ({"first": first},), {"order": "username"}),
            ("query", ({"first": first},), dict(order="id", descending=True, limit=3)),
            ("match_ids", ({"first": first},), {"limit": 5}),
        ]
    calls += [
        ("query", ({"username": "nobody"},), {}),
        ("exists", ({"username": "nobody"},), {}),
        ("count", (), {}),
        ("query", ({"name": "Grace 1"},), {"order": "username"}),
        ("query", ({"name": "Alan 2"},), dict(order="id", descending=True, limit=3)),
        ("query", ({"username": None},), {}),
    ]
    return calls


def test_scale_battery_indexed_equals_scan():
    # A planner battery over the scale tier's users at 2,000 rows, plus a
    # repeated column, compared call for call between indexes and scans.
    rows = 2000
    indexed, scan = Database(indexing=True), Database(indexing=False)
    for db in (indexed, scan):
        db.bulk_insert(
            "users",
            (dict(row, first=row["name"].split()[0]) for row in scale_user_rows(rows)),
        )
    for method, args, kwargs in _scale_battery(rows):
        got = getattr(indexed, method)("users", *args, **kwargs)
        assert got == getattr(scan, method)("users", *args, **kwargs), (method, args)
    assert indexed.counters["query.index_builds"] == 3
    assert scan.counters["query.index_hits"] == 0


def test_seed_scale_users_bulk_inserts_in_order(blog_app):
    count = seed_scale_users(blog_app, 100)
    assert count == 100
    db = blog_app.database
    assert db.count("users") == 100
    assert db.query("users", {"username": "user_41"})[0]["id"] == 42


def test_scale_registry_tier_is_isolated():
    paper_ids = [b.id for b in all_benchmarks()]
    assert len(paper_ids) == 19 and not any(i.startswith("SC") for i in paper_ids)
    scale_ids = [b.id for b in all_benchmarks(tier="scale")]
    assert scale_ids == ["SC1", "SC2", "SC3"]
    assert {b.id for b in all_benchmarks(tier="all")} >= set(paper_ids) | set(scale_ids)
    assert get_benchmark("SC1").tier == "scale"


@pytest.mark.slow
def test_scale_find_user_synthesizes_through_the_index():
    problem = build_scale_find_user(_SCALE_TEST_ROWS)
    with SynthesisSession(SynthConfig()) as session:
        result = session.run(problem)
    assert result.success
    assert "find_by" in result.pretty() or "where" in result.pretty()
    assert "create" not in result.pretty() and "destroy" not in result.pretty()
    assert result.counters["query.index_hits"] > 0


@pytest.mark.slow
def test_scale_user_exists_synthesizes_through_the_index():
    problem = build_scale_user_exists(_SCALE_TEST_ROWS)
    with SynthesisSession(SynthConfig()) as session:
        result = session.run(problem)
    assert result.success
    assert "exists?" in result.pretty()
    assert "create" not in result.pretty() and "destroy" not in result.pretty()
    assert result.counters["query.index_hits"] > 0
