"""Scale-tier benchmarks: paper-shaped specs over production-sized tables.

The paper's benchmarks seed a handful of rows, so every query in a candidate
program is cheap no matter how it executes.  The scale tier re-runs the S3/S4
query shapes against tables seeded with 10^5-10^6 deterministic rows
(:func:`scale_user_rows`), proving that synthesis latency stays flat when the
app data is production-sized: with the hash-index planner each candidate's
``where``/``find_by``/``exists?`` is a bucket lookup, while a scan-only ORM
degrades linearly with the row count.

These entries register with ``tier="scale"`` so ``all_benchmarks()`` (paper
tier by default) never picks them up in Table 1 sweeps or the replay tests;
they are reached explicitly by id (``get_benchmark("SC1")``), by
``all_benchmarks(tier="scale")``, by the slow-marked tests in
``tests/test_query_engine.py``, and SC1/SC2 by the end-to-end benchmark's
``scale-cold`` workload and its identity gates.  SC3 seeds 10^6 rows: one
cold run takes 6-7 s and peaks at about 0.9 GB of RSS (2-vCPU host, ``PYTHONHASHSEED=0``, ``timeout_s=300``, problem
build included), so it is meant for explicit slow runs only.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator

from repro.apps.base import AppContext
from repro.apps.blog import build_blog_app
from repro.benchmarks.registry import (
    BenchmarkSpec,
    PaperReference,
    register_benchmark,
)
from repro.benchmarks.synthetic import BASE_CONSTANTS
from repro.synth.dsl import define
from repro.synth.goal import SynthesisProblem

#: Seed for the deterministic row generator; every run of a scale benchmark
#: (serial or parallel, any hash seed) sees byte-identical tables.
SCALE_SEED = 0x5CA1E

#: Default row count for the 10^5 tier.
SCALE_ROWS = 100_000

_FIRST_NAMES = (
    "Ada", "Grace", "Alan", "Edsger", "Barbara", "Donald", "Leslie", "Frances",
)


def scale_user_rows(count: int, seed: int = SCALE_SEED) -> Iterator[Dict[str, str]]:
    """``count`` deterministic user rows (seeded; safe to regenerate).

    Both columns are unique: usernames are ``user_<i>`` and names are a
    first name drawn from a small pool followed by ``<i>``, so every
    equality lookup on either column is maximally selective.  A test that
    needs a repeated column derives one, e.g. the first name alone.
    """

    rng = random.Random(seed)
    for i in range(count):
        yield {"name": f"{rng.choice(_FIRST_NAMES)} {i}", "username": f"user_{i}"}


def seed_scale_users(app: AppContext, count: int, seed: int = SCALE_SEED) -> int:
    """Bulk-seed the blog app's users table; returns the inserted count."""

    return app.database.bulk_insert("users", scale_user_rows(count, seed))


def _deep_username(count: int) -> str:
    """A username far from the first row, so ``User.first`` never matches."""

    return f"user_{(2 * count) // 3}"


def build_scale_find_user(count: int = SCALE_ROWS) -> SynthesisProblem:
    """S3's ``User.where(username:).first`` shape at ``count`` rows."""

    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "scale_find_user",
        "(Str) -> User",
        consts=BASE_CONSTANTS + (User,),
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )
    target_index = (2 * count) // 3
    other_index = count // 3

    def make_setup(username: str):
        def setup(ctx):
            seed_scale_users(app, count)
            ctx.invoke(username)

        return setup

    User_model = User

    def check(username: str, row_id: int):
        # Asserting the seeded row id (bulk inserts assign ids in order, so
        # row i gets id i+1) rules out degenerate candidates like
        # ``User.create(username: arg)``; the count and persisted asserts
        # (both O(1)) rule out candidates that insert or destroy rows on the
        # way to the answer.
        # The id assert runs first so write-based candidates (whose created
        # row matches the username but gets a fresh id) pass zero asserts
        # and never gain search priority.
        def postcond(ctx, result):
            ctx.assert_(lambda: result.id == row_id)
            ctx.assert_(lambda: result.username == username)
            ctx.assert_(lambda: result.persisted())
            ctx.assert_(lambda: User_model.count() == count)

        return postcond

    for index in (target_index, other_index):
        username = f"user_{index}"
        problem.add_spec(
            f"finds {username}", make_setup(username), check(username, index + 1)
        )
    return problem


def build_scale_user_exists(count: int = SCALE_ROWS) -> SynthesisProblem:
    """S4's ``User.exists?(username:)`` shape at ``count`` rows."""

    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "scale_user_exists",
        "(Str) -> Bool",
        consts=BASE_CONSTANTS + (User,),
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )
    present = _deep_username(count)

    def setup_present(ctx):
        seed_scale_users(app, count)
        ctx.invoke(present)

    def setup_absent(ctx):
        seed_scale_users(app, count)
        ctx.invoke("nobody")

    problem.add_spec(
        "existing username",
        setup_present,
        lambda ctx, result: ctx.assert_(lambda: result is True),
    )
    problem.add_spec(
        "missing username",
        setup_absent,
        lambda ctx, result: ctx.assert_(lambda: result is False),
    )
    return problem


# The scale tier reuses S3/S4's paper reference numbers: the specs are the
# same shapes, only the seeded row counts differ (the paper has no scale
# column to compare against).
_S3_REFERENCE = PaperReference(
    specs=2, asserts_min=1, asserts_max=1, orig_paths=1, lib_methods=164,
    time_s=0.98, meth_size=10, syn_paths=1,
)
_S4_REFERENCE = PaperReference(
    specs=2, asserts_min=1, asserts_max=1, orig_paths=1, lib_methods=164,
    time_s=0.98, meth_size=9, syn_paths=1,
)

register_benchmark(
    BenchmarkSpec(
        id="SC1",
        name="find user @ 1e5 rows",
        group="Scale",
        tier="scale",
        build=lambda: build_scale_find_user(SCALE_ROWS),
        description="S3's query chain against 10^5 seeded users.",
        paper=_S3_REFERENCE,
    )
)

register_benchmark(
    BenchmarkSpec(
        id="SC2",
        name="user exists @ 1e5 rows",
        group="Scale",
        tier="scale",
        build=lambda: build_scale_user_exists(SCALE_ROWS),
        description="S4's boolean query against 10^5 seeded users.",
        paper=_S4_REFERENCE,
    )
)

register_benchmark(
    BenchmarkSpec(
        id="SC3",
        name="find user @ 1e6 rows",
        group="Scale",
        tier="scale",
        build=lambda: build_scale_find_user(1_000_000),
        description=(
            "S3's query chain against 10^6 seeded users "
            "(needs ~0.9 GB RSS)."
        ),
        paper=_S3_REFERENCE,
    )
)
