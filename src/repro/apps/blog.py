"""The blogging app of the paper's overview (Section 2).

Two tables::

    User schema {name: Str, username: Str}
    Post schema {author: Str, title: Str, slug: Str}

plus a ``seed_blog`` helper mirroring the ``seed_db`` call in Figure 1: a few
users and one post per user are added before each spec runs.  The synthetic
benchmarks (S1-S7) and the overview benchmark S6 all run against this app.
"""

from __future__ import annotations

from repro.lang import types as T
from repro.activerecord import Database, create_model, register_model
from repro.apps.base import AppContext
from repro.corelib import register_corelib
from repro.typesys.class_table import ClassTable


def build_blog_app() -> AppContext:
    """Build a fresh blog app context (new database, models, class table)."""

    db = Database()
    ct = ClassTable()
    register_corelib(ct)

    user = create_model(
        "User",
        {"name": T.STRING, "username": T.STRING},
        database=db,
    )
    post = create_model(
        "Post",
        {"author": T.STRING, "title": T.STRING, "slug": T.STRING},
        database=db,
    )
    register_model(ct, user)
    register_model(ct, post)

    return AppContext(
        name="blog",
        database=db,
        class_table=ct,
        models={"User": user, "Post": post},
    )


def seed_blog(app: AppContext, posts_per_user: int = 1) -> None:
    """Add some users and their posts to the database (Figure 1's ``seed_db``)."""

    user_cls = app.models["User"]
    post_cls = app.models["Post"]
    fixtures = [
        ("Author", "author"),
        ("Dummy", "dummy"),
        ("Carol", "carol"),
    ]
    for index, (name, username) in enumerate(fixtures):
        user_cls.create(name=name, username=username)
        for p in range(posts_per_user):
            post_cls.create(
                author=username,
                title=f"{name}'s post {p}",
                slug=f"{username}-post-{p}",
            )
