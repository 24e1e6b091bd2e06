"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.lang import types as T  # noqa: E402
from repro.activerecord import Database, create_model, register_model  # noqa: E402
from repro.apps.blog import build_blog_app, seed_blog  # noqa: E402
from repro.corelib import register_corelib  # noqa: E402
from repro.typesys.class_table import ClassTable  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (large sweeps, example scripts)"
    )


@pytest.fixture()
def blog_app():
    """A fresh blog app context (User/Post models, corelib, class table)."""

    return build_blog_app()


@pytest.fixture()
def seeded_blog_app(blog_app):
    seed_blog(blog_app)
    return blog_app


@pytest.fixture()
def class_table():
    """A class table with the core library registered."""

    ct = ClassTable()
    register_corelib(ct)
    return ct


@pytest.fixture()
def post_model():
    """A standalone Post model bound to a fresh database, plus its table."""

    db = Database()
    post = create_model(
        "Post", {"author": T.STRING, "title": T.STRING, "slug": T.STRING}, db
    )
    return post


@pytest.fixture()
def orm_class_table(post_model):
    ct = ClassTable()
    register_corelib(ct)
    register_model(ct, post_model)
    return ct
