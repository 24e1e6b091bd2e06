"""Tests for the ActiveRecord-style substrate: database, models, relations,
generated annotations and the key/value settings store."""

from __future__ import annotations

import pytest

from repro.lang import types as T
from repro.lang.effects import Effect
from repro.interp.effect_log import effect_capture
from repro.interp.errors import SynRuntimeError
from repro.activerecord import Database, Relation, create_model
from repro.activerecord.annotations import columns_hash_type
from repro.corelib.kvstore import make_kvstore, register_kvstore
from repro.typesys.class_table import ClassTable


# ---------------------------------------------------------------------------
# Database
# ---------------------------------------------------------------------------


def test_insert_assigns_sequential_ids():
    db = Database()
    first = db.insert("posts", title="a")
    second = db.insert("posts", title="b")
    assert (first["id"], second["id"]) == (1, 2)


def test_get_update_delete():
    db = Database()
    row = db.insert("posts", title="a")
    assert db.get("posts", row["id"])["title"] == "a"
    db.update("posts", row["id"], title="b")
    assert db.get("posts", row["id"])["title"] == "b"
    assert db.delete("posts", row["id"])
    assert db.get("posts", row["id"]) is None
    assert not db.delete("posts", 99)


def test_where_and_count():
    db = Database()
    db.insert("posts", title="a", author="x")
    db.insert("posts", title="b", author="x")
    db.insert("posts", title="c", author="y")
    assert len(db.where("posts", {"author": "x"})) == 2
    assert db.count("posts") == 3
    assert db.count("posts", {"author": "y"}) == 1


def test_globals_and_reset():
    db = Database()
    db.insert("posts", title="a")
    db.set_global("notice", "hello")
    assert db.get_global("notice") == "hello"
    db.reset()
    assert db.count("posts") == 0
    assert db.get_global("notice") is None
    assert db.total_rows() == 0


def test_reset_restarts_id_sequence():
    db = Database()
    db.insert("posts", title="a")
    db.reset()
    assert db.insert("posts", title="b")["id"] == 1


def test_snapshot():
    db = Database()
    db.insert("posts", title="a")
    db.set_global("k", 1)
    snap = db.snapshot()
    assert snap["tables"]["posts"]["rows"][1]["title"] == "a"
    assert snap["tables"]["posts"]["next_id"] == 2
    assert snap["globals"] == {"k": 1}


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def test_create_and_accessors_log_effects(post_model):
    post = post_model.create(author="a", title="T", slug="s")
    with effect_capture() as log:
        assert post.title == "T"
    assert Effect.of("Post.title").regions <= log.read.regions


def test_setter_logs_write_and_persists(post_model):
    post = post_model.create(author="a", title="T", slug="s")
    with effect_capture() as log:
        post.title = "New"
    assert Effect.of("Post.title").regions <= log.write.regions
    assert post_model.find(post.id).title == "New"


def test_unknown_column_raises(post_model):
    post = post_model.create(author="a", title="T", slug="s")
    with pytest.raises(AttributeError):
        post.nonexistent
    with pytest.raises(SynRuntimeError):
        post.write_column("nonexistent", 1)
    with pytest.raises(SynRuntimeError):
        post_model.create(bogus=1)


def test_find_by_where_exists_count(post_model):
    post_model.create(author="a", title="T1", slug="s1")
    post_model.create(author="b", title="T2", slug="s2")
    assert post_model.find_by(slug="s2").title == "T2"
    assert post_model.find_by(slug="zzz") is None
    assert post_model.exists(author="a")
    assert not post_model.exists(author="zzz")
    assert post_model.count() == 2
    assert post_model.count(author="a") == 1
    assert len(post_model.all()) == 2


def test_first_last_find(post_model):
    a = post_model.create(author="a", title="T1", slug="s1")
    b = post_model.create(author="b", title="T2", slug="s2")
    assert post_model.first() == a
    assert post_model.last() == b
    assert post_model.find(a.id) == a
    assert post_model.find(999) is None


def test_update_reload_destroy(post_model):
    post = post_model.create(author="a", title="T", slug="s")
    post.update(title="U", author="c")
    assert post_model.find(post.id).title == "U"
    stale = post_model.find(post.id)
    post.update(title="V")
    assert stale.title == "U"
    stale.reload()
    assert stale.title == "V"
    post.destroy()
    assert post_model.find(post.id) is None
    assert not post.persisted()


def test_increment_and_decrement(post_model):
    db = Database()
    code = create_model("Code", {"count": T.INT}, db)
    record = code.create(count=10)
    record.decrement("count")
    assert code.find(record.id).count == 9
    record.increment("count", 5)
    assert code.find(record.id).count == 14


def test_model_equality_by_class_and_id(post_model):
    a = post_model.create(author="a", title="T", slug="s")
    same = post_model.find(a.id)
    assert a == same
    assert hash(a) == hash(same)
    other = post_model.create(author="b", title="U", slug="u")
    assert a != other


def test_delete_all(post_model):
    post_model.create(author="a", title="T", slug="s")
    post_model.create(author="b", title="U", slug="u")
    assert post_model.delete_all() == 2
    assert post_model.count() == 0


def test_unbound_model_raises():
    loose = create_model("Loose", {"x": T.INT})
    with pytest.raises(SynRuntimeError):
        loose.create(x=1)


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


def test_relation_chaining_and_materialization(post_model):
    post_model.create(author="a", title="T1", slug="s1")
    post_model.create(author="a", title="T2", slug="s2")
    post_model.create(author="b", title="T3", slug="s3")
    rel = post_model.where(author="a")
    assert isinstance(rel, Relation)
    assert rel.count() == 2
    assert rel.first().title == "T1"
    assert rel.last().title == "T2"
    assert rel.where(slug="s2").count() == 1
    assert rel.exists()
    assert not post_model.where(author="zzz").exists()
    assert post_model.where(author="zzz").empty()
    assert post_model.where(author="zzz").first() is None
    assert len(list(rel)) == 2
    assert len(rel) == 2


def test_relation_order_limit_pluck(post_model):
    post_model.create(author="b", title="T2", slug="s2")
    post_model.create(author="a", title="T1", slug="s1")
    ordered = post_model.where().order("author")
    assert [p.author for p in ordered.to_a()] == ["a", "b"]
    descending = post_model.where().order("author", descending=True)
    assert [p.author for p in descending.to_a()] == ["b", "a"]
    assert post_model.where().limit(1).count() == 1
    assert sorted(post_model.where().pluck("slug")) == ["s1", "s2"]
    with pytest.raises(SynRuntimeError):
        post_model.where().order("bogus")
    with pytest.raises(SynRuntimeError):
        post_model.where().pluck("bogus")


def test_relation_update_all_and_delete_all(post_model):
    post_model.create(author="a", title="T1", slug="s1")
    post_model.create(author="a", title="T2", slug="s2")
    assert post_model.where(author="a").update_all(title="same") == 2
    assert {p.title for p in post_model.all()} == {"same"}
    assert post_model.where(author="a").delete_all() == 2
    assert post_model.count() == 0


def test_relation_syn_class_name(post_model):
    assert post_model.where().syn_class_name() == "PostRelation"


# ---------------------------------------------------------------------------
# Generated annotations
# ---------------------------------------------------------------------------


def test_register_model_creates_classes_and_methods(orm_class_table):
    ct = orm_class_table
    assert ct.has_class("Post")
    assert ct.has_class("PostRelation")
    assert ct.is_subclass("Post", "ActiveRecord::Base")
    assert ct.lookup("Post", "title") is not None
    assert ct.lookup("Post", "title=") is not None
    assert ct.lookup("Post", "where", singleton=True) is not None
    assert ct.lookup("PostRelation", "first") is not None


def test_generated_effect_annotations(orm_class_table):
    ct = orm_class_table
    title = ct.resolve(ct.lookup("Post", "title"))
    assert title.effects.read == Effect.of("Post.title")
    setter = ct.resolve(ct.lookup("Post", "title="))
    assert setter.effects.write == Effect.of("Post.title")
    exists = ct.resolve(ct.lookup("Post", "exists?", singleton=True))
    assert exists.effects.read == Effect.of("Post")


def test_columns_hash_type(post_model):
    hash_type = columns_hash_type(post_model)
    assert set(hash_type.optional_map) == {"id", "author", "title", "slug"}
    no_id = columns_hash_type(post_model, include_id=False)
    assert "id" not in no_id.optional_map


def test_comp_type_excludes_id_for_create(orm_class_table):
    create = orm_class_table.resolve(orm_class_table.lookup("Post", "create", singleton=True))
    assert "id" not in create.arg_types[0].optional_map
    where = orm_class_table.resolve(orm_class_table.lookup("Post", "where", singleton=True))
    assert "id" in where.arg_types[0].optional_map


def test_save_excluded_from_synthesis(orm_class_table):
    save = orm_class_table.lookup("Post", "save")
    assert save is not None
    assert not save.synthesis


# ---------------------------------------------------------------------------
# Key/value store
# ---------------------------------------------------------------------------


def test_kvstore_get_set_delete_and_effects():
    db = Database()
    settings = make_kvstore("SiteSetting", {"notice": T.STRING}, db)
    with effect_capture() as log:
        settings.set("notice", "hello")
        assert settings.get("notice") == "hello"
    assert Effect.of("SiteSetting.notice").regions <= log.read.regions
    assert Effect.of("SiteSetting.notice").regions <= log.write.regions
    settings.delete("notice")
    assert settings.get("notice") is None


def test_kvstore_participates_in_reset():
    db = Database()
    settings = make_kvstore("SiteSetting", {"notice": T.STRING}, db)
    settings.set("notice", "hello")
    db.reset()
    assert settings.get("notice") is None


def test_register_kvstore_generates_singleton_methods():
    db = Database()
    settings = make_kvstore("SiteSetting", {"notice": T.STRING}, db)
    ct = ClassTable()
    register_kvstore(ct, settings)
    getter = ct.lookup("SiteSetting", "notice", singleton=True)
    setter = ct.lookup("SiteSetting", "notice=", singleton=True)
    assert getter is not None and setter is not None
    assert ct.resolve(setter).effects.write == Effect.of("SiteSetting.notice")
