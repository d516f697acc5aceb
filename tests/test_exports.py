"""The package namespace: every exported name resolves, removed names stay gone."""

import importlib

import crdcache

# (module, name) pairs deleted as duplicates or dead code
REMOVED = (
    ("scheme", "placement"),
    ("baselines", "scheme_table_row"),
    ("render", "fraction_text"),
    ("simulator", "split_subfiles"),
    ("scheme", "enumerate_users"),
    ("scheme", "per_user_rate_ratio"),
    ("scheme", "subpacketization_from_counts"),
    ("scheme", "_integer_root"),
    ("errors", "NonIntegerResult"),
    ("gf", "is_prime"),
    ("designs", "joint_labels"),
)


def test_every_exported_name_resolves():
    for name in crdcache.__all__:
        getattr(crdcache, name)


def test_removed_names_are_gone():
    for module, name in REMOVED:
        assert name not in crdcache.__all__
        assert not hasattr(crdcache, name)
        assert not hasattr(importlib.import_module(f"crdcache.{module}"), name)
    assert not hasattr(crdcache.Resolution, "class_blocks")
