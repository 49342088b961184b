"""The public names of the package."""

import importlib

import chainvar


def test_every_exported_name_resolves():
    for name in chainvar.__all__:
        assert hasattr(chainvar, name), name
    assert len(set(chainvar.__all__)) == len(chainvar.__all__)


def test_star_import():
    namespace = {}
    exec("from chainvar import *", namespace)
    assert set(chainvar.__all__) <= set(namespace)


def test_removed_lag_helpers_stay_private():
    # pair sums and partial sums come from LagPairSequence only
    module = importlib.import_module("chainvar.autocov")
    for name in ("pair_sum", "partial_sum", "sym_autocov", "max_pair_index"):
        assert not hasattr(chainvar, name)
        assert not hasattr(module, name)
