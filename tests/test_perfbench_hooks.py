"""The benchmark under perfbench/ imports library names and rebinds
others to trace them.  Loading its modules and installing its tracer
here makes a library change that removes one of those names fail these
tests, not the benchmark run."""

import importlib.util
import os
import sys

import alphatree.cli
import alphatree.coding
import alphatree.core
import alphatree.realweight

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
MODULES = (alphatree.cli, alphatree.coding, alphatree.core, alphatree.realweight)


def load(name, monkeypatch):
    # the dataclasses in workloads.py look their module up in sys.modules
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_rebinds_and_restores_library_names(monkeypatch):
    load("workloads", monkeypatch)
    layertrace = load("layertrace", monkeypatch)
    before = [dict(vars(mod)) for mod in MODULES]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rebound = {
            (mod.__name__, name)
            for mod, old in zip(MODULES, before)
            for name, value in vars(mod).items()
            if value is not old.get(name)
        }
    finally:
        tracer.uninstall()
    assert ("alphatree.realweight", "LevelTree") in rebound
    assert ("alphatree.cli", "cmd_code") in rebound
    for mod, old in zip(MODULES, before):
        now = vars(mod)
        assert now.keys() == old.keys(), mod.__name__
        for name, value in old.items():
            assert now[name] is value, (mod.__name__, name)
