"""The benchmark under perfbench/ imports library names and rebinds
others to trace them.  Loading its modules and installing its tracer
here makes a library change that removes one of those names fail these
tests, not the benchmark run."""

import alphatree.cli
import alphatree.coding
import alphatree.core
import alphatree.realweight
from helpers import load_perfbench

MODULES = (alphatree.cli, alphatree.coding, alphatree.core, alphatree.realweight)


def test_tracer_rebinds_and_restores_library_names(monkeypatch):
    load_perfbench("workloads", monkeypatch)
    layertrace = load_perfbench("layertrace", monkeypatch)
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
