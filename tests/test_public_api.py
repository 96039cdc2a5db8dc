"""Public-API integrity: every package imports, __all__ resolves, and
public items carry docstrings."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.sim",
    "repro.sim.core",
    "repro.sim.resources",
    "repro.sim.sync",
    "repro.disk",
    "repro.disk.geometry",
    "repro.disk.seek",
    "repro.disk.drive",
    "repro.disk.raid",
    "repro.disk.stats",
    "repro.iosched",
    "repro.iosched.base",
    "repro.iosched.squeue",
    "repro.iosched.request",
    "repro.iosched.blocklayer",
    "repro.iosched.noop",
    "repro.iosched.deadline",
    "repro.iosched.cfq",
    "repro.iosched.anticipatory",
    "repro.net",
    "repro.net.ethernet",
    "repro.pfs",
    "repro.pfs.layout",
    "repro.pfs.filesystem",
    "repro.pfs.dataserver",
    "repro.pfs.metaserver",
    "repro.pfs.client",
    "repro.pfs.pagecache",
    "repro.pfs.writeback",
    "repro.cache",
    "repro.cache.chunk",
    "repro.cache.memcache",
    "repro.cache.quota",
    "repro.mpi",
    "repro.mpi.ops",
    "repro.mpi.opstream",
    "repro.mpi.runtime",
    "repro.mpi.datatypes",
    "repro.mpiio",
    "repro.mpiio.engine",
    "repro.mpiio.collective",
    "repro.mpiio.prefetch",
    "repro.mpiio.datasieve",
    "repro.core",
    "repro.core.config",
    "repro.core.metrics",
    "repro.core.emc",
    "repro.core.pec",
    "repro.core.crm",
    "repro.core.engine",
    "repro.core.system",
    "repro.workloads",
    "repro.cluster",
    "repro.cluster.spec",
    "repro.cluster.builder",
    "repro.runner",
    "repro.runner.experiment",
    "repro.runner.strategies",
    "repro.runner.results",
    "repro.runner.calibrate",
    "repro.runner.store",
    "repro.runner.pool",
    "repro.service",
    "repro.service.schemas",
    "repro.service.coordinator",
    "repro.service.client",
    "repro.trace",
    "repro.trace.blktrace",
    "repro.trace.timeline",
    "repro.analysis",
    "repro.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_all_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{name}.__all__ names missing symbol {sym!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    mod = importlib.import_module(name)
    for sym in getattr(mod, "__all__", []):
        obj = getattr(mod, sym)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__.startswith("repro"):
                assert obj.__doc__, f"{name}.{sym} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__
