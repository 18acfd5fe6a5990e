"""The public serving + analytics surface carries *runnable* examples.

Every module named here must pass its doctests and actually contain at
least one ``>>>`` example -- the same set the CI docs job runs via
``pytest --doctest-modules``.  Keeping the runner inside tier-1 means a
drifted docstring fails the ordinary test suite, not just the docs job.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: the documented-surface contract: (module, at least these names carry
#: a runnable example)
SURFACE = {
    "repro.serving.service": ("GraphService",),
    "repro.serving.cache": ("CachedResult", "ResultCache"),
    "repro.queries.engine": ("EngineBase", "QueryEngine"),
    "repro.analytics.engine": (),  # module-level example
    "repro.faults": (),  # module-level example
    "repro.storage": (),  # module-level example
    "repro.replication.service": ("ReplicatedGraphService",),
    "repro.replication.shipper": ("DirectoryWalShipper",),
    "repro.sharding.router": ("ShardedGraphService",),
    "repro.sharding.partition": ("shard_of",),
    "repro.sharding.merge": ("merge_topk_entries", "merge_partition_partials"),
    "repro.obs.trace": (),  # module-level example
    "repro.obs.metrics": (),  # module-level example
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_module_doctests_pass_and_exist(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"doctest failures in {module_name}"
    assert results.attempted > 0, f"{module_name} lost its runnable examples"


@pytest.mark.parametrize(
    "module_name,names",
    [(m, ns) for m, ns in SURFACE.items() if ns],
)
def test_named_objects_carry_examples(module_name, names):
    module = importlib.import_module(module_name)
    finder = doctest.DocTestFinder(exclude_empty=True)
    documented = {t.name for t in finder.find(module) if t.examples}
    for name in names:
        assert any(
            d == f"{module_name}.{name}" or d.startswith(f"{module_name}.{name}.")
            for d in documented
        ), f"{module_name}.{name} has no >>> example"
