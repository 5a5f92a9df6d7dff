"""What the benchmark in perfbench/ relies on: the module attributes its
tracer wraps, the scenarios its workloads run and the CLI options they pass.
A refactor that renames a traced function, a scenario key or a CLI option
fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from wsncluster.cli import build_parser
from wsncluster.model import scenario_from_dict

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracing").TARGETS
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TARGETS])
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"wsncluster.{module}"), attr))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_scenario_is_accepted(name):
    wl = WORKLOADS[name]
    for batch in range(wl.batches):
        config = scenario_from_dict(wl.batch_scenario(0, batch))
        assert config.n_nodes == wl.scenario["n_nodes"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_arguments_parse(name):
    # the timed, warm-up and heap-measuring calls of perfbench/bench.py
    wl = WORKLOADS[name]
    for argv in (wl.argv("s.json", "out"), wl.argv("s.json", "out", max_rounds=1),
                 wl.argv("s.json", "out", cli_args=wl.heap_args)):
        build_parser().parse_args(argv)
