"""The benchmark's tracer names library functions by module and attribute.

Loading `benchmarks/tracer.py` here makes a rename or deletion of a traced
name fail the library's own suite, not only the benchmark's.
"""

import importlib
import importlib.util
from pathlib import Path

from afideals import checks

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("afideals_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr, _ in load_tracer().TARGETS:
        owner = importlib.import_module(f"afideals.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_traced_suites_match_check_suites():
    assert list(load_tracer().SUITES) == [name for name, _ in checks.SUITES]
