"""The benchmark's tracer wraps library functions by name; a rename or
deletion would otherwise fail only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_library_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.SPANS, tracer.COUNTED):
        for module_name, names in table.items():
            module = importlib.import_module(f"tstrees.{module_name}")
            missing = [name for name in names if not hasattr(module, name)]
            assert missing == [], (module_name, missing)
