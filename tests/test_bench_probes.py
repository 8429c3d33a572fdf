"""Every function the benchmark's tracer wraps must exist where it looks.

`perfbench/tracer.py` wraps each probe's `minkdecomp.<home>.<attr>` and
patches it at the caller modules it names; a probe whose function was
renamed or moved makes `perfbench/run.py --trace 1` fail.  The tracer is
read by path and executed as source, so nothing is imported from, or
written into, the benchmark's directory.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_tracer_probe_resolves():
    probes = _load_tracer().PROBES
    assert probes
    for probe in probes:
        home = importlib.import_module(f"minkdecomp.{probe.home}")
        original = getattr(home, probe.attr, None)
        assert callable(original), f"minkdecomp.{probe.home}.{probe.attr} is gone ({probe.name})"
        for site in probe.sites or ():
            module = importlib.import_module(f"minkdecomp.{site}")
            assert getattr(module, probe.attr, None) is original, (
                f"minkdecomp.{site}.{probe.attr} is not minkdecomp.{probe.home}.{probe.attr}"
                f" ({probe.name})"
            )

