"""The benchmark's traced layer boundaries still name attributes of the program.

``perfbench/run.py --trace 1`` wraps each ``(owner, attribute)`` of its
``_trace_targets`` with ``getattr``. A rename or a removal in ``src`` would
make only the traced run fail, so this checks the names in the tests.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run._trace_targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
