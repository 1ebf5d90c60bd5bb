import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # loaded by path and never installed: nothing in cycenum is rebound
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # the tracer reports a missing name as absent and drops its metrics,
    # so a removed or renamed function must fail here instead
    tracing = _tracing()
    assert tracing.SPANNED and tracing.COUNTED
    for mod_name, attr in tracing.SPANNED + tracing.COUNTED:
        module = importlib.import_module(f"cycenum.{mod_name}")
        if "." in attr:  # a method, wrapped on its class
            cls_name, meth = attr.split(".")
            target = vars(getattr(module, cls_name)).get(meth)
        else:
            target = getattr(module, attr, None)
        assert callable(target), f"cycenum.{mod_name}.{attr}"
