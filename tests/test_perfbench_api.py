"""The benchmark under perfbench/ looks latdec functions up by name: every
function its tracer rebinds and every function its output checks call
must exist, and installing then removing the tracer must leave every
module binding as it was.  An API cut that breaks this would otherwise
surface only in a traced benchmark run (`--trace 1`)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import tracing  # noqa: E402  (imports checks.LATDEC_FNS)


def _bindings() -> dict:
    return {(module.__name__, attr): value
            for module in tracing._MODULES for attr, value in vars(module).items()}


def test_traced_and_checked_names_resolve():
    for layer, home, names in tracing.TRACED:
        for name in names:
            assert callable(getattr(home, name, None)), f"{layer}.{name}"
    assert all(callable(fn) for fn in checks.LATDEC_FNS.values())


def test_tracer_install_and_uninstall_restore_every_binding(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        for _, home, names in tracing.TRACED:
            for name in names:
                assert getattr(home, name) is not before[(home.__name__, name)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
