"""Guard: every timed or traced operation in ``repro`` goes through ``op_span``.

How an operation is timed and traced is decided in one place,
:func:`repro.obs.trace.op_span`.  This test reads the source of every
other module of the package and fails on the hand-rolled forms that
helper replaces: a ``.span(`` call, a read of the tracing switch
(``TRACE`` imported from the trace module, or ``tracing_enabled()``
called), and ``contextlib.nullcontext`` standing in for an untraced span.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
HELPER_MODULE = PACKAGE / "obs" / "trace.py"


def hand_rolled(path: Path) -> list[str]:
    """Every hand-rolled span or tracing-switch use in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "span":
                found.append((node.lineno, ".span( call"))
            if isinstance(func, ast.Name) and func.id == "tracing_enabled":
                found.append((node.lineno, "tracing_enabled() call"))
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if (node.module or "").endswith("trace") and "TRACE" in names:
                found.append((node.lineno, "imports the TRACE switch"))
            if node.module == "contextlib" and "nullcontext" in names:
                found.append((node.lineno, "imports nullcontext"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_only_the_trace_module_opens_spans_or_reads_the_switch():
    offenders = {
        str(path.relative_to(PACKAGE)): found
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != HELPER_MODULE and (found := hand_rolled(path))
    }
    assert offenders == {}


def test_the_guard_sees_each_hand_rolled_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from contextlib import nullcontext\n"
        "from ..obs.trace import TRACE as _TRACE\n"
        "from ..obs.trace import get_tracer, tracing_enabled\n"
        "ctx = get_tracer().span('x') if _TRACE.enabled else nullcontext()\n"
        "flag = tracing_enabled()\n"
    )
    assert hand_rolled(source) == [
        "line 1: imports nullcontext",
        "line 2: imports the TRACE switch",
        "line 4: .span( call",
        "line 5: tracing_enabled() call",
    ]
