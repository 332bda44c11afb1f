"""The benchmark's tracer and self-test find every ratelim name they use.

`perfbench/tracing.py` wraps each `(module, function)` in its TRACED table
and reads `build_F(...).lifted`; `perfbench/selftest.py` patches
`cli.you_bounds` and `cli.cmd_bounds`.  A renamed or relocated function
would otherwise only show up as a failing `--trace 1` run.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from ratelim.mjls import MjlsModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"ratelim.{mod_name}.{fn_name}"
        for mod_name, fn_name, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"ratelim.{mod_name}"), fn_name, None))
    ]
    cli = importlib.import_module("ratelim.cli")
    missing += [f"ratelim.cli.{name}" for name in ("you_bounds", "cmd_bounds")
                if not callable(getattr(cli, name, None))]
    assert missing == []
    assert "lifted" in {field.name for field in dataclasses.fields(MjlsModel)}
