import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hankelmoments

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    names = hankelmoments.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(hankelmoments, n)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from hankelmoments import *", namespace)
    assert set(hankelmoments.__all__) <= namespace.keys()


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_function_the_benchmark_tracer_wraps_resolves(monkeypatch):
    # the tracer wraps library functions by (module, name); a rename would
    # silently drop a layer from the benchmark's per-layer metrics
    tracer = _load_tracer(monkeypatch)
    pairs = [(module, fn) for module, fn, _ in tracer.SPANNED + tracer.COUNTED]
    missing = [
        (module, fn)
        for module, fn in pairs
        if not callable(
            getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), fn, None)
        )
    ]
    assert pairs and missing == []


def test_every_method_the_benchmark_tracer_wraps_is_defined_on_its_class(monkeypatch):
    # the tracer replaces these methods through cls.__dict__: an inherited
    # method would raise there, and a family class renamed or moved out of
    # the moments module would leave its moments uncounted
    tracer = _load_tracer(monkeypatch)
    moments = importlib.import_module(f"{tracer.PACKAGE}.moments")
    owners = [(getattr(moments, name, None), "moment") for name in tracer.FAMILIES]
    owners += [(moments.MomentSequence, "moment"), (moments.MomentSequence, "float_array")]
    missing = [(cls, attr) for cls, attr in owners
               if not (isinstance(cls, type) and callable(vars(cls).get(attr)))]
    assert tracer.FAMILIES and missing == []


def test_cli_import_loads_no_scipy():
    # the FFT products run on numpy; importing scipy.fft alone would double
    # the CLI's start-up time
    src = str(Path(hankelmoments.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH", ""))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    code = (
        "import sys, hankelmoments.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
