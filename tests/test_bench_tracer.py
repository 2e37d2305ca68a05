"""The benchmark's tracer still finds every function it wraps.

`bench/tracer.py` names functions of the package by module and attribute;
installing it fails on a name the package no longer has, and uninstalling
must put every original back.
"""

import importlib
from pathlib import Path

import semiortho.cli  # noqa: F401  (loads every module of the package)
from semiortho import bilinear_form, mutations

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracer")

    def namespaces():
        return {(owner, attr): value for owner in tracing.package_namespaces()
                for attr, value in vars(owner).items()}

    before = namespaces()
    t = tracing.Tracer()
    t.install()  # raises on any name in tracer.LAYERS the package lacks
    try:
        lat = bilinear_form.BilinearLattice.from_rows([[1, 3], [0, 1]])
        bilinear_form.canonical_operator(lat)
        mutations.SonCollection.standard_basis(lat).gram()
        assert t.calls["bilinear_form.canonical_operator"] == 1
        assert t.calls["mutations.SonCollection.gram"] == 1
        assert t.calls["exact_linalg.IntMatrix.mul"] == 1
    finally:
        t.uninstall()
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
