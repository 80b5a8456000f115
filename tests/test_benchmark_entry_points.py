"""The traced benchmark wraps ekrcheck entry points by name and calls the
streamed rank route directly.  A refactor that renames or removes one of
them fails here, in the unit suite, instead of breaking the benchmark."""

import dataclasses
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

from ekrcheck import chartab
from ekrcheck import pipeline as pl
from ekrcheck.library import get_group

TRACING = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
ENTRY_POINTS = [(owner, attr) for owner, attr, _ in tracing.SPANS] + [
    (owner, attr) for owner, attr, _, _ in tracing.COUNTED
]


@pytest.mark.parametrize("owner, attr", ENTRY_POINTS)
def test_traced_entry_point_exists(owner, attr):
    # install() replaces vars(owner)[attr], so the name must live there
    assert attr in vars(tracing._owner(owner))


def test_streamed_route_keeps_its_two_argument_form():
    report = pl.EkrReport(key="M23", degree=23, order=10200960)
    inspect.signature(pl.mathieu_class_rank).bind(report, object())


def test_streamed_class_entry_points_keep_their_call_forms():
    # the traced wrappers forward (group, rep, cap=...) and (rows, n)
    inspect.signature(pl.conjugation_orbit).bind(object(), object(), cap=1)
    inspect.signature(pl.class_gram).bind(object(), 23)


def test_certificate_layer_entry_points_keep_their_call_forms():
    # the traced wrappers forward rank_certificate(N) and gram_M(eg), and
    # count `.primes` on the certificate; character_table_for calls
    # character_table as (eg), and the tests as (eg, seed=...)
    inspect.signature(pl.rank_certificate).bind(object())
    inspect.signature(pl.gram_M).bind(object())
    assert "primes" in {f.name for f in dataclasses.fields(pl.rank_certificate(np.eye(2)))}
    inspect.signature(chartab.character_table).bind(object())
    inspect.signature(chartab.character_table).bind(object(), seed=1)


def test_table_keeps_the_conductor_the_tracer_reads():
    # the tracer records `.e` of character_table_for's result as the
    # maximum `chartab.conductor.max`
    table = pl.character_table_for(get_group("A4")[1])
    assert type(table.e) is int and table.e == 6
    _, value = tracing.SPAN_MAXIMA["chartab.conductor.max"]
    assert value((), table) == 6
