"""The driver surface of ``__ray_entry__``: entry names and their order,
oracle coverage and callability. Building the table runs no pipeline, so
no Ray session is needed."""

import json
from pathlib import Path

import __ray_entry__ as e

_SWEEP = json.loads((Path(__file__).resolve().parent.parent
                     / "ORACLE_SWEEP_r05.json").read_text())


def test_entry_names_and_order_match_the_committed_sweep():
    names = list(e.queries())
    assert len(names) == 137
    for sf_dir, results in _SWEEP["results"].items():
        assert names == list(results), sf_dir


def test_every_oracle_names_an_entry():
    oracles = e.oracle_sql()
    assert len(oracles) == 119
    assert set(oracles) <= set(e.queries())


def test_every_entry_is_callable():
    assert all(callable(fn) for fn in e.queries().values())
