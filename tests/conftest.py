from __future__ import annotations

import importlib.util
import sys
from functools import cached_property
from pathlib import Path

import pytest

from acdc_prov import graph as graph_module
from acdc_prov.graph import ProvGraph
from acdc_prov.scenarios import (
    BALLOT_STEPS,
    CorpusPolicy,
    build_encapsulate_event,
    build_encapsulate_with_foreign_inputs,
    build_voting_trace,
    corpus_by_name,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def population():
    """``perfbench/population.py``, the benchmark's synthetic voting
    histories, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "population.py"
    spec = importlib.util.spec_from_file_location("population", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["population"] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def encapsulation() -> ProvGraph:
    return build_encapsulate_event("Bob")


@pytest.fixture
def tampered_encapsulation() -> ProvGraph:
    return build_encapsulate_with_foreign_inputs("Bob", "Mallory")


@pytest.fixture
def alice_trace() -> ProvGraph:
    return build_voting_trace("Alice", "m1", BALLOT_STEPS)


@pytest.fixture
def entries() -> dict[str, CorpusPolicy]:
    return corpus_by_name()


@pytest.fixture
def validations(monkeypatch):
    """The graphs whose validation report gets computed, and the vertex
    sets Kosaraju's search runs over, each in call order."""
    reports, searches = [], []
    compute = ProvGraph.__dict__["_report"].func
    search = graph_module._strongly_connected

    def counting_report(self):
        reports.append(self)
        return compute(self)

    def counting_search(ids, outgoing):
        searches.append(sorted(ids))
        return search(ids, outgoing)

    report = cached_property(counting_report)
    report.__set_name__(ProvGraph, "_report")
    monkeypatch.setattr(ProvGraph, "_report", report)
    monkeypatch.setattr(graph_module, "_strongly_connected", counting_search)
    return reports, searches
