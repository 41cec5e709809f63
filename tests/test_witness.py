from __future__ import annotations

import pytest

from minorclub.errors import InvalidStructureError
from minorclub.graph import Graph
from minorclub.oracle import hadwiger_oracle
from minorclub.witness import (certify_contraction, certify_minor,
                               verify_witness)


def test_triangle_minor_of_cycle():
    assert verify_witness(Graph.cycle(4), [{0, 1}, {2}, {3}])


def test_path_has_no_triangle_minor():
    # {0} and {2} are not adjacent
    assert not verify_witness(Graph.path(3), [{0}, {1}, {2}])


def test_disconnected_bag_fails_condition():
    assert not verify_witness(Graph.path(4), [{0, 3}, {1}])


def test_overlap_and_structure_errors():
    G = Graph.cycle(4)
    assert not verify_witness(G, [{0, 1}, {1, 2}])  # overlap
    assert not verify_witness(G, [{0}, set()])      # empty bag
    assert not verify_witness(G, [{0}, {9}])        # foreign vertex
    assert not verify_witness(G, [{0}, {-1}])
    assert verify_witness(G, [])


def test_minor_witness_bounds_oracle():
    G = Graph.from_edges(6, Graph.cycle(6).edges() + [(0, 2), (3, 5)])
    if verify_witness(G, [{0, 1}, {2}, {3, 4}, {5}]):
        assert hadwiger_oracle(G) >= 4
    # independent of the outcome, the oracle dominates any verified witness
    assert verify_witness(G, [{1, 2}, {0, 5}, {3, 4}])
    assert hadwiger_oracle(G) >= 3


def test_certify_minor():
    G = Graph.cycle(4)
    certify_minor(G, 3, ((0, 1), (2,), (3,)))
    for h, bags in ((4, ((0, 1), (2,), (3,))),  # one bag short
                    (2, ((0,), (2,))),           # no edge between the bags
                    (2, ((0, 2), (1,)))):        # a disconnected bag
        with pytest.raises(InvalidStructureError):
            certify_minor(G, h, bags)


def test_certify_contraction():
    G = Graph.path(6)
    certify_contraction(G, 2, ((0, 1), (1, 2), (2, 3)), 3)
    with pytest.raises(InvalidStructureError):  # k + 1 edges
        certify_contraction(G, 2, ((0, 1), (1, 2), (2, 3)), 2)
    with pytest.raises(InvalidStructureError):  # diameter 3 is left
        certify_contraction(G, 2, ((0, 1), (1, 2)), 3)
