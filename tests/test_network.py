"""Contraction networks: wiring validation and order independence."""

import numpy as np
import pytest

from ttkit.errors import NetworkError
from ttkit.network import ContractionNetwork, contract_network

from oracles import loop_five_node_network


def five_node_network(a, b, c, d, e):
    return ContractionNetwork(
        nodes={"A": a, "B": b, "C": c, "D": d, "E": e},
        edges=(
            (("A", 1), ("B", 0)),
            (("A", 2), ("C", 0)),
            (("B", 1), ("C", 1)),
            (("C", 2), ("E", 0)),
            (("A", 3), ("D", 0)),
            (("D", 1), ("E", 1)),
        ),
        free_legs=(("A", 0), ("E", 2)),
    )


def random_five_node(rng, dim=2):
    return (
        rng.normal(size=(dim,) * 4),
        rng.normal(size=(dim, dim)),
        rng.normal(size=(dim,) * 3),
        rng.normal(size=(dim, dim)),
        rng.normal(size=(dim,) * 3),
    )


def test_all_ones_counts_terms():
    tensors = [np.ones(s) for s in [(2,) * 4, (2, 2), (2,) * 3, (2, 2), (2,) * 3]]
    out = contract_network(five_node_network(*tensors))
    assert out.shape == (2, 2)
    assert np.array_equal(out, np.full((2, 2), 64.0))


def test_single_node_no_edges():
    t = np.random.default_rng(0).normal(size=(2, 3))
    net = ContractionNetwork(nodes={"x": t}, edges=(), free_legs=(("x", 0), ("x", 1)))
    assert np.array_equal(contract_network(net), t)
    # free legs also fix the output order
    net = ContractionNetwork(nodes={"x": t}, edges=(), free_legs=(("x", 1), ("x", 0)))
    assert np.array_equal(contract_network(net), t.T)


def test_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        tensors = random_five_node(rng)
        got = contract_network(five_node_network(*tensors))
        want = loop_five_node_network(*tensors)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_order_independence():
    rng = np.random.default_rng(2)
    tensors = random_five_node(rng, dim=3)
    net = five_node_network(*tensors)
    default = contract_network(net)
    paths = [
        [("A", "B"), ("A", "C"), ("A", "D"), ("A", "E")],
        [("D", "E"), ("C", "D"), ("B", "C"), ("A", "B")],
        [("B", "C"), ("A", "B"), ("D", "E"), ("A", "D")],
    ]
    for path in paths:
        out = contract_network(net, path=path)
        assert np.linalg.norm(out - default) <= 1e-12 * np.linalg.norm(default)


def test_trace_edge():
    m = np.random.default_rng(3).normal(size=(4, 4))
    net = ContractionNetwork(
        nodes={"m": m}, edges=((("m", 0), ("m", 1)),), free_legs=()
    )
    out = contract_network(net)
    assert out.shape == ()
    assert out == pytest.approx(np.trace(m), rel=1e-14)


def test_disconnected_components_tensor_product():
    a = np.array([2.0, 3.0])
    b = np.array([5.0, 7.0])
    net = ContractionNetwork(
        nodes={"a": a, "b": b}, edges=(), free_legs=(("a", 0), ("b", 0))
    )
    assert np.allclose(contract_network(net), np.outer(a, b))


def test_scalar_result():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    net = ContractionNetwork(nodes={"a": a, "b": b}, edges=((("a", 0), ("b", 0)),), free_legs=())
    assert contract_network(net) == pytest.approx(11.0)


class TestValidation:
    def test_dangling_axis(self):
        with pytest.raises(NetworkError):
            ContractionNetwork(
                nodes={"x": np.zeros((2, 2))}, edges=(), free_legs=(("x", 0),)
            )

    def test_double_use(self):
        with pytest.raises(NetworkError):
            ContractionNetwork(
                nodes={"x": np.zeros(2), "y": np.zeros(2)},
                edges=((("x", 0), ("y", 0)),),
                free_legs=(("x", 0),),
            )
        with pytest.raises(NetworkError, match="used more than once"):
            ContractionNetwork(
                nodes={"x": np.zeros(2), "y": np.zeros(2), "z": np.zeros(2)},
                edges=((("x", 0), ("y", 0)), (("x", 0), ("z", 0))),
                free_legs=(),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(NetworkError):
            ContractionNetwork(
                nodes={"x": np.zeros(2), "y": np.zeros(3)},
                edges=((("x", 0), ("y", 0)),),
                free_legs=(),
            )

    def test_unknown_node(self):
        with pytest.raises(NetworkError):
            ContractionNetwork(
                nodes={"x": np.zeros(2)}, edges=(), free_legs=(("y", 0),)
            )
        with pytest.raises(NetworkError, match="no axis 1"):
            ContractionNetwork(
                nodes={"x": np.zeros(2)}, edges=(), free_legs=(("x", 0), ("x", 1))
            )

    def test_no_nodes(self):
        with pytest.raises(NetworkError, match="no nodes"):
            ContractionNetwork(nodes={}, edges=(), free_legs=())

    def test_bad_path(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        net = ContractionNetwork(
            nodes={"a": a, "b": b}, edges=((("a", 0), ("b", 0)),), free_legs=()
        )
        with pytest.raises(NetworkError):
            contract_network(net, path=[("a", "z")])
        with pytest.raises(NetworkError):
            contract_network(net, path=[])
        with pytest.raises(NetworkError, match="two distinct nodes"):
            contract_network(net, path=[("a", "a")])
