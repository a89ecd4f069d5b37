import pytest

from nodes import NodeStore, NodeType


def test_interning_is_idempotent():
    store = NodeStore()
    first = store.intern("A1", NodeType.AUTHOR)
    second = store.intern("A1", NodeType.AUTHOR)
    assert first.index == second.index == 0


def test_indices_are_dense():
    store = NodeStore()
    assert store.intern("A1", NodeType.AUTHOR).index == 0
    assert store.intern("A2", NodeType.AUTHOR).index == 1
    assert store.intern("A3", NodeType.AUTHOR).index == 2
    assert store.count(NodeType.AUTHOR) == 3


def test_namespaces_are_per_type():
    store = NodeStore()
    paper = store.intern("P1", NodeType.PAPER)
    author = store.intern("P1", NodeType.AUTHOR)
    assert paper.index == 0 and author.index == 0
    assert paper.node_type is not author.node_type
    assert store.count(NodeType.PAPER) == 1
    assert store.count(NodeType.AUTHOR) == 1


def test_labels_round_trip():
    store = NodeStore()
    for label in ("X", "Y", "Z"):
        ref = store.intern(label, NodeType.MESH)
        assert store.label_of(ref.index, NodeType.MESH) == label


def test_empty_label_rejected():
    store = NodeStore()
    with pytest.raises(ValueError):
        store.intern("", NodeType.AUTHOR)
