"""Node interning: dense integer indices per node type (author, paper, topic category).

Only the matrix-form reference (``matrix_reference.py``) interns labels; the
package keys everything by label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class NodeType(Enum):
    AUTHOR = "author"
    PAPER = "paper"
    MESH = "mesh"


@dataclass(frozen=True)
class NodeRef:
    """A fully resolved node: its type, external label, and dense index within the type."""

    node_type: NodeType
    label: object
    index: int


class Interner:
    """Bijective label <-> dense index mapping for one node type.

    Indices are assigned in first-seen order and are exactly 0..n-1 for n labels.
    """

    def __init__(self) -> None:
        self._index: dict[object, int] = {}
        self._labels: list[object] = []

    def intern(self, label) -> int:
        if label is None or label == "":
            raise ValueError("node label must be non-empty")
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def index_of(self, label) -> int:
        return self._index[label]

    def get(self, label) -> int | None:
        return self._index.get(label)

    def label_of(self, index: int):
        return self._labels[index]

    def labels(self) -> list:
        return list(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label) -> bool:
        return label in self._index


@dataclass
class NodeStore:
    """One interner per node type; the shared identity space for a network."""

    authors: Interner = field(default_factory=Interner)
    papers: Interner = field(default_factory=Interner)
    meshes: Interner = field(default_factory=Interner)

    def _interner(self, node_type: NodeType) -> Interner:
        if node_type is NodeType.AUTHOR:
            return self.authors
        if node_type is NodeType.PAPER:
            return self.papers
        return self.meshes

    def intern(self, label, node_type: NodeType) -> NodeRef:
        idx = self._interner(node_type).intern(label)
        return NodeRef(node_type, label, idx)

    def count(self, node_type: NodeType) -> int:
        return len(self._interner(node_type))

    def label_of(self, index: int, node_type: NodeType):
        return self._interner(node_type).label_of(index)
