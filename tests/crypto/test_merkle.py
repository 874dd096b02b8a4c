"""Unit tests for Merkle trees: the root every block commits to.

Inclusion is checked against the root with the reference audit path
of the ``audit_path`` fixture (``tests/conftest.py``).
"""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.errors import CryptoError


def test_single_leaf_tree(audit_path):
    tree = MerkleTree([b"only"])
    assert len(tree) == 1
    assert audit_path.of([b"only"], 0) == []
    assert audit_path.folds_to(tree.root, b"only", 0, [])
    assert not audit_path.folds_to(tree.root, b"other", 0, [])


def test_empty_tree_rejected():
    with pytest.raises(CryptoError):
        MerkleTree([])


@pytest.mark.parametrize("count", [2, 3, 4, 5, 7, 8, 9, 16, 33])
def test_all_leaves_provable(count, audit_path):
    leaves = [f"leaf-{i}".encode() for i in range(count)]
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        path = audit_path.of(leaves, index)
        assert audit_path.folds_to(tree.root, leaf, index, path)


def test_proof_fails_for_wrong_leaf(audit_path):
    leaves = [f"leaf-{i}".encode() for i in range(8)]
    tree = MerkleTree(leaves)
    path = audit_path.of(leaves, 3)
    assert not audit_path.folds_to(tree.root, b"leaf-4", 3, path)


def test_proof_fails_for_wrong_root(audit_path):
    leaves = [f"leaf-{i}".encode() for i in range(8)]
    other = MerkleTree([b"x", b"y"])
    path = audit_path.of(leaves, 0)
    assert not audit_path.folds_to(other.root, b"leaf-0", 0, path)


def test_proof_fails_for_wrong_index(audit_path):
    leaves = [f"leaf-{i}".encode() for i in range(8)]
    tree = MerkleTree(leaves)
    path = audit_path.of(leaves, 2)
    assert not audit_path.folds_to(tree.root, b"leaf-2", 3, path)


def test_roots_differ_when_leaves_differ():
    assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root


def test_leaf_interior_domain_separation():
    # A tree over [H(a)||H(b)] must not equal the parent of [a, b]:
    # leaf and node hashes use distinct tags.
    inner = MerkleTree([b"a", b"b"])
    outer = MerkleTree([inner.root])
    assert inner.root != outer.root


def test_odd_level_duplication_consistent(audit_path):
    # 3 leaves: last leaf duplicated; every leaf still folds to the root.
    leaves = [b"a", b"b", b"c"]
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        assert audit_path.folds_to(tree.root, leaf, index, audit_path.of(leaves, index))
