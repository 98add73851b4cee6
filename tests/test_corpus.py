"""The small-complex corpus: the same complexes in the same order, each
walk checked once where it is made, and the walks shared by every complex
over their skeleton.
"""

import hashlib
import json
from itertools import islice

import pytest

from linkchroma import corpus
from linkchroma.core import ClosedWalk, TwoComplex, WalkStep, validate_walk
from linkchroma.corpus import enumerate_small_complexes
from linkchroma.errors import DomainError

# SHA-256 over ``enumerate_small_complexes()``, in order, one JSON line a
# complex: [skeleton vertices, edge ids, dart column, cells as lists of
# [edge, entry] steps]; recorded while every complex was still built
# through the public ``TwoComplex`` constructor
CORPUS_SHA256 = "a6030f32c1670e77f8e515f67982b14e904ef015a53de2070a3cd37190bb46bd"
CORPUS_SIZE = 40514
CORPUS_WALKS = 902  # the walks of all skeletons, as ``enumerate_closed_walks`` gives them


def _corpus_digest(complexes):
    """The count of ``complexes`` and one SHA-256 over them, in order, one
    JSON line a complex."""
    h = hashlib.sha256()
    count = 0
    for c in complexes:
        g = c.skeleton
        row = [list(g.vertices), list(g.edge_ids()), list(g._at), [[list(s) for s in w.steps] for w in c.cells]]
        h.update(json.dumps(row).encode("utf-8") + b"\n")
        count += 1
    return count, h.hexdigest()


def test_the_corpus_matches_its_pinned_digest():
    assert _corpus_digest(enumerate_small_complexes()) == (CORPUS_SIZE, CORPUS_SHA256)


def test_every_50th_complex_is_the_constructors():
    for c in islice(enumerate_small_complexes(), 0, None, 50):
        built = TwoComplex(c.skeleton, c.cells)
        assert c == built
        assert c.cells == built.cells
        assert type(c.cells) is tuple


def test_the_complexes_over_one_skeleton_share_their_walks():
    # one walk object for each distinct walk of a skeleton, however many
    # complexes hold it
    skeleton, walks, distinct = None, {}, 0
    for c in enumerate_small_complexes():
        if c.skeleton is not skeleton:
            distinct += len(walks)
            skeleton, walks = c.skeleton, {}
        for w in c.cells:
            assert walks.setdefault(w.steps, w) is w
    assert distinct + len(walks) == CORPUS_WALKS


def test_each_walk_is_checked_once(monkeypatch):
    checked = []

    def counting(g, walk):
        checked.append(walk)
        validate_walk(g, walk)

    monkeypatch.setattr(corpus, "validate_walk", counting)
    assert sum(1 for _ in enumerate_small_complexes()) == CORPUS_SIZE
    assert len(checked) == CORPUS_WALKS


@pytest.mark.parametrize(
    "fault, message",
    [
        # the first skeleton of two vertices is one edge between them, which
        # a walk of one step leaves at the other vertex
        (lambda g: ClosedWalk((WalkStep(g.edge_ids()[0], 0),)), "walk is not vertex-compatible between steps 0 and 0"),
        (lambda g: ClosedWalk((WalkStep("nowhere", 0),)), "walk not contained in skeleton: unknown edge 'nowhere'"),
    ],
    ids=["not-vertex-compatible", "unknown-edge"],
)
def test_a_faulty_walk_is_refused(monkeypatch, fault, message):
    enumerate_walks = corpus.enumerate_closed_walks

    def with_fault(g):
        walks = enumerate_walks(g)
        return walks + [fault(g)] if len(g.vertices) >= 2 else walks

    monkeypatch.setattr(corpus, "enumerate_closed_walks", with_fault)
    with pytest.raises(DomainError) as info:
        list(enumerate_small_complexes())
    assert str(info.value) == message
