import hashlib
import json
import random
from collections import Counter

import pytest

from linkchroma import (
    ClosedWalk,
    DomainError,
    Edge,
    EdgeEnd,
    Multigraph,
    PairedGraph,
    Pairing,
    RotationSystem,
    TwoComplex,
    WalkStep,
    genus_check,
    id_sort_key,
    link_graph,
    pair_chromatic_number,
    simple_quotient,
)
from linkchroma import formats
from linkchroma.construct import (
    _DELETE_PROB,
    _DUPLICATE_PROB,
    _with_twins,
    canonical_link_identification,
    check_seal_invariants,
    inverse_link,
    is_degree_faithful,
    link_matches_paired_graph,
    make_degree_faithful,
    pi_trail_decomposition,
    random_degree_faithful_planar,
    random_planar_paired_graph,
    seal,
)
from linkchroma.errors import short_repr
from linkchroma.triangulate import SphereTriangulation

from strategies import degree, endpoint, flipped, side_by_side, with_extras


def validate_trail(pg, trail):
    """Oracle for the partner-jump condition of a trail: each step enters
    its edge at the tail side, and the next step's tail vertex is the
    partner of the current step's head vertex."""
    partner = {u: v for pair in pg.pairing.pairs for u, v in (pair, pair[::-1])}
    edge = {e.id: e for e in pg.graph.edges}
    n = len(trail.steps)
    for i in range(n):
        here = trail.steps[i]
        there = trail.steps[(i + 1) % n]
        head = endpoint(edge[here.edge], 1 - here.entry)
        tail = endpoint(edge[there.edge], there.entry)
        if tail != partner[head]:
            raise DomainError(f"trail breaks the partner-jump condition at step {i}")


def single_pair_single_edge():
    g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
    rot = RotationSystem({"u": (EdgeEnd("e", 0),), "v": (EdgeEnd("e", 1),)})
    return PairedGraph(g, Pairing((("u", "v"),)), rot)


def cross_pair_adjacencies(pg):
    return {
        tuple(sorted((e.end0, e.end1), key=id_sort_key))
        for e in simple_quotient(pg).edges
    }


class TestMakeDegreeFaithful:
    def test_requires_rotation(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"),))
        pg = PairedGraph(g, Pairing((("u", "v"),)))
        with pytest.raises(DomainError):
            make_degree_faithful(pg)

    def test_already_faithful_input_only_doubles(self):
        pg = single_pair_single_edge()
        out = make_degree_faithful(pg)
        assert is_degree_faithful(out)
        assert len(out.graph.edges) == 2
        assert degree(out.graph, "u") == degree(out.graph, "v") == 2

    def test_unbalanced_pair_gets_loops(self):
        # deg(u) = 1, deg(v) = 3; after doubling 2 and 6; two loops at u
        g = Multigraph(
            ("u", "v", "x", "y"),
            (Edge("a", "u", "v"), Edge("b", "v", "x"), Edge("c", "v", "y"), Edge("d", "x", "y")),
        )
        rot = RotationSystem(
            {
                "u": (EdgeEnd("a", 0),),
                "v": (EdgeEnd("a", 1), EdgeEnd("b", 0), EdgeEnd("c", 0)),
                "x": (EdgeEnd("b", 1), EdgeEnd("d", 0)),
                "y": (EdgeEnd("d", 1), EdgeEnd("c", 1)),
            }
        )
        pg = PairedGraph(g, Pairing((("u", "v"), ("x", "y"))), rot)
        assert all(c.genus == 0 for c in genus_check(g, rot))
        assert not is_degree_faithful(pg)
        for stage in (pi_trail_decomposition, inverse_link):
            with pytest.raises(DomainError) as info:
                stage(pg)
            assert str(info.value) == "pairing is not degree-faithful"
        out = make_degree_faithful(pg)
        assert is_degree_faithful(out)
        assert degree(out.graph, "u") == degree(out.graph, "v") == 6
        loops = [e for e in out.graph.edges if e.is_loop]
        assert len(loops) == 2 and all(e.end0 == "u" for e in loops)

    def test_single_pair_no_edges_unchanged(self):
        g = Multigraph(("u", "v"), ())
        pg = PairedGraph(g, Pairing((("u", "v"),)), RotationSystem({}))
        out = make_degree_faithful(pg)
        assert out.graph.edges == ()

    def test_preserves_genus_and_adjacency_and_chromatic(self):
        for seed in range(20):
            pg = random_planar_paired_graph(seed, 1 + seed % 8)
            out = make_degree_faithful(pg)
            assert is_degree_faithful(out)
            assert all(c.genus == 0 for c in genus_check(out.graph, out.rotation))
            assert cross_pair_adjacencies(out) == cross_pair_adjacencies(pg)
            assert pair_chromatic_number(out)[0] == pair_chromatic_number(pg)[0]


def reference_degree_faithful(pg):
    """``make_degree_faithful`` written on the public constructors: every
    edge id keyed and sorted, every rotation pivot found by id order."""
    twin = {e.id: ("dbl", e.id) for e in pg.graph.edges}
    edges = list(pg.graph.edges) + [Edge(twin[e.id], e.end0, e.end1) for e in pg.graph.edges]
    orders = {}
    rotation = dict(pg.rotation.orders)
    for v in pg.graph.vertices:
        new = []
        for end in rotation.get(v, ()):
            t = EdgeEnd(twin[end.edge], end.side)
            new += (end, t) if end.side == 0 else (t, end)
        orders[v] = new
    for u, v in pg.pairing.pairs:
        du, dv = len(orders[u]), len(orders[v])
        w = u if du < dv else v
        for i in range(abs(du - dv) // 2):
            edges.append(Edge(("bal", w, i), w, w))
            orders[w] += [EdgeEnd(("bal", w, i), 0), EdgeEnd(("bal", w, i), 1)]
    return PairedGraph(Multigraph(pg.graph.vertices, tuple(edges)), pg.pairing, RotationSystem(orders))


def renamed(pg, vname, ename):
    """``pg`` with its vertices and edges renamed, through the public
    constructors."""
    g = Multigraph(
        tuple(map(vname, pg.graph.vertices)),
        tuple(Edge(ename(e.id), vname(e.end0), vname(e.end1)) for e in pg.graph.edges),
    )
    orders = {
        vname(v): tuple(EdgeEnd(ename(end.edge), end.side) for end in order) for v, order in pg.rotation.orders
    }
    pairs = tuple((vname(u), vname(v)) for u, v in pg.pairing.pairs)
    return PairedGraph(g, Pairing(pairs), RotationSystem(orders))


def mixed_vertex(v):
    """Vertex ids whose ``("bal", w, i)`` loops interleave with edge ids."""
    return (v, f"v{v}", ("bal", v), ("w", (v,)))[v % 4]


def mixed_edge(e):
    """Edge ids of every kind, some of which sort among the twins
    ``("dbl", id)`` and the loops ``("bal", w, i)``."""
    if isinstance(e, tuple):  # the generator's ("dup", k)
        return ("dbl", ("dup",) + e[1:])
    return (e, f"e{e}", ("dbl", "x", e), ("bal", e), ("a", e), (("t",), e), ("dbl", 10**6 + e))[e % 7]


def nested(x, depth):
    for _ in range(depth):
        x = (x,)
    return x


class TestDegreeFaithfulOrder:
    """``make_degree_faithful`` against the version built on the public
    constructors: equal graphs, pairings and rotations, and the same errors."""

    def maps(self):
        for seed in range(12):
            pg = random_planar_paired_graph(seed, 1 + (seed * 5) % 23)
            yield pg
            yield with_extras(pg)
            yield renamed(pg, mixed_vertex, mixed_edge)
        yield side_by_side(random_planar_paired_graph(1, 6), random_planar_paired_graph(2, 4))

    def test_matches_the_public_constructors(self):
        for pg in self.maps():
            out = make_degree_faithful(pg)
            ref = reference_degree_faithful(pg)
            assert out == ref
            assert out.graph.edges == ref.graph.edges
            assert out.rotation.orders == ref.rotation.orders

    def test_every_caller_hands_extended_new_ids_in_id_order(self, monkeypatch):
        from linkchroma.search import search_witness

        extended = Multigraph._extended.__func__
        added = []

        def checked(cls, g, new_ids, new_at):
            keys = list(map(id_sort_key, new_ids))
            assert all(a < b for a, b in zip(keys, keys[1:]))
            added.append(len(new_ids))
            return extended(cls, g, new_ids, new_at)

        monkeypatch.setattr(Multigraph, "_extended", classmethod(checked))
        for pg in self.maps():  # random maps are built through _extended too
            make_degree_faithful(pg)
        witnesses = len(added)
        search_witness(seed=34, budget=6000)
        assert added[witnesses:] == [0]  # the witness adds no edge
        assert len(added) > 40 and sum(added) > 1000

    def test_augmenting_a_1600_pair_map_keys_few_ids(self, monkeypatch):
        from linkchroma import core

        pg = random_planar_paired_graph(0, 1600)
        keyed = []
        key = core.id_sort_key
        monkeypatch.setattr(core, "id_sort_key", lambda v: keyed.append(v) or key(v))
        out = make_degree_faithful(pg)
        # The new ids are validated by type, with no key, and the merge
        # probes about 2 log2 of the 9457 old ids: a few dozen keys of the
        # 26,502 ids the map ends with.
        assert len(pg.graph.edge_ids()) == 9457 and len(out.graph.edge_ids()) == 26502
        assert len(keyed) <= 64

    def test_a_twin_id_taken_by_an_edge_is_a_duplicate(self):
        g = Multigraph(("u", "v"), (Edge(3, "u", "v"), Edge(("dbl", 3), "u", "v")))
        rot = RotationSystem({"u": (EdgeEnd(3, 0), EdgeEnd(("dbl", 3), 0)), "v": (EdgeEnd(3, 1), EdgeEnd(("dbl", 3), 1))})
        pg = PairedGraph(g, Pairing((("u", "v"),)), rot)
        for build in (make_degree_faithful, reference_degree_faithful):
            with pytest.raises(DomainError) as info:
                build(pg)
            assert str(info.value) == "duplicate edge id ('dbl', 3)"

    def test_a_new_id_nested_too_deep_is_rejected(self):
        deep = nested("e", 32)
        g = Multigraph(("u", "v"), (Edge(deep, "u", "v"), Edge(("dbl", 3), "u", "v"), Edge(3, "u", "v")))
        rot = RotationSystem(
            {
                "u": (EdgeEnd(deep, 0), EdgeEnd(3, 0), EdgeEnd(("dbl", 3), 0)),
                "v": (EdgeEnd(deep, 1), EdgeEnd(("dbl", 3), 1), EdgeEnd(3, 1)),
            }
        )
        pg = PairedGraph(g, Pairing((("u", "v"),)), rot)
        for build in (make_degree_faithful, reference_degree_faithful):
            with pytest.raises(DomainError) as info:
                build(pg)
            assert str(info.value) == "ids may nest tuples at most 32 deep"

    @pytest.mark.parametrize("depth, ok", [(31, True), (32, False)])
    def test_a_balancing_loop_nested_too_deep_is_rejected(self, depth, ok):
        w = nested("w", depth)  # a valid vertex id; ("bal", w, i) is one deeper
        g = Multigraph((w, "v", "x", "y"), (Edge("e", "v", "x"),))
        rot = RotationSystem({"v": (EdgeEnd("e", 0),), "x": (EdgeEnd("e", 1),)})
        pg = PairedGraph(g, Pairing(((w, "v"), ("x", "y"))), rot)
        for build in (make_degree_faithful, reference_degree_faithful):
            if ok:
                assert degree(build(pg).graph, w) == 2
            else:
                with pytest.raises(DomainError) as info:
                    build(pg)
                assert str(info.value) == "ids may nest tuples at most 32 deep"


class TestTrailDecomposition:
    def test_requires_degree_faithful(self):
        g = Multigraph(
            ("u", "v", "w", "x"), (Edge("a", "u", "v"), Edge("b", "u", "w"))
        )
        pg = PairedGraph(g, Pairing((("u", "v"), ("w", "x"))))
        with pytest.raises(DomainError):
            pi_trail_decomposition(pg)

    def test_single_edge_single_trail(self):
        pg = single_pair_single_edge()
        trails = pi_trail_decomposition(pg)
        assert len(trails) == 1 and len(trails[0]) == 1
        validate_trail(pg, trails[0])

    def test_two_parallel_edges(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"), Edge("f", "u", "v")))
        pg = PairedGraph(g, Pairing((("u", "v"),)))
        trails = pi_trail_decomposition(pg)
        used = sorted(s.edge for t in trails for s in t.steps)
        assert used == ["e", "f"]
        for t in trails:
            validate_trail(pg, t)

    def test_covers_each_edge_once(self):
        for seed in range(25):
            pg = random_degree_faithful_planar(seed, 1 + seed % 10)
            trails = pi_trail_decomposition(pg)
            used = sorted((s.edge for t in trails for s in t.steps), key=id_sort_key)
            assert used == sorted(pg.graph.edge_ids(), key=id_sort_key)
            for t in trails:
                validate_trail(pg, t)

    def test_deterministic(self):
        pg = random_degree_faithful_planar(5, 6)
        assert pi_trail_decomposition(pg) == pi_trail_decomposition(pg)

    @staticmethod
    def several_components():
        """A degree-faithful map whose paired quotient has three components
        with interleaved ids: two pairs joined by a path with a loop inside
        one pair, three pairs in a triangle with parallels and loops, and a
        pair with no edges."""
        g = Multigraph(
            (0, 1, 2, 3, 4, "a", "b", "c", ("t", 1), ("t", 2)),
            (
                Edge("e1", 0, 2),
                Edge("e2", "a", "c"),
                Edge(("in", 0), 0, "a"),
                Edge(5, 1, ("t", 1)),
                Edge(6, 1, ("t", 1)),
                Edge(("p", 1), "b", ("t", 2)),
                Edge(("p", 2), "b", ("t", 2)),
                Edge(7, ("t", 1), 3),
                Edge(8, ("t", 2), 4),
                Edge("w", 4, 1),
                Edge("v", 3, "b"),
                Edge(("l", 0), 3, 3),
                Edge(("l", 1), 4, 4),
            ),
        )
        pairs = ((0, "a"), (2, "c"), (1, "b"), (("t", 1), ("t", 2)), (3, 4), ("iso", "x"))
        g = Multigraph(g.vertices + ("iso", "x"), g.edges)
        return PairedGraph(g, Pairing(pairs))

    # SHA-256 of ``repr(pi_trail_decomposition(pg))``, joined by newlines over
    # ``random_degree_faithful_planar(seed, n)`` for seeds 0-11, and of the
    # hand-built map of several components; recorded by running the
    # decomposition while it still walked the paired quotient by ids.
    TRAIL_SHA256 = {
        1: "72bb65f90f519ab0b21d92ddc2b5482d2e9798de44c990a75f78a9f90016ef9e",
        2: "3367424150fe61c8e3687e26874a6fb5ac9fe8acf84a53d5238ebcd689e4943c",
        3: "b8350976372724459479a27159b867437060f7c43a61a70cc2d0034266467833",
        7: "2125bf36afbbe0db5672ba86dda3503e5f6283515f8131b38e04d2e564e7074e",
        25: "e68348027abcfe83ac928ef4193f4841ff80cc0777a52f85837e2af2c981860c",
        "components": "fa42bdbb43c7644baa5b2628f7925be3826d6d01dab6fea569a9d96f8eaf8e96",
    }

    @pytest.mark.parametrize("case", list(TRAIL_SHA256), ids=str)
    def test_trails_match_pinned_digests(self, case):
        if case == "components":
            maps = [self.several_components()]
        else:
            maps = [random_degree_faithful_planar(seed, case) for seed in range(12)]
        reprs = []
        for pg in maps:
            trails = pi_trail_decomposition(pg)
            for t in trails:
                validate_trail(pg, t)
            used = [s.edge for t in trails for s in t.steps]
            assert sorted(used, key=id_sort_key) == list(pg.graph.edge_ids())
            reprs.append(repr(trails))
        digest = hashlib.sha256("\n".join(reprs).encode("utf-8")).hexdigest()
        assert digest == self.TRAIL_SHA256[case]


class TestInverseLink:
    def test_single_pair_single_edge(self):
        pg = make_degree_faithful(single_pair_single_edge())
        c = inverse_link(pg)
        assert c.kind == "punctured"
        assert len(c.skeleton.vertices) == 1
        assert len(c.skeleton.edges) == 1 and c.skeleton.edges[0].is_loop
        L = link_graph(c)
        assert link_matches_paired_graph(L, pg, canonical_link_identification(pg))

    def test_no_edges_gives_loops_but_no_cells(self):
        g = Multigraph((0, 1, 2, 3), ())
        pg = PairedGraph(g, Pairing(((0, 1), (2, 3))), RotationSystem({}))
        c = inverse_link(pg)
        assert len(c.skeleton.edges) == 2
        assert c.cells == ()
        assert link_graph(c).graph.edges == ()

    def test_requires_certificate(self):
        g = Multigraph(("u", "v"), (Edge("e", "u", "v"), Edge("f", "u", "v")))
        pg = PairedGraph(g, Pairing((("u", "v"),)))
        with pytest.raises(DomainError):
            inverse_link(pg)

    def test_round_trip_on_random_instances(self):
        for seed in range(50):
            pg = random_degree_faithful_planar(seed, 1 + seed % 12)
            c = inverse_link(pg)
            L = link_graph(c)
            assert link_matches_paired_graph(L, pg, canonical_link_identification(pg)), seed

    def test_a_wrong_vertex_set_or_edge_multiset_does_not_match(self):
        pg = make_degree_faithful(single_pair_single_edge())
        L, ident = link_graph(inverse_link(pg)), canonical_link_identification(pg)
        first, second = L.graph.vertices[:2]
        assert not link_matches_paired_graph(L, pg, {**ident, second: ident[first]})  # two on one
        fewer = PairedGraph(Multigraph(pg.graph.vertices, pg.graph.edges[1:]), pg.pairing)
        assert not link_matches_paired_graph(L, fewer, ident)


class TestSeal:
    def test_rejects_genuine_complex(self):
        g = Multigraph(("h",), (Edge("e", "h", "h"),))
        c = TwoComplex(g, (ClosedWalk((WalkStep("e", 0),)),), kind="genuine")
        with pytest.raises(DomainError):
            seal(c)

    def test_length_one_walk_seals_to_four(self):
        g = Multigraph(("h",), (Edge("e", "h", "h"),))
        c = TwoComplex(g, (ClosedWalk((WalkStep("e", 0),)),), kind="punctured")
        s = seal(c)
        assert s.kind == "genuine"
        assert len(s.cells[0]) == 4

    def test_step_sequence_pattern(self):
        # W = s1 s2 s3 seals to s1 s2 s3 s1 s1~ s3~ s2~ s1~
        g = Multigraph(("h",), (Edge("x", "h", "h"), Edge("y", "h", "h"), Edge("z", "h", "h")))
        s1, s2, s3 = WalkStep("x", 0), WalkStep("y", 1), WalkStep("z", 0)
        c = TwoComplex(g, (ClosedWalk((s1, s2, s3)),), kind="punctured")
        sealed = seal(c).cells[0]
        assert sealed.steps == (
            s1, s2, s3, s1,
            flipped(s1), flipped(s3), flipped(s2), flipped(s1),
        )

    def test_link_graph_invariants(self):
        for seed in range(25):
            pg = random_degree_faithful_planar(100 + seed, 1 + seed % 9)
            c = inverse_link(pg)
            s = seal(c)
            Lc, Ls = link_graph(c), link_graph(s)
            assert set(Ls.graph.vertices) == set(Lc.graph.vertices)

            def multiset(L):
                return Counter(
                    tuple(sorted((e.end0, e.end1), key=id_sort_key)) for e in L.graph.edges
                )

            assert not (multiset(Lc) - multiset(Ls))  # superset
            check_seal_invariants(Lc, Ls)
            for before, after in zip(c.cells, s.cells):
                assert len(after) == 2 * len(before) + 2

    def test_seal_invariant_faults_are_named(self):
        g = Multigraph(("h",), (Edge("x", "h", "h"), Edge("y", "h", "h"), Edge("z", "h", "h")))
        c = TwoComplex(g, (ClosedWalk((WalkStep("x", 0), WalkStep("y", 1), WalkStep("z", 0))),), kind="punctured")
        before, after = link_graph(c), link_graph(seal(c))
        check_seal_invariants(before, after)
        other = link_graph(TwoComplex(Multigraph(("h",), (Edge("x", "h", "h"),)), (), kind="punctured"))
        no_cells = link_graph(TwoComplex(c.skeleton, (), kind="punctured"))
        faults = [
            (before, other, "sealing changed the link graph's vertex set"),
            (after, before, "sealing lost link edges"),
            (no_cells, after, "sealing added a link edge that is neither a loop nor a parallel"),
        ]
        for punctured_link, sealed_link, message in faults:
            with pytest.raises(DomainError) as info:
                check_seal_invariants(punctured_link, sealed_link)
            assert str(info.value) == message


def generator_case_id(case):
    """The test id of a (seed, n) case: ``n`` for seed 0, else ``seed-n``."""
    seed, n_pairs = case
    return str(n_pairs) if seed == 0 else f"{seed}-{n_pairs}"


class TestRandomGenerator:
    def test_one_pair(self):
        pg = random_planar_paired_graph(3, 1)
        assert len(pg.graph.vertices) == 2
        assert all(c.genus == 0 for c in genus_check(pg.graph, pg.rotation))

    def test_always_certified_planar(self):
        for seed in range(40):
            pg = random_planar_paired_graph(seed, 1 + (seed * 13) % 40)
            assert all(c.genus == 0 for c in genus_check(pg.graph, pg.rotation))

    def test_quotient_min_degree_at_most_11(self):
        for seed in range(40):
            pg = random_planar_paired_graph(seed, 1 + (seed * 7) % 60)
            sq = simple_quotient(pg)
            if sq.vertices:
                assert min(degree(sq, v) for v in sq.vertices) <= 11

    def test_deterministic(self):
        assert random_planar_paired_graph(11, 9) == random_planar_paired_graph(11, 9)

    # SHA-256 of the paired-graph document of ``random_planar_paired_graph(seed,
    # n)``, keyed by (seed, n); n = 1 takes the branch without a triangulation,
    # whose one edge seed 4 duplicates and seed 14 deletes.
    GENERATOR_SHA256 = {
        (0, 1): "f3ec6ac3d51984fc339c6bc66799cd42e8c030782080b6505c44653003a64678",
        (0, 2): "16bdb3718062a8c7d039950ccc3d47262ab9632ba131059bf2e10e3190288766",
        (0, 50): "fbfbe119669c87fa9d80627451f273283c44b6305d410e9be5954d26e57bfc89",
        (0, 400): "222820bac315b33f69ee8d85029fd808e76c704ea290d34bf3d80e15b67c0736",
        (1, 5): "af0dd58c9a46d3fe6cd0d2aae3e897900b19626666b20618b59fef8d91bee732",
        (2, 5): "bb6d2a162b0834dc3104e2612adac766f0b19046a685be51870c32def444b488",
        (3, 5): "22e1d5f556d9e3904fc5133de8799e05b2ade3d9e3afa1ebd7c21790e885db41",
        (1, 60): "77059c0cdd72ec298e6179ae413421c2920cdb416b9e80e2671c6b8995360728",
        (2, 60): "e1f9f002e019152b593b08abe63e1c1187a226d1e9b72176f0610270235871ae",
        (3, 60): "660cc200e939b3c2159a6b2ace7db1a996b69f90b5a7fc826686bea08ab9ce17",
        (1, 1600): "958d04a19d1af89940227f2e43dd6d61759e5417244642a400388a8728fa18b4",
        (4, 1): "55407c79cecb958e142615c825726af904494556dc05774a02b0b7b5479c22c7",
        (14, 1): "519bbc0861a7b70368b76669d0576f145b0b60d59735fe8e1096a7e0c6319e20",
    }
    # SHA-256 of the document of ``make_degree_faithful`` on each map above,
    # rotation included.
    DEGREE_FAITHFUL_SHA256 = {
        (0, 1): "0dff9d8d3acc29603ed9c483f51546adf3d8f7a20555f9757d3a3176be6b407e",
        (0, 2): "240cee0018c127eafc0a527465859b841de2660b7fd3482c5e6755fc52faa15f",
        (0, 50): "b7dcac1e480a85ef71b50e0313002e5ac0a9583e11647c84df4bc27d0973ecc0",
        (0, 400): "c287f5e31f130bc02cd41949cc17ea061c4d4b0472cd35361c4c27461105e0da",
        (1, 5): "847e305a2bcce8902d8e264380b93e079e4fefd5b3fcafb55beb3a0d9da4d491",
        (2, 5): "9e77a7e392e0a0e8f5c8a446bdca5a046c28227d0a87aa9461b3b52cd2684976",
        (3, 5): "666b53faa2b0811f870cd0c84ffb4abaa74fa4f076f4e31f4f996bc74b8aae79",
        (1, 60): "dc21cf9a6400f980cf7c2aada12a44bffa02690238a07c1571313b1b86cf353f",
        (2, 60): "d870b5efd5881a0ddb0a1c49de804a109e78aeeccd78b99983c78cc98c975cef",
        (3, 60): "b6fd540c222cc23d1823270dcf309c21f3538ba84b727f2ae1b474d57e747810",
        (1, 1600): "b4bbb3ffbd9cddac6724883a8774b9cc099916bf87cbb61c91ccc997479a4b8f",
        (4, 1): "b3bb81843c2c4874373578a969cb265e7fc1a0a16dad0c5b49f261fa7d686acb",
        (14, 1): "519bbc0861a7b70368b76669d0576f145b0b60d59735fe8e1096a7e0c6319e20",
    }

    @pytest.mark.parametrize("case", sorted(GENERATOR_SHA256), ids=generator_case_id)
    def test_documents_match_pinned_digests(self, case):
        text = formats.dumps(formats.paired_graph_to_doc(random_planar_paired_graph(*case)))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.GENERATOR_SHA256[case]

    @pytest.mark.parametrize("case", sorted(DEGREE_FAITHFUL_SHA256), ids=generator_case_id)
    def test_augmented_documents_match_pinned_digests(self, case):
        out = make_degree_faithful(random_planar_paired_graph(*case))
        text = formats.dumps(formats.paired_graph_to_doc(out))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.DEGREE_FAITHFUL_SHA256[case]

    def test_rejects_zero_pairs(self):
        with pytest.raises(DomainError):
            random_planar_paired_graph(0, 0)

    @pytest.mark.parametrize("n_pairs", [2.5, 2.0, "3", True, False, None])
    def test_rejects_a_pair_count_that_is_not_an_int(self, n_pairs):
        with pytest.raises(DomainError, match="^the number of pairs .* must be an int$"):
            random_planar_paired_graph(0, n_pairs)

    @pytest.mark.parametrize("seed", [None, True, False, 2.5, [1], (1,), b"1"])
    def test_rejects_a_seed_that_is_not_an_int_or_a_str(self, seed):
        # None would draw from the OS, and the map could not be replayed
        for build in (random_planar_paired_graph, random_degree_faithful_planar):
            with pytest.raises(DomainError) as info:
                build(seed, 5)
            assert str(info.value) == f"seed {short_repr(seed)} must be an int or a str"

    def test_a_str_seed_replays(self):
        assert random_planar_paired_graph("a", 20) == random_planar_paired_graph("a", 20)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_replaced_generator(self, seed):
        for n_pairs in range(1, 31):
            assert_same_maps(random_planar_paired_graph(seed, n_pairs), reference_generator(seed, n_pairs))

    def test_matches_the_replaced_generator_where_the_one_edge_is_deleted(self):
        pg = random_planar_paired_graph(14, 1)
        assert pg.graph._ids == () and pg.rotation.orders == ()
        assert_same_maps(pg, reference_generator(14, 1))

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_grow_draws_what_randrange_draws_per_insertion(self, seed):
        for n in (3, 4, 5, 24, 100, 257):
            mine, theirs = random.Random(seed), random.Random(seed)
            tri = SphereTriangulation()
            tri.grow(n, mine)
            origin, fnext, adj = reference_triangulation(n, theirs)
            assert mine.getstate() == theirs.getstate()
            assert (tri.origin, tri.fnext, tri.num_vertices) == (origin, fnext, n)
            # the sets built on read hold, and iterate, as those kept per insertion
            assert list(tri.adj) == list(adj)
            assert list(map(list, tri.adj.values())) == list(map(list, adj.values()))

    def test_the_maps_match_their_pinned_digest(self):
        assert _random_maps_digest(random_planar_paired_graph) == RANDOM_MAPS_SHA256


# SHA-256 over the paired-graph documents of ``random_planar_paired_graph`` on
# RANDOM_MAP_CASES, in order, one JSON line a map: the maps of the
# ``planar-twelve-colouring`` acceptance check, then two large ones; recorded
# before the generator grew its triangulation with ``SphereTriangulation.grow``
RANDOM_MAP_CASES = [(i, (i % 100) + 1) for i in range(1000)] + [(0, 1600), (0, 3200)]
RANDOM_MAPS_SHA256 = "fcab57bed56dc9f033ca2659794dbbb17668d08b615f1bd8cc01db6d394459f1"


def _random_maps_digest(generate):
    h = hashlib.sha256()
    for seed, n_pairs in RANDOM_MAP_CASES:
        h.update(json.dumps(formats.paired_graph_to_doc(generate(seed, n_pairs))).encode("utf-8") + b"\n")
    return h.hexdigest()


def reference_triangulation(n, rng):
    """The replaced insertion loop: a triangle grown to ``n`` vertices by
    ``insert_vertex(rng.randrange(num_darts))``, each new edge added to the
    adjacency sets as it is made.  Returns ``origin``, ``fnext`` and the
    sets."""
    origin, fnext = [0, 1, 1, 2, 2, 0], [2, 5, 4, 1, 0, 3]
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    def new_edge(u, v):
        k = len(origin) // 2
        origin.extend((u, v))
        fnext.extend((-1, -1))
        adj[u].add(v)
        adj[v].add(u)
        return k

    while len(adj) < n:
        d = rng.randrange(len(origin))
        a = fnext[d]
        b = fnext[a]
        x, y, z = origin[d], origin[a], origin[b]
        v = len(adj)
        adj[v] = set()
        ex, ey, ez = new_edge(x, v), new_edge(y, v), new_edge(z, v)
        xv, vx = 2 * ex, 2 * ex + 1
        yv, vy = 2 * ey, 2 * ey + 1
        zv, vz = 2 * ez, 2 * ez + 1
        fnext[d], fnext[yv], fnext[vx] = yv, vx, d
        fnext[a], fnext[zv], fnext[vy] = zv, vy, a
        fnext[b], fnext[xv], fnext[vz] = xv, vz, b
    return origin, fnext, adj


def reference_generator(seed, n_pairs):
    """The replaced ``random_planar_paired_graph``: its own graph of the kept
    edges and successor column that passes over the deleted ones, handed to
    ``_with_twins`` with no edge to drop, and the public ``Pairing``."""
    rng = random.Random(seed)
    n = 2 * n_pairs
    if n < 3:
        origin, fnext = (0, 1), (1, 0)
    else:
        origin, fnext, _ = reference_triangulation(n, rng)
    kept = [k for k in range(len(origin) // 2) if rng.random() >= _DELETE_PROB]
    position = [-1] * (len(origin) // 2)
    for i, k in enumerate(kept):
        position[k] = i
    succ = []
    for k in kept:
        for d in (2 * k, 2 * k + 1):
            d = fnext[d ^ 1]
            while position[d >> 1] < 0:
                d = fnext[d ^ 1]
            succ.append(2 * position[d >> 1] + (d & 1))
    g = Multigraph._from_columns(tuple(range(n)), tuple(kept), [origin[d] for k in kept for d in (2 * k, 2 * k + 1)])
    twin_of, new_ids, new_at = [], [], []
    for k in kept:
        if rng.random() < _DUPLICATE_PROB:
            twin_of.append(len(new_ids))
            new_ids.append(("dup", k))
            new_at += origin[2 * k : 2 * k + 2]
        else:
            twin_of.append(-1)
    verts = list(range(n))
    rng.shuffle(verts)
    pairing = Pairing(tuple((verts[2 * i], verts[2 * i + 1]) for i in range(n_pairs)))
    graph, rotation = _with_twins(g, succ, twin_of, new_ids, new_at, [()] * n)
    return PairedGraph(graph, pairing, rotation)


def assert_same_maps(pg, ref):
    """Equal vertex and edge ids, dart columns, pairings, stored rotation
    records and successor arrays."""
    assert (pg.graph.vertices, pg.graph._ids, pg.graph._at) == (ref.graph.vertices, ref.graph._ids, ref.graph._at)
    assert pg.pairing.pairs == ref.pairing.pairs
    assert pg.rotation._norm[1] == ref.rotation._norm[1]
    assert list(pg._succ) == list(ref._succ)
    assert pg == ref
