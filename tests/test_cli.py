import hashlib
import json
import sys
from pathlib import Path

import pytest

from linkchroma import Edge, Multigraph, PairedGraph, Pairing, RotationSystem, cli, formats, link_graph
from linkchroma.catalogue import complete_graph, triangle_complex
from linkchroma.cli import main
from linkchroma.construct import load_shipped_witness, random_planar_paired_graph
from linkchroma.errors import DomainError

from strategies import ends_at, side_by_side, with_extras


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    formats.save(path, formats.complex_to_doc(triangle_complex()))
    return str(path)


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "witness.json"
    formats.save(path, formats.witness_to_doc(load_shipped_witness()))
    return str(path)


# SHA-256 of the stderr ``elimination_order`` line and of the ``--out``
# colouring that ``heawood12`` writes for ``random_planar_paired_graph(0,
# 1600)``.  The CI step that times this run checks it against these too.
HEAWOOD_1600_SHA256 = (
    "055c638a0c83a27682e98f77edd2603ccd589e6234e8470b3f5bd9ed8f79d936",
    "7abdf199cbcf0946bded58717a260e59ba93a0ee17795909c5bd5dd2d2b6ee06",
)

# SHA-256 of the map document of ``random_planar_paired_graph(0, 1600)`` and
# of the files that ``augment``, ``inverse-link``, ``seal`` and ``link
# --out`` write from it, each stage fed by the one before.  The CI step that
# times this chain checks its files against these too.
CHAIN_1600_SHA256 = {
    "map": "de5b269f17f678d8b2b928c8ec455e4d4e2e918a34c092a4c84e92e182a397a2",
    "augmented": "845bfdd838fed9cb4b3999009331c8feec5a500adbf7c98af3d6241caddd0506",
    "punctured": "8baf8463e36ad2a4cf32ae03c1311a0d2912ff571d875b70f2a6e22544620513",
    "sealed": "b5f1eab7579a4251916c01150b30ea8da830dd27462b9ffd47777f27a4952c77",
    "link": "9d65b1c7b4ddddf9f88d1ed21436de7a7a30ccf68571a4c9189e4bb2ccc4fb31",
}


def renamed_vertices(pg: PairedGraph, name) -> PairedGraph:
    """``pg`` with each vertex ``v`` renamed ``name(v)``, its pairing and
    rotation carried over."""
    g = pg.graph
    graph = Multigraph(tuple(map(name, g.vertices)), tuple(Edge(e.id, name(e.end0), name(e.end1)) for e in g.edges))
    pairing = Pairing(tuple((name(u), name(v)) for u, v in pg.pairing.pairs))
    return PairedGraph(graph, pairing, RotationSystem(tuple((name(v), order) for v, order in pg.rotation.orders)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLinkAndQuotient:
    def test_link_writes_paired_graph(self, capsys, tmp_path, triangle_file):
        out = tmp_path / "link.json"
        code, stdout, _ = run(capsys, "link", "--in", triangle_file, "--out", str(out))
        assert code == 0
        assert "6 vertices, 3 edges, 3 pairs" in stdout
        pg = formats.paired_graph_from_doc(formats.load(out))
        assert pg == link_graph(triangle_complex())

    def test_quotient_simple(self, capsys, tmp_path, triangle_file):
        link_path = tmp_path / "link.json"
        run(capsys, "link", "--in", triangle_file, "--out", str(link_path))
        q_path = tmp_path / "q.json"
        code, stdout, _ = run(capsys, "quotient", "--in", str(link_path), "--simple", "--out", str(q_path))
        assert code == 0
        assert "3 vertices, 3 edges" in stdout
        g = formats.graph_from_doc(formats.load(q_path))
        assert len(g.vertices) == 3


class TestChroma:
    def test_k12_prints_12(self, capsys, tmp_path):
        path = tmp_path / "k12.json"
        formats.save(path, formats.graph_to_doc(complete_graph(12)))
        code, stdout, stderr = run(capsys, "chroma", "--in", str(path))
        assert code == 0
        assert stdout.strip() == "12"
        assert json.loads(stderr.splitlines()[0])["solver"]["clique_size"] == 12

    def test_palette_check_fails_with_exit_1(self, capsys, tmp_path):
        path = tmp_path / "k12.json"
        formats.save(path, formats.graph_to_doc(complete_graph(12)))
        code, stdout, stderr = run(capsys, "chroma", "--in", str(path), "--palette", "11")
        assert code == 1
        assert "error:domain:" in stderr

    def test_colouring_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "k4.json"
        formats.save(path, formats.graph_to_doc(complete_graph(4)))
        out = tmp_path / "col.json"
        code, stdout, _ = run(capsys, "chroma", "--in", str(path), "--out", str(out))
        assert code == 0
        doc = formats.load(out)
        assert doc["palette_size"] == 4
        assert sorted(doc["assignment"].items()) == [("0", 0), ("1", 1), ("2", 2), ("3", 3)]

    # The solver line of the triangle, every field pinned: the clique is
    # reported by the link graph's third-edge ids, not by positions.
    TRIANGLE_SOLVER_LINE = (
        '{"solver": {"clique_size": 3, "clique": [["a", 0], ["b", 0], ["c", 0]], '
        '"dsatur_upper": 3, "branch_nodes": 0}}\n'
    )

    def test_colour_complex(self, capsys, triangle_file):
        code, stdout, stderr = run(capsys, "colour-complex", "--in", triangle_file)
        assert code == 0
        assert stdout == "3\n"
        assert stderr == self.TRIANGLE_SOLVER_LINE

    def test_pair_chroma(self, capsys, tmp_path, triangle_file):
        link_path = tmp_path / "link.json"
        run(capsys, "link", "--in", triangle_file, "--out", str(link_path))
        code, stdout, stderr = run(capsys, "pair-chroma", "--in", str(link_path))
        assert code == 0
        assert stdout == "3\n"
        assert stderr == self.TRIANGLE_SOLVER_LINE


    def test_budget_exhaustion_exits_1_with_both_bounds(self, capsys, tmp_path):
        # The solve branches deeper than the default recursion limit; the
        # search runs from an explicit stack, so the limit is left as it is.
        assert sys.getrecursionlimit() <= 1000
        path = tmp_path / "map.json"
        formats.save(path, formats.paired_graph_to_doc(random_planar_paired_graph(0, 1600)))
        out = tmp_path / "col.json"
        code, stdout, stderr = run(
            capsys, "pair-chroma", "--in", str(path), "--budget", "20000", "--out", str(out)
        )
        assert code == 1
        assert stdout == ""
        assert stderr.splitlines() == [
            "error:domain: branch-and-bound budget of 20000 nodes exhausted: "
            "the chromatic number is at least 5 and at most 6"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, doc, assignment",
        [
            ("chroma", lambda: formats.graph_to_doc(complete_graph(5)), {"0": 0, "1": 1, "2": 2, "3": 3, "4": 4}),
            (
                "pair-chroma",
                lambda: formats.paired_graph_to_doc(link_graph(triangle_complex())),
                {"a:0:a:1": 0, "b:0:b:1": 1, "c:0:c:1": 2},
            ),
            ("colour-complex", lambda: formats.complex_to_doc(triangle_complex()), {"a": 0, "b": 1, "c": 2}),
        ],
    )
    def test_out_on_every_exact_command(self, capsys, tmp_path, command, doc, assignment):
        path, out = tmp_path / "doc.json", tmp_path / "col.json"
        formats.save(path, doc())
        code, stdout, stderr = run(capsys, command, "--in", str(path), "--out", str(out))
        assert code == 0
        assert stderr.splitlines()[1] == f"wrote {out}"
        assert formats.load(out) == {"palette_size": len(assignment), "assignment": assignment}

    @pytest.mark.parametrize("command", ["chroma", "pair-chroma", "colour-complex"])
    def test_budget_option_on_every_exact_command(self, capsys, tmp_path, command):
        doc = {
            "chroma": lambda: formats.graph_to_doc(complete_graph(5)),
            "pair-chroma": lambda: formats.paired_graph_to_doc(link_graph(triangle_complex())),
            "colour-complex": lambda: formats.complex_to_doc(triangle_complex()),
        }[command]()
        path = tmp_path / "doc.json"
        formats.save(path, doc)
        # Each closes at the root, so a budget of no branch nodes suffices.
        code, stdout, stderr = run(capsys, command, "--in", str(path), "--budget", "0")
        assert code == 0
        assert json.loads(stderr)["solver"]["branch_nodes"] == 0


class TestPipeline:
    def test_writes_all_stages_and_prints_12(self, capsys, tmp_path):
        out_dir = tmp_path / "stages"
        code, stdout, stderr = run(capsys, "pipeline", "--out", str(out_dir))
        assert code == 0
        assert "edge-chromatic number: 12" in stdout
        for name in (
            "witness.json",
            "augmented.json",
            "punctured.json",
            "sealed.json",
            "colouring-exact.json",
            "colouring-degeneracy.json",
        ):
            assert (out_dir / name).is_file(), name

    @pytest.mark.parametrize("fails, written", [(1, 2), (2, 3)])
    def test_a_writer_that_raises_leaves_the_files_before_it(self, capsys, tmp_path, monkeypatch, fails, written):
        """The ``fails``-th complex document raises: the files in front of
        it are written, in order, and no later one."""
        names = ["witness.json", "augmented.json", "punctured.json", "sealed.json"]
        made = []
        original = formats.complex_to_doc

        def complex_to_doc(c):
            made.append(c)
            if len(made) == fails:
                raise DomainError("writer failed")
            return original(c)

        monkeypatch.setattr(formats, "complex_to_doc", complex_to_doc)
        out_dir = tmp_path / "stages"
        code, stdout, stderr = run(capsys, "pipeline", "--out", str(out_dir))
        assert (code, stdout) == (1, "")
        assert stderr.splitlines() == [f"wrote {out_dir / n}" for n in names[:written]] + [
            "error:domain: writer failed"
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(names[:written])

    def test_sealed_output_feeds_colour_complex(self, capsys, tmp_path):
        out_dir = tmp_path / "stages"
        run(capsys, "pipeline", "--out", str(out_dir))
        code, stdout, _ = run(capsys, "colour-complex", "--in", str(out_dir / "sealed.json"))
        assert code == 0
        assert stdout.strip() == "12"

    def test_sealed_is_not_11_colourable(self, capsys, tmp_path):
        out_dir = tmp_path / "stages"
        run(capsys, "pipeline", "--out", str(out_dir))
        code, _, stderr = run(
            capsys, "colour-complex", "--in", str(out_dir / "sealed.json"), "--palette", "11"
        )
        assert code == 1

    # SHA-256 of each ``pipeline --out`` file on the shipped witness.  Any
    # change to these bytes is a change to the published artifacts.
    PINNED_SHA256 = {
        "witness.json": "7c62a8cfce440d95512edbbd41270adbcf695d863fa7faafac75d5bc2692a2d9",
        "augmented.json": "800e2673bdf4a14190ebe2e2e1064f3996acba8b2a3edc7bc9349014d6e1c0ac",
        "punctured.json": "dd424a7cb4e3f22fe6e1e4ad1ae3e33ce2dd48a18c21b7d70e9945f65c29d04e",
        "sealed.json": "1e5a61c1e1a126ea34b6c812882852c7e1d4273e19a8dbd5cc3b18090ebab9cd",
        "colouring-exact.json": "2f9dbccc01860f86fa7245f5b1a10aa6ae0cd752264dcb91c7ce6ca368e26c20",
        "colouring-degeneracy.json": "7536cc49d0b197a56d392cf8f7a977e7f3a4ae3e2712c049f216786de73b7b7f",
    }

    def test_artifacts_match_pinned_digests(self, capsys, tmp_path):
        out_dir = tmp_path / "stages"
        code, _, _ = run(capsys, "pipeline", "--out", str(out_dir))
        assert code == 0
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in self.PINNED_SHA256
        }
        assert digests == self.PINNED_SHA256

    # SHA-256 of the ``link`` output file on the pipeline's ``sealed.json``.
    SEALED_LINK_SHA256 = "71db6c1d7a13f839a1dbe1a27e368c7ba19c2075944d8bcdff1d8cf106315512"

    def test_link_of_sealed_matches_pinned_digest(self, capsys, tmp_path):
        out_dir = tmp_path / "stages"
        run(capsys, "pipeline", "--out", str(out_dir))
        link = tmp_path / "link.json"
        code, stdout, _ = run(capsys, "link", "--in", str(out_dir / "sealed.json"), "--out", str(link))
        assert code == 0
        assert stdout == "link graph: 24 vertices, 348 edges, 12 pairs\n"
        assert hashlib.sha256(link.read_bytes()).hexdigest() == self.SEALED_LINK_SHA256

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "pipeline", "--out", str(a))
        run(capsys, "pipeline", "--out", str(b))
        for name in ("augmented.json", "punctured.json", "sealed.json", "colouring-exact.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestWitnessCommands:
    def test_verify_passes(self, capsys, witness_file):
        code, stdout, _ = run(capsys, "verify-witness", "--in", witness_file)
        assert code == 0
        assert stdout.count("PASS") == 4

    def test_verify_corrupted_fails_with_named_check(self, capsys, tmp_path, witness_file):
        doc = formats.load(witness_file)
        doc["edges"] = doc["edges"][:-1]
        del doc["rotation"]
        bad = tmp_path / "bad.json"
        formats.save(bad, doc)
        code, stdout, _ = run(capsys, "verify-witness", "--in", str(bad))
        assert code == 1
        assert "FAIL planar-embedding" in stdout
        assert "FAIL designated-k12" in stdout

    def test_an_exhausted_solver_budget_fails_verification_and_pipeline(self, capsys, tmp_path, monkeypatch):
        import linkchroma.construct as construct_mod

        pg = random_planar_paired_graph(2, 160)
        w = construct_mod.TwelvePireWitness(pg.graph, pg.pairing.pairs, pg.rotation, pg.pairing.pairs[:12])
        path = tmp_path / "w160.json"
        formats.save(path, formats.witness_to_doc(w))
        monkeypatch.setattr(construct_mod, "DEFAULT_BUDGET", 1000)
        code, stdout, _ = run(capsys, "verify-witness", "--in", str(path))
        assert code == 1
        assert stdout.splitlines()[-1].startswith("FAIL pair-chromatic-12: branch-and-bound budget of 1000 nodes")
        code, stdout, stderr = run(capsys, "pipeline", "--in", str(path), "--out", str(tmp_path / "p"))
        assert (code, stdout) == (1, "")
        assert stderr == "error:domain: witness failed verification: designated-k12, pair-chromatic-12\n"

    def test_search_small_budget_reports_best(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "search-witness", "--seed", "5", "--budget", "100")
        assert code == 1
        assert "best objective" in stderr

    def test_search_budget_must_be_positive(self, capsys):
        code, stdout, stderr = run(capsys, "search-witness", "--seed", "0", "--budget", "0")
        assert (code, stdout) == (1, "")
        assert stderr == "error:domain: budget must be a positive integer\n"

    def test_search_writes_the_witness_it_found(self, capsys, tmp_path, monkeypatch):
        # the search stands in for the seed-0 replay, which takes seconds
        shipped = load_shipped_witness()
        monkeypatch.setattr(cli, "search_witness", lambda seed, budget: shipped)
        out = tmp_path / "w.json"
        code, stdout, _ = run(capsys, "search-witness", "--seed", "0", "--out", str(out))
        assert (code, stdout) == (0, "witness found after 371115 proposals\n")
        assert out.read_bytes() == (Path(cli.__file__).parent / "data" / "k12_pire.json").read_bytes()

    def test_search_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["search-witness", "--budget", "10"])
        assert info.value.code == 2


class TestStageCommands:
    def test_augment_inverse_link_seal_chain(self, capsys, tmp_path, witness_file):
        # witness files carry extra fields, so strip down to a plain
        # paired-graph document before driving the stage commands
        doc = formats.load(witness_file)
        paired = {k: doc[k] for k in ("vertices", "edges", "pairs", "rotation")}
        paired_path = tmp_path / "paired.json"
        formats.save(paired_path, paired)

        aug = tmp_path / "aug.json"
        code, stdout, _ = run(capsys, "augment", "--in", str(paired_path), "--out", str(aug))
        assert code == 0 and "augmented:" in stdout

        punct = tmp_path / "punctured.json"
        code, stdout, _ = run(capsys, "inverse-link", "--in", str(aug), "--out", str(punct))
        assert code == 0 and "12 loops" in stdout

        sealed = tmp_path / "sealed.json"
        code, stdout, _ = run(capsys, "seal", "--in", str(punct), "--out", str(sealed))
        assert code == 0

        code, stdout, _ = run(capsys, "colour-complex", "--in", str(sealed))
        assert stdout.strip() == "12"

    def test_heawood12(self, capsys, tmp_path, witness_file):
        doc = formats.load(witness_file)
        paired = {k: doc[k] for k in ("vertices", "edges", "pairs", "rotation")}
        paired_path = tmp_path / "paired.json"
        formats.save(paired_path, paired)
        out = tmp_path / "colouring.json"
        code, stdout, _ = run(capsys, "heawood12", "--in", str(paired_path), "--out", str(out))
        assert code == 0
        assert stdout.strip() == "12"
        doc = formats.load(out)
        assert doc["palette_size"] == 12 and len(doc["assignment"]) == 12

    # SHA-256 of the stderr ``elimination_order`` line and of the ``--out``
    # colouring written by ``heawood12``: the shipped witness, and random
    # planar maps of 200 and 1600 pairs (seed 0).
    HEAWOOD_SHA256 = {
        "random-1600": HEAWOOD_1600_SHA256,
        "witness": (
            "0f21b7d8425d641683d3e01cb56c8c8dc4a24884b02b45a173f6bed5540b31e0",
            "738cc290d86662da7878884739722c2bc3abafbaa5d29aa5389902fdfc2a2404",
        ),
        "random-200": (
            "3a6742fd1213a7de44172b5736b1fc5eef51032d55f920da56a23bbd61487100",
            "7dd838fe4bc03e50053acd722dabf9aaebcce45dbbb45f3d6e49b6ef72798236",
        ),
    }

    @pytest.mark.parametrize("name", sorted(HEAWOOD_SHA256))
    def test_heawood12_outputs_match_pinned_digests(self, capsys, tmp_path, name):
        if name == "witness":
            doc = formats.witness_to_doc(load_shipped_witness())
            doc = {k: doc[k] for k in ("vertices", "edges", "pairs", "rotation")}
        else:
            doc = formats.paired_graph_to_doc(random_planar_paired_graph(0, int(name.split("-")[1])))
        paired_path = tmp_path / "paired.json"
        formats.save(paired_path, doc)
        out = tmp_path / "colouring.json"
        code, _, stderr = run(capsys, "heawood12", "--in", str(paired_path), "--out", str(out))
        assert code == 0
        (line,) = [l for l in stderr.splitlines() if l.startswith('{"elimination_order"')]
        digests = (
            hashlib.sha256(line.encode("utf-8")).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest(),
        )
        assert digests == self.HEAWOOD_SHA256[name]

    # SHA-256 of the ``quotient``, ``quotient --simple``, ``augment``,
    # ``inverse-link``, ``seal`` and ``link`` output files for
    # ``random_planar_paired_graph(0, 50)``, each stage fed by the one before,
    # with int vertex ids and with each vertex ``v`` renamed ``("v", v)``:
    # the second runs the array-id paths of the complex writer and reader.
    MAP_STAGE_SHA256 = {
        "int-ids": {
            "augmented.json": "b7dcac1e480a85ef71b50e0313002e5ac0a9583e11647c84df4bc27d0973ecc0",
            "quotient.json": "94f2237379fac09fbe178f1e66328746684de18381e3ba99ec7ccd18edfa10de",
            "simple.json": "9a98400457aa310d265ad070a3c2d46336dfe3e0be883f696e0d5f5e91c3055e",
            "punctured.json": "404ce9661f79f07e60047db2637c4b8360962e8e2f94b33b481966ab37adaf6a",
            "sealed.json": "774cbd0a72923e4fb0429ca5543da27a1d8d11fd76d981541d67d68fca089305",
            "link.json": "b1fea02bdf83d8b4734f64e6af0ac9cef0f13c7bca68fa3f4418d7da87844efc",
        },
        "array-ids": {
            "augmented.json": "8050bb758cc9a894c65952e5dc80e0daac6a5e979600391665e38eac12defb8b",
            "quotient.json": "8c1042eeb80fd79c85aa4b9dfcae6d1683ba3ae2f94ed45ac16b3691d6b2deba",
            "simple.json": "18de366d585599300559b9f9751ba6cd14ca95ba772f5de2621fd702d93e13de",
            "punctured.json": "3572546d8f3c4282d30bbc8bfd46d434e1d0a39e11220e34eedf701269a558bc",
            "sealed.json": "94b47284b25704b29a3c0c923f4779448720a4f6ba5b3e20af564dffd34a4475",
            "link.json": "997cbbb66fe656b078c1daad77426983215e37f5301431e5e661000b02bf9b5e",
        },
    }

    @pytest.mark.parametrize("ids", sorted(MAP_STAGE_SHA256))
    def test_map_stage_outputs_match_pinned_digests(self, capsys, tmp_path, ids):
        pg = random_planar_paired_graph(0, 50)
        if ids == "array-ids":
            pg = renamed_vertices(pg, lambda v: ("v", v))
        paired = str(tmp_path / "paired.json")
        formats.save(paired, formats.paired_graph_to_doc(pg))
        out = {name: str(tmp_path / name) for name in self.MAP_STAGE_SHA256[ids]}
        for argv in (
            ("quotient", "--in", paired, "--out", out["quotient.json"]),
            ("quotient", "--in", paired, "--simple", "--out", out["simple.json"]),
            ("augment", "--in", paired, "--out", out["augmented.json"]),
            ("inverse-link", "--in", out["augmented.json"], "--out", out["punctured.json"]),
            ("seal", "--in", out["punctured.json"], "--out", out["sealed.json"]),
            ("link", "--in", out["sealed.json"], "--out", out["link.json"]),
        ):
            code, _, _ = run(capsys, *argv)
            assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in out}
        assert digests == self.MAP_STAGE_SHA256[ids]

    def test_chain_on_1600_pairs_matches_pinned_digests(self, capsys, tmp_path):
        path = {name: str(tmp_path / f"{name}.json") for name in CHAIN_1600_SHA256}
        formats.save(path["map"], formats.paired_graph_to_doc(random_planar_paired_graph(0, 1600)))
        for command, source, target in (
            ("augment", "map", "augmented"),
            ("inverse-link", "augmented", "punctured"),
            ("seal", "punctured", "sealed"),
            ("link", "sealed", "link"),
        ):
            code, _, _ = run(capsys, command, "--in", path[source], "--out", path[target])
            assert code == 0
        digests = {name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() for name in path}
        assert digests == CHAIN_1600_SHA256

    def test_genus(self, capsys, tmp_path, witness_file):
        doc = formats.load(witness_file)
        paired = {k: doc[k] for k in ("vertices", "edges", "pairs", "rotation")}
        paired_path = tmp_path / "paired.json"
        formats.save(paired_path, paired)
        code, stdout, _ = run(capsys, "genus", "--in", str(paired_path))
        assert code == 0
        assert "genus 0" in stdout
        assert "planar embedding: yes" in stdout

    def test_genus_on_a_map_of_several_components(self, capsys, tmp_path):
        # Three maps side by side, with interleaved vertex ids: K5 plus an
        # isolated vertex between two planar maps, and three small extra
        # components (a loop, an isolated vertex, a parallel pair).
        k5 = complete_graph(5)
        k5_pg = PairedGraph(
            Multigraph(k5.vertices + (5,), k5.edges),
            Pairing(((0, 1), (2, 3), (4, 5))),
            RotationSystem(ends_at(k5)),
        )
        pg = with_extras(side_by_side(random_planar_paired_graph(1, 3), k5_pg, random_planar_paired_graph(2, 2)))
        path = tmp_path / "paired.json"
        formats.save(path, formats.paired_graph_to_doc(pg))
        code, stdout, _ = run(capsys, "genus", "--in", str(path))
        assert code == 0
        assert stdout == (
            "component 0: genus 0 (7 faces)\n"
            "component 1: genus 2 (3 faces)\n"
            "component 2: genus 0 (4 faces)\n"
            "component 16: genus 0 (1 faces)\n"
            "component iso: genus 0 (1 faces)\n"
            "component loop: genus 0 (2 faces)\n"
            "component p: genus 0 (2 faces)\n"
            "planar embedding: no\n"
        )

    # One rotation fault per document on the map u -e- v with a loop f at v,
    # and the one error line ``genus`` prints for it.
    ROTATION_FAULTS = {
        "unknown-vertex": (
            {"u": [["e", 0]], "v": [["e", 1], ["f", 0], ["f", 1]], "w": [["e", 0]]},
            "error:schema: rotation mentions unknown vertex 'w'",
        ),
        "unknown-edge": (
            {"u": [["e", 0], ["x", 0]], "v": [["e", 1], ["f", 0], ["f", 1]]},
            "error:schema: rotation mentions unknown edge 'x'",
        ),
        "wrong-vertex": (
            {"u": [["e", 1]], "v": [["e", 0], ["f", 0], ["f", 1]]},
            "error:schema: edge-end EdgeEnd(edge='e', side=1) is not incident to vertex 'u'",
        ),
        "listed-twice": (
            {"u": [["e", 0]], "v": [["e", 1], ["f", 0], ["f", 0]]},
            "error:schema: edge-end EdgeEnd(edge='f', side=0) appears twice in rotation system",
        ),
        "missing": (
            {"u": [["e", 0]], "v": [["e", 1], ["f", 0]]},
            "error:schema: rotation system is missing 1 edge-end(s)",
        ),
        "not-an-object": ([], "error:schema: rotation must be a JSON object"),
        "invalid-side": (
            {"u": [["e", 2]], "v": [["e", 1], ["f", 0], ["f", 1]]},
            "error:schema: rotation entry ['e', 2] must be [edge, side]",
        ),
    }

    @pytest.mark.parametrize("case", sorted(ROTATION_FAULTS))
    def test_genus_on_a_faulty_rotation_exits_2(self, capsys, tmp_path, case):
        rotation, line = self.ROTATION_FAULTS[case]
        doc = {
            "vertices": ["u", "v"],
            "edges": [{"id": "e", "end0": "u", "end1": "v"}, {"id": "f", "end0": "v", "end1": "v"}],
            "pairs": [["u", "v"]],
            "rotation": rotation,
        }
        path = tmp_path / "paired.json"
        formats.save(path, doc)
        code, stdout, stderr = run(capsys, "genus", "--in", str(path))
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [line]

    def test_genus_requires_rotation(self, capsys, tmp_path, triangle_file):
        link_path = tmp_path / "link.json"
        run(capsys, "link", "--in", triangle_file, "--out", str(link_path))
        code, _, stderr = run(capsys, "genus", "--in", str(link_path))
        assert code == 1
        assert "error:domain:" in stderr


class TestDotAndErrors:
    def test_dot_export(self, capsys, tmp_path, triangle_file):
        out = tmp_path / "g.dot"
        code, _, _ = run(capsys, "dot", "--in", triangle_file, "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("graph G {")
        assert '"u" -- "v"' in text

    def test_dot_on_paired_graph_uses_pair_colours(self, capsys, tmp_path):
        pg = link_graph(triangle_complex())
        paired = tmp_path / "link.json"
        formats.save(paired, formats.paired_graph_to_doc(pg))
        out = tmp_path / "link.dot"
        code, _, stderr = run(capsys, "dot", "--in", str(paired), "--out", str(out))
        assert (code, stderr) == (0, f"wrote {out}\n")
        text = out.read_text(encoding="utf-8")
        assert text == formats.to_dot(pg.graph, pg.pairing) and "penwidth=3" in text

    def test_dot_on_witness_uses_pair_colours(self, capsys, tmp_path, witness_file):
        out = tmp_path / "w.dot"
        code, _, _ = run(capsys, "dot", "--in", witness_file, "--out", str(out))
        assert code == 0
        assert "penwidth=3" in out.read_text()

    def test_schema_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [], "edges": [], "bogus": 1}\n')
        code, _, stderr = run(capsys, "chroma", "--in", str(bad))
        assert code == 2
        assert "error:schema:" in stderr

    def test_boolean_side_exits_2(self, capsys, tmp_path):
        punctured = tmp_path / "punctured.json"
        punctured.write_text(
            '{"skeleton": {"vertices": ["v"], "edges": [{"id": "e", "end0": "v", "end1": "v"}]},'
            ' "cells": [[["e", true]]], "kind": "punctured"}\n'
        )
        sealed = tmp_path / "sealed.json"
        code, _, stderr = run(capsys, "seal", "--in", str(punctured), "--out", str(sealed))
        assert code == 2
        assert stderr.startswith("error:schema:")
        assert not sealed.exists()

    def test_missing_file_exits_2(self, capsys):
        code, _, stderr = run(capsys, "chroma", "--in", "/nonexistent.json")
        assert code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "case",
        [
            "deep-array",
            "long-number",
            "not-utf8",
            "nested-id",
            "directory-in",
            "chroma-out-missing-dir",
            "augment-out-missing-dir",
            "dot-out-missing-dir",
            "pipeline-out-onto-file",
        ],
    )
    def test_malformed_input_or_file_exits_2(self, capsys, tmp_path, case):
        def write(name, data):
            path = tmp_path / name
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data)
            return str(path)

        def doc_file(doc):
            path = tmp_path / "doc.json"
            formats.save(path, doc)
            return str(path)

        missing = str(tmp_path / "missing" / "out.json")
        argv = {
            "deep-array": lambda: (
                "chroma", "--in", write("deep.json", '{"vertices": ' + "[" * 5000 + "]" * 5000 + ', "edges": []}')
            ),
            "long-number": lambda: (
                "chroma", "--in", write("long.json", '{"vertices": [' + "7" * 5000 + '], "edges": []}')
            ),
            "not-utf8": lambda: (
                "chroma", "--in", write("latin1.json", '{"vertices": ["\u00e9"], "edges": []}'.encode("latin-1"))
            ),
            "nested-id": lambda: (
                "dot", "--in", write("nested.json", '{"vertices": [' + "[" * 400 + "0" + "]" * 400 + '], "edges": []}'),
                "--out", str(tmp_path / "g.dot"),
            ),
            "directory-in": lambda: ("chroma", "--in", str(tmp_path)),
            "chroma-out-missing-dir": lambda: (
                "chroma", "--in", doc_file(formats.graph_to_doc(complete_graph(4))), "--out", missing
            ),
            "augment-out-missing-dir": lambda: (
                "augment", "--in", doc_file(formats.paired_graph_to_doc(random_planar_paired_graph(0, 5))),
                "--out", missing,
            ),
            "dot-out-missing-dir": lambda: (
                "dot", "--in", doc_file(formats.graph_to_doc(complete_graph(4))), "--out", missing
            ),
            "pipeline-out-onto-file": lambda: ("pipeline", "--out", write("taken", "")),
        }[case]()
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error:schema:")
        assert "Traceback" not in stderr


    @pytest.mark.parametrize("depth", [400, 1000])
    @pytest.mark.parametrize("command", ["seal", "chroma"])
    def test_echoed_input_is_abridged(self, capsys, tmp_path, command, depth):
        deep = "[" * depth + "]" * depth
        path = tmp_path / "doc.json"
        if command == "seal":
            path.write_text(
                '{"skeleton": {"vertices": ["v"], "edges": [{"id": "e", "end0": "v", "end1": "v"}]},'
                ' "cells": [[' + deep + ']], "kind": "punctured"}\n'
            )
            argv = ("seal", "--in", str(path), "--out", str(tmp_path / "out.json"))
        else:
            path.write_text('{"vertices": [[{"a": ' + deep + '}]], "edges": []}\n')
            argv = ("chroma", "--in", str(path))
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:schema:")
        assert len(lines[0]) < 200


class TestCorpusCommand:
    def test_runs_fast_checks(self, capsys, monkeypatch):
        # patch the check table to the fast subset; the full run is covered
        # by the acceptance suite
        import linkchroma.corpus as corpus_mod

        fast = tuple(
            entry
            for entry in corpus_mod.ALL_CHECKS
            if entry[0]
            in ("pipeline-chromatic-12", "witness-verification", "classic-complexes")
        )
        monkeypatch.setattr(corpus_mod, "ALL_CHECKS", fast)
        code, stdout, _ = run(capsys, "corpus")
        assert code == 0
        assert stdout.count("PASS") == 3

    def test_a_missing_witness_fails_the_corpus(self, capsys, monkeypatch):
        import linkchroma.construct as construct_mod
        import linkchroma.corpus as corpus_mod

        def missing():
            raise DomainError("no shipped witness: data/k12_pire.json is missing")

        monkeypatch.setattr(construct_mod, "load_shipped_witness", missing)
        for name in ("pipeline-chromatic-12", "witness-verification"):
            result = corpus_mod.run_check(name)
            assert result.status == "fail"
            assert result.detail == "no shipped witness: data/k12_pire.json is missing"
        fast = tuple(
            entry
            for entry in corpus_mod.ALL_CHECKS
            if entry[0] in ("pipeline-chromatic-12", "witness-verification", "classic-complexes")
        )
        monkeypatch.setattr(corpus_mod, "ALL_CHECKS", fast)
        code, stdout, _ = run(capsys, "corpus")
        assert code == 1
        assert [line.split(" (")[0] for line in stdout.splitlines()] == [
            "FAIL pipeline-chromatic-12",
            "FAIL witness-verification",
            "PASS classic-complexes",
        ]
