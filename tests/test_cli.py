"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import json

import pytest

from tiasl import (
    GroundSet,
    Graph,
    complete,
    cycle,
    emit_graph6,
    format_edge_list,
    format_set,
    pan,
    path,
)
from tiasl import search, topology
from tiasl.cli import main

#: Largest elements of search windows that no ground set may hold.
PAST_THE_UNIVERSE = pytest.mark.parametrize(
    "top", [65, 2**63, int("9" * 500)], ids=["65", "2**63", "500-digits"]
)


@pytest.fixture
def pan3_files(tmp_path):
    edges = tmp_path / "pan3.edges"
    edges.write_text(format_edge_list(pan(3)))
    labels = tmp_path / "pan3.labels"
    labels.write_text(
        "ground: {0,1,2,3}\nv0: {0}\nv1: {0,1}\nv2: {0,1,2}\nv3: {0,1,2,3}\n"
    )
    return str(edges), str(labels)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.edges"
    f.write_text(format_edge_list(cycle(4)))
    return str(f)


@pytest.fixture
def chain_topo_file(tmp_path):
    f = tmp_path / "chain.topo"
    f.write_text("ground: {0,1,2}\n{}\n{0}\n{0,1}\n{0,1,2}\n")
    return str(f)


class TestVerify:
    def test_valid_tiasl(self, pan3_files, capsys):
        g, l = pan3_files
        assert main(["verify", g, l]) == 0
        out = capsys.readouterr().out
        assert "is_tiasl: true" in out

    def test_tiasi_fails_on_pan3(self, pan3_files, capsys):
        g, l = pan3_files
        assert main(["verify", "--tiasi", g, l]) == 1
        out = capsys.readouterr().out
        assert "is_tiasi: false" in out
        assert "edge-injectivity" in out

    def test_json_output(self, pan3_files, capsys):
        g, l = pan3_files
        assert main(["verify", "--json", g, l]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_tiasl"] is True and payload["violations"] == []

    def test_invalid_labeling_exit_1(self, tmp_path, capsys):
        g = tmp_path / "p2.edges"
        g.write_text(format_edge_list(path(2)))
        l = tmp_path / "dup.labels"
        l.write_text("ground: {0,1}\nv0: {0}\nv1: {0}\n")
        assert main(["verify", str(g), str(l)]) == 1
        assert "injectivity" in capsys.readouterr().out

    def test_graph6_input(self, tmp_path, pan3_files, capsys):
        _, labels = pan3_files
        g6 = tmp_path / "pan3.g6"
        g6.write_text(emit_graph6(pan(3)) + "\n")
        assert main(["verify", str(g6), labels]) == 0

    def test_format_override(self, tmp_path, pan3_files):
        _, labels = pan3_files
        noext = tmp_path / "pan3graph"
        noext.write_text(emit_graph6(pan(3)) + "\n")
        assert main(["verify", "--format", "g6", str(noext), labels]) == 0


    def test_text_output_renders_only_text(self, pan3_files, capsys, monkeypatch):
        from tiasl import cli

        def refuse(report):
            raise AssertionError("rendered the JSON form for text output")

        g, l = pan3_files
        monkeypatch.setattr(cli, "report_to_dict", refuse)
        assert main(["verify", g, l]) == 0
        assert "is_tiasl: true" in capsys.readouterr().out

    def test_json_output_renders_only_json(self, pan3_files, capsys, monkeypatch):
        from tiasl import cli

        def refuse(report):
            raise AssertionError("rendered the text form for JSON output")

        g, l = pan3_files
        monkeypatch.setattr(cli, "format_report", refuse)
        assert main(["verify", "--json", g, l]) == 0
        assert json.loads(capsys.readouterr().out)["is_tiasl"] is True

    def test_isolated_vertex_warning(self, tmp_path, capsys):
        g = tmp_path / "iso.edges"
        g.write_text(format_edge_list(Graph.from_edges(3, [(0, 1)])))
        l = tmp_path / "iso.labels"
        l.write_text("ground: {0,1}\nv0: {0}\nv1: {0,1}\nv2: {1}\n")
        assert main(["verify", str(g), str(l)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("topology is discrete: true\nwarning: isolated-vertex: 2\n")

    def test_pair_guard_exits_2(self, tmp_path, capsys):
        g = tmp_path / "empty.edges"
        g.write_text("1025 0\n")
        l = tmp_path / "zeros.labels"
        l.write_text("ground: {0}\n" + "".join(f"v{v}: {{0}}\n" for v in range(1025)))
        assert main(["verify", str(g), str(l)]) == 2
        assert capsys.readouterr().err == "error: 524800 pairs of equal labels, more than 524288\n"


class TestConstruct:
    def test_pan(self, capsys):
        assert main(["construct", "--family", "pan", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ground: {0,1,2,3}\n")
        assert "v3: {0,1,2,3}" in out

    def test_reproducible_bytes(self, capsys):
        assert main(["construct", "--family", "tadpole", "-n", "3", "-m", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["construct", "--family", "tadpole", "-n", "3", "-m", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_star_discrete(self, capsys):
        assert main(["construct", "--family", "star-discrete", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ground: {0,1,2}\n")
        assert out.count("\n") == 8  # ground line + 7 vertices

    def test_star_discrete_guard(self, capsys):
        """k = 11 is refused by the discrete topology's pair budget."""
        assert main(["construct", "--family", "star-discrete", "-k", "11"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the discrete topology on 11 points has ")

    def test_out_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "shovel31")
        assert main(
            ["construct", "--family", "shovel", "-n", "3", "--out", prefix]
        ) == 0
        err = capsys.readouterr().err
        assert "shovel31.edges" in err
        edges = (tmp_path / "shovel31.edges").read_text()
        assert edges.startswith("4 4\n")
        labels = (tmp_path / "shovel31.labels").read_text()
        assert labels.startswith("ground: {0,1,2,3}\n")

    def test_pendant_generic(self, tmp_path, capsys):
        g = tmp_path / "p4.edges"
        g.write_text(format_edge_list(path(4)))
        assert main(["construct", "--family", "pendant-generic", "--graph", str(g)]) == 0
        assert "ground: {0,1,2,3,4,5}" in capsys.readouterr().out

    def test_pendant_generic_refused_without_pendant(self, c4_file, capsys):
        assert (
            main(["construct", "--family", "pendant-generic", "--graph", c4_file]) == 1
        )
        assert "no pendant vertex" in capsys.readouterr().err

    def test_missing_parameter(self, capsys):
        assert main(["construct", "--family", "pan"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, flag", [("star-discrete", "-k"), ("pendant-generic", "--graph")]
    )
    def test_missing_family_parameter_named(self, capsys, family, flag):
        assert main(["construct", "--family", family]) == 2
        assert capsys.readouterr().err == f"error: --family {family} requires {flag}\n"

    def test_domain_error(self, capsys):
        assert main(["construct", "--family", "pan", "-n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json(self, capsys):
        assert main(["construct", "--family", "pan", "-n", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 4
        assert payload["labels"][-1] == "{0,1,2,3}"


class TestRealize:
    def test_chain(self, chain_topo_file, capsys):
        assert main(["realize", chain_topo_file]) == 0
        out = capsys.readouterr().out
        assert "v0: {0}" in out

    def test_saturate_no_room(self, chain_topo_file, tmp_path, capsys):
        """The chain realization is already saturated: the only candidate
        extra edge has sumset {0,1}+{0,1,2} = {0,1,2,3}, escaping the ground."""
        prefix = str(tmp_path / "sat")
        assert main(["realize", chain_topo_file, "--saturate", "--out", prefix]) == 0
        edges = (tmp_path / "sat.edges").read_text()
        assert edges.splitlines()[0] == "3 2"

    def test_saturate_adds_edge(self, tmp_path, capsys):
        """On the discrete topology over {0,1,2} the star realization gains an
        edge under saturation: {1}+{0,1} = {1,2} is open, so that pair joins."""
        f = tmp_path / "disc.topo"
        opens = ["{}"] + [
            "{" + ",".join(map(str, sorted(s))) + "}"
            for s in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2})
        ]
        f.write_text("ground: {0,1,2}\n" + "\n".join(opens) + "\n")
        prefix = str(tmp_path / "sat")
        assert main(["realize", str(f), "--saturate", "--out", prefix]) == 0
        edges = (tmp_path / "sat.edges").read_text()
        n, m = map(int, edges.splitlines()[0].split())
        assert n == 7 and m > 6  # the star alone has 6 edges

    def test_indiscrete_rejected(self, tmp_path, capsys):
        f = tmp_path / "indisc.topo"
        f.write_text("ground: {0,1}\n{}\n{0,1}\n")
        assert main(["realize", str(f)]) == 2
        assert "{0}" in capsys.readouterr().err


class TestSearch:
    def test_found(self, tmp_path, capsys):
        f = tmp_path / "pan3.edges"
        f.write_text(format_edge_list(pan(3)))
        assert main(["search", str(f)]) == 0
        out = capsys.readouterr().out
        assert "status: found" in out
        assert "ground: {0,1,2}" in out

    def test_tsin(self, tmp_path, capsys):
        f = tmp_path / "pan3.edges"
        f.write_text(format_edge_list(pan(3)))
        assert main(["search", str(f), "--tsin"]) == 0
        assert "tsin: 3" in capsys.readouterr().out

    def test_tsin_json(self, tmp_path, capsys):
        f = tmp_path / "p3.edges"
        f.write_text(format_edge_list(path(3)))
        assert main(["search", str(f), "--tsin", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tsin"] == 2
        assert payload["status"] == "found"

    def test_pruned_exit_1(self, c4_file, capsys):
        assert main(["search", c4_file]) == 1
        assert "pruned-by-theorem" in capsys.readouterr().out

    def test_oversized_window_exit_2(self, tmp_path, capsys):
        f = tmp_path / "p3.edges"
        f.write_text(format_edge_list(path(3)))
        argv = ["search", str(f), "--max-element", "60", "--max-ground-size", "10"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: search window holds 17784019483 ground sets, more than 65536\n"
        )

    @PAST_THE_UNIVERSE
    def test_window_past_the_universe_exit_2(self, tmp_path, capsys, top):
        f = tmp_path / "p3.edges"
        f.write_text(format_edge_list(path(3)))
        assert main(["search", str(f), "--max-element", str(top)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ground set element {top} exceeds the universe limit 64\n"
        )

    def test_window_up_to_the_universe_runs(self, tmp_path, capsys):
        f = tmp_path / "p3.edges"
        f.write_text(format_edge_list(path(3)))
        assert main(["search", str(f), "--max-element", "64", "--tsin"]) == 0
        assert capsys.readouterr().out.endswith("tsin: 2\n")

    @pytest.mark.parametrize(
        "g6, message",
        [
            ("F]~s?", "poset tables on 6 classes cover at most 7 up-sets, got a bound of 8"),
            ("G?????", "search covers graphs of order <= 7, got 8"),
        ],
    )
    def test_tsin_refusals_exit_2(self, tmp_path, capsys, g6, message):
        """An order-7 graph with no hit on 5 elements reaches a 6-element
        ground set, which the poset tables cannot count; order 8 is refused
        before any ground set."""
        f = tmp_path / "g.g6"
        f.write_text(g6 + "\n")
        assert main(["search", str(f), "--tsin"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_exhausted_exit_1(self, c4_file, capsys):
        assert (
            main(
                [
                    "search",
                    c4_file,
                    "--no-prune",
                    "--max-element",
                    "5",
                    "--max-ground-size",
                    "6",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "status: exhausted" in out
        assert "ground_sets_tried=32" in out

    def test_threads_same_output(self, tmp_path, capsys):
        f = tmp_path / "p4.edges"
        f.write_text(format_edge_list(path(4)))
        assert main(["search", str(f)]) == 0
        serial = capsys.readouterr().out
        assert main(["search", str(f), "--threads", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_tsin_threads_same_output(self, tmp_path, capsys, form):
        """A pendant graph and one with an isolated vertex, whose windows
        hold ground sets the search refuses as well as ones it walks."""
        k4_plus_one = Graph.from_edges(5, sorted(complete(4).edges))
        for i, g in enumerate((pan(5), k4_plus_one)):
            f = tmp_path / f"g{i}.edges"
            f.write_text(format_edge_list(g))
            assert main(["search", str(f), "--tsin", *form]) == 0
            serial = capsys.readouterr().out
            assert main(["search", str(f), "--tsin", "--threads", "2", *form]) == 0
            assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("threads", ["0", "-3", "-100000"])
    def test_threads_below_one_rejected(self, c4_file, capsys, threads):
        assert main(["search", c4_file, "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "threads" in captured.err

    def test_threads_checked_after_loading_and_before_the_search(
        self, tmp_path, c4_file, monkeypatch, capsys
    ):
        """A file error is named first; a count below 1 is named before the
        window is refused and before any ground set is searched."""

        def no_search(*args):
            raise AssertionError("ground set searched")

        monkeypatch.setattr(search, "_search_one_ground", no_search)
        missing = str(tmp_path / "missing.edges")
        assert main(["search", missing, "--threads", "0"]) == 2
        assert "missing.edges" in capsys.readouterr().err
        for flags in ([], ["--no-prune"], ["--max-element", "65"]):
            assert main(["search", c4_file, "--threads", "0", *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: threads must be >= 1, got 0\n"


class TestTopologies:
    def test_count_default(self, capsys):
        assert main(["topologies", "--ground", "{0,1}"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_count_with_opens(self, capsys):
        assert main(["topologies", "--ground", "{0,1,2}", "--opens", "5"]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_list(self, capsys):
        assert main(["topologies", "--ground", "{0,1}", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("{}") for line in lines)

    def test_json(self, capsys):
        assert main(["topologies", "--ground", "{0,1,2}", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 29, "ground": "{0,1,2}"}

    def test_bad_ground(self, capsys):
        assert main(["topologies", "--ground", "{0,1,"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["--list"])
    def test_stream_past_the_guard_exit_2(self, monkeypatch, capsys, form):
        def no_walk(s, k):
            raise AssertionError("stream walked")

        monkeypatch.setattr(topology, "_abstract_open_masks", no_walk)
        ground = "{0,1,2,3,4,5,6,7,8,9}"
        assert main(["topologies", "--ground", ground, "--opens", "7", form]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the bounded route on 10 points with 7 opens holds "
            "28483110 topologies, more than 1048576\n"
        )

    @pytest.mark.parametrize("s", [30, 64])
    def test_large_ground_lists_by_its_stream(self, capsys, s):
        """Only the stream's count bounds a listing: two opens on 30 or 64
        points list the one row, and three opens are refused by count."""
        ground = "{" + ",".join(map(str, range(s))) + "}"
        assert main(["topologies", "--ground", ground, "--opens", "2", "--list"]) == 0
        assert capsys.readouterr() == (f"{{}} {ground}\n", "")
        assert main(["topologies", "--ground", ground, "--opens", "3", "--list"]) == 2
        assert capsys.readouterr() == (
            "",
            f"error: the bounded route on {s} points with 3 opens holds "
            f"{2**s - 2} topologies, more than 1048576\n",
        )

    def test_count_past_the_stream_guard(self, monkeypatch, capsys):
        """The stream guard protects building and holding topologies, so
        ``--count`` answers the four streams ``--list`` refuses, unwalked."""

        def no_walk(s, k):
            raise AssertionError("stream walked")

        monkeypatch.setattr(topology, "_abstract_open_masks", no_walk)
        counts = {
            (9, 6): 1131990,
            (9, 7): 3992940,
            (10, 6): 6386760,
            (10, 7): 28483110,
        }
        for (s, k), count in counts.items():
            ground = "{" + ",".join(map(str, range(s))) + "}"
            assert main(["topologies", "--ground", ground, "--opens", str(k)]) == 0
            assert capsys.readouterr() == (f"{count}\n", "")

    @pytest.mark.parametrize("form", ["--list", "--count"])
    def test_no_opens_past_size_five_names_the_flag(self, capsys, form):
        assert main(["topologies", "--ground", "{0,1,2,3,4,5}", form]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: without --opens K the ground set is limited to size 5, got size 6\n"
        )

    @pytest.mark.parametrize(
        "ground, opens, rc",
        [
            ("{0,1,2}", None, 0),
            ("{0,3,4,9,17}", None, 0),
            ("{0,3,4,9,17}", "4", 0),
            ("{0,3,4,9,17}", "32", 0),
            ("{0,3,4,9,17}", "-1", 0),
            ("{0,1,2,3,4,5,6,7}", "6", 0),
            ("{0,1,2,3,4,5,6,7,8,9}", "7", 0),
            ("{0,1,2,3,4,5,6,7,8,9}", "8", 2),
            ("{0,1,2,3,4,5,6,7,8,9,10}", "3", 0),
            ("{0,1,2,3,4,5}", None, 2),
        ],
    )
    def test_count_builds_nothing(self, monkeypatch, capsys, ground, opens, rc):
        """``--count`` walks no family and builds no topology on any route,
        refusals included."""

        def refuse(*args):
            raise AssertionError("built")

        monkeypatch.setattr(topology, "_abstract_open_masks", refuse)
        monkeypatch.setattr(topology, "_topology_from_masks", refuse)
        argv = ["topologies", "--ground", ground, "--count"]
        argv += [] if opens is None else ["--opens", opens]
        for form in ([], ["--json"]):
            assert main(argv + form) == rc
            captured = capsys.readouterr()
            assert (captured.out == "") == (rc == 2)
            assert captured.err.startswith("error: ") == (rc == 2)

    @pytest.mark.parametrize("opens", ["0", "1", "5"])
    def test_empty_listing_prints_nothing(self, capsys, opens):
        """A ``K`` that no topology on X has lists no row: the text form
        prints no bytes at all, the JSON form an empty ``topologies``."""
        argv = ["topologies", "--ground", "{0,1}", "--opens", opens, "--list"]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert main(argv + ["--json"]) == 0
        assert capsys.readouterr() == (
            '{\n  "count": 0,\n  "ground": "{0,1}",\n  "topologies": []\n}\n',
            "",
        )

    @staticmethod
    def _assert_listing(capsys, elems, opens):
        """``--list`` prints the rows of the stream its route names: the text
        form one line of open texts per topology, the ``--json`` form what
        ``json.dumps(indent=2, sort_keys=True)`` writes for them."""
        x = GroundSet.from_elements(elems)
        if len(x) > topology.ENUMERATE_GUARD:
            stream = topology.topologies_with_open_count(x, opens)
        else:
            stream = topology.enumerate_topologies(x, opens)
        rows = [[format_set(o) for o in t.opens] for t in stream]
        payload = {"ground": str(x), "count": len(rows), "topologies": rows}
        argv = ["topologies", "--ground", str(x), "--list"]
        argv += [] if opens is None else ["--opens", str(opens)]
        assert main(argv) == 0
        assert capsys.readouterr() == ("".join(" ".join(r) + "\n" for r in rows), "")
        assert main(argv + ["--json"]) == 0
        assert capsys.readouterr() == (json.dumps(payload, indent=2, sort_keys=True) + "\n", "")

    @pytest.mark.parametrize("s", range(1, 6))
    @pytest.mark.parametrize("gapped", [False, True], ids=["dense", "gapped"])
    def test_listing_bytes_by_enumeration(self, capsys, s, gapped):
        elems = (1, 3, 4, 9, 17)[:s] if gapped else range(s)
        for opens in [None, *range(-1, 2**s + 2)]:
            self._assert_listing(capsys, elems, opens)

    @pytest.mark.parametrize("s", [6, 7])
    def test_listing_bytes_by_the_bounded_route(self, capsys, s):
        for opens in range(2, 8):
            self._assert_listing(capsys, range(s), opens)

    def test_listing_goes_through_the_traced_streams(self, monkeypatch, capsys):
        """The benchmark tracer times the listing's streams by wrapping the
        two names the CLI imports, so ``--list`` must iterate the stream its
        route names, through that name."""
        from tiasl import cli

        calls = []

        def counting(name, original):
            def wrapper(x, opens=None):
                calls.append((name, len(x)))
                yield from original(x, opens)

            monkeypatch.setattr(cli, name, wrapper)

        counting("enumerate_topologies", cli.enumerate_topologies)
        counting("topologies_with_open_count", cli.topologies_with_open_count)
        for ground, opens in [("{0,1,2}", None), ("{0,3,4,9,17}", "5"), ("{0,1,2,3,4,5}", "4")]:
            argv = ["topologies", "--ground", ground, "--list"]
            argv += [] if opens is None else ["--opens", opens]
            for form in ([], ["--json"]):
                assert main(argv + form) == 0
        capsys.readouterr()
        assert calls == [
            ("enumerate_topologies", 3),
            ("enumerate_topologies", 3),
            ("enumerate_topologies", 5),
            ("enumerate_topologies", 5),
            ("topologies_with_open_count", 6),
            ("topologies_with_open_count", 6),
        ]


class TestAnalyze:
    def test_chain(self, chain_topo_file, capsys):
        assert main(["analyze", chain_topo_file]) == 0
        out = capsys.readouterr().out
        assert "min pendant vertices: 2" in out
        assert "min pendant edges on the {0} vertex: 1" in out
        assert "star realization order: 3" in out
        assert "{0}:2" in out

    def test_json(self, chain_topo_file, capsys):
        assert main(["analyze", chain_topo_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compatibility_degrees"] == {
            "{0}": 2,
            "{0,1}": 1,
            "{0,1,2}": 1,
        }
        assert payload["min_pendant_vertices"] == 2

    def test_zero_not_open_rejected(self, tmp_path, capsys):
        f = tmp_path / "indisc.topo"
        f.write_text("ground: {0,1}\n{}\n{0,1}\n")
        assert main(["analyze", str(f)]) == 2
        assert "{0} is not open" in capsys.readouterr().err

    def test_builds_compatibility_graph_once(
        self, chain_topo_file, tmp_path, monkeypatch, capsys
    ):
        """Counted at the constructor, which every route to a compatibility
        graph goes through."""
        built = []
        real = topology.CompatibilityGraph

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(topology, "CompatibilityGraph", counted)
        for form in ([], ["--json"]):
            built.clear()
            assert main(["analyze", chain_topo_file, *form]) == 0
            assert len(built) == 1
        f = tmp_path / "indisc.topo"
        f.write_text("ground: {0,1}\n{}\n{0,1}\n")
        built.clear()
        assert main(["analyze", str(f)]) == 2
        assert built == []


class TestSweep:
    def test_consistent(self, capsys):
        assert main(["sweep", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "all consistent" in out
        assert "@  order=1" in out

    def test_json(self, capsys):
        assert main(["sweep", "--max-n", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graphs_processed"] == 4
        assert payload["inconsistent"] == 0

    def test_guard(self, capsys):
        assert main(["sweep", "--max-n", "9"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3", "-100000"])
    def test_threads_below_one_rejected(self, capsys, threads):
        assert main(["sweep", "--max-n", "3", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "threads" in captured.err

    def test_threads_checked_before_the_order(self, capsys):
        assert main(["sweep", "--max-n", "0", "--threads", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be >= 1, got 0\n"

    @PAST_THE_UNIVERSE
    def test_window_past_the_universe_exit_2(self, capsys, top):
        assert main(["sweep", "--max-n", "3", "--max-element", str(top)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ground set element {top} exceeds the universe limit 64\n"
        )

    def test_window_up_to_the_universe_runs(self, capsys):
        argv = ["sweep", "--max-n", "3", "--max-element", "64", "--max-ground-size", "2"]
        assert main(argv) == 1  # the widened window labels K1: one inconsistency
        assert "Bw  order=3 size=3 pendants=0 exhausted" in capsys.readouterr().out

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-element", "-7", "max_element must be >= -1, got -7"),
            ("--max-ground-size", "-4", "max_ground_size must be >= 0, got -4"),
        ],
    )
    def test_negative_overrides_rejected(self, capsys, threads, flag, value, message):
        """Refused as ``search`` refuses them, not clamped to an empty window."""
        assert main(["sweep", "--max-n", "3", flag, value, "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        assert main(["sweep", "--max-n", "2"]) == 0
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["sweep", "--max-n", "2"]) == 0
        assert built == []

    def test_usage_error_leaves_it_unchanged(self, tmp_path, capsys):
        f = tmp_path / "p4.edges"
        f.write_text(format_edge_list(path(4)))
        request = ["search", str(f), "--tsin", "--json"]
        assert main(request) == 0
        first = capsys.readouterr()
        assert main(["search", str(f), "--max-element", "x", "--json"]) == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main(request) == 0
        assert capsys.readouterr() == first


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["search", str(tmp_path / "nope.edges")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_edge_file(self, tmp_path, capsys):
        f = tmp_path / "bad.edges"
        f.write_text("3 1\n0 9\n")
        assert main(["verify", str(f), str(f)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "0..2" in err

    @pytest.mark.parametrize(
        "edges, labels",
        [
            ("1" * 5000 + " 0\n", "ground: {0,1}\nv0: {0}\nv1: {1}\n"),
            ("2 1\n0 " + "1" * 5000 + "\n", "ground: {0,1}\nv0: {0}\nv1: {1}\n"),
            ("70000 0\n", "ground: {0,1}\nv0: {0}\nv1: {1}\n"),
            ("2 1\n0 1\n", "ground: {0,1}\nv" + "1" * 5000 + ": {0}\n"),
            ("2 1\n0 1\n", "ground: {0,1}\nv0: {" + "1" * 5000 + "}\n"),
        ],
        ids=["order", "edge", "order-guard", "vertex-index", "set-element"],
    )
    def test_huge_numbers_exit_2(self, tmp_path, capsys, edges, labels):
        g = tmp_path / "g.edges"
        g.write_text(edges)
        l = tmp_path / "g.labels"
        l.write_text(labels)
        assert main(["verify", str(g), str(l)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_empty_ground_set_exit_2(self, tmp_path, capsys):
        g = tmp_path / "p2.edges"
        g.write_text(format_edge_list(path(2)))
        l = tmp_path / "empty.labels"
        l.write_text("ground: {}\nv0: {0}\nv1: {0,1}\n")
        assert main(["verify", str(g), str(l)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad ground set: ground set must be non-empty")

    def test_empty_graph6_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "empty.g6"
        f.write_text("\n\n")
        assert main(["search", str(f)]) == 2
        assert capsys.readouterr().err == "error: empty graph6 file (offset 0)\n"

    def test_bad_labeling_offset(self, tmp_path, capsys):
        g = tmp_path / "p2.edges"
        g.write_text(format_edge_list(path(2)))
        l = tmp_path / "bad.labels"
        l.write_text("ground: {0,1}\nv0: {0}\nv1: {0,}\n")
        assert main(["verify", str(g), str(l)]) == 2
        assert "offset 3" in capsys.readouterr().err
