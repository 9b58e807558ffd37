import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import treeres
from treeres import cli
from treeres.cli import main
from treeres.complexes import complex_from_json, complex_to_json
from treeres.monomial import POLARIZE_GUARD, VariableSet, format_ideal

from helpers import (
    SIX_VAR_IDEAL_TEXT,
    STAR_IDEAL_TEXT,
    cycle_with_pendants,
    read_betti,
    read_free_complex,
    read_labeled_complex,
)
from strategies import complexes, ideals, nonunit_monomials, squarefree_ideals

HOLLOW_JSON = json.dumps(
    {"vertices": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"], ["c", "a"]]}
)


def _run_cli(argv, stdin=None):
    """The ``treeres`` command from this source tree, in a subprocess."""
    src = str(Path(treeres.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "treeres", *argv], input=stdin,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.fixture
def six_var_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text(SIX_VAR_IDEAL_TEXT)
    return str(path)


@pytest.fixture
def hollow_file(tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(HOLLOW_JSON)
    return str(path)


class TestVerify:
    def test_six_var_ideal(self, six_var_file, capsys):
        assert main(["verify", "--input", six_var_file]) == 0
        out = capsys.readouterr().out
        assert "pd(I)=1" in out
        assert "dual is quasi-tree (leaf order F1,F2,F3,F4)" in out
        assert "tree supports minimal resolution" in out

    def test_four_cycle_is_false_but_consistent(self, tmp_path, capsys):
        path = tmp_path / "cycle.txt"
        path.write_text("vars x1 x2 x3 x4\nx1*x2, x2*x3, x3*x4, x4*x1\n")
        assert main(["verify", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert "pd(I)=2" in out
        assert "not a quasi-forest" in out

    def test_principal_full_support(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("x1*x2\n")
        assert main(["verify", "--input", str(path)]) == 0
        assert "pd(I)=0" in capsys.readouterr().out

    def test_variable_in_every_generator_keeps_the_dual_connected(
        self, tmp_path, capsys
    ):
        # The dual <{y,z},{x,z}> is connected; w lies in no facet.
        path = tmp_path / "i.txt"
        path.write_text("vars w x y z\nw*x, w*y\n")
        assert main(["verify", "--input", str(path)]) == 0
        assert "dual is quasi-tree" in capsys.readouterr().out


class TestPd:
    def test_six_var(self, six_var_file, capsys):
        assert main(["pd", "--input", six_var_file]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_principal(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("x1*x2\n")
        assert main(["pd", "--input", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestDualAndSr:
    def test_dual_text(self, six_var_file, capsys):
        assert main(["dual", "--input", six_var_file]) == 0
        out = capsys.readouterr().out
        assert "F1 = {x2,x4,x5}" in out
        assert "F4 = {x1,x2,x3}" in out

    def test_dual_json_reparses(self, six_var_file, capsys):
        assert main(["dual", "--input", six_var_file, "--format", "json"]) == 0
        D = complex_from_json(json.loads(capsys.readouterr().out))
        assert [sorted(f) for f in D.facets][0] == ["x2", "x4", "x5"]

    def test_sr_both_directions(self, tmp_path, capsys):
        ideal = tmp_path / "i.txt"
        ideal.write_text("vars x1 x2\nx1*x2\n")
        assert main(["sr", "--input", str(ideal), "--format", "json"]) == 0
        complex_json = capsys.readouterr().out
        D = complex_from_json(json.loads(complex_json))
        assert {tuple(sorted(f)) for f in D.facets} == {("x1",), ("x2",)}

        cpath = tmp_path / "c.json"
        cpath.write_text(complex_json)
        assert main(["sr", "--input", str(cpath)]) == 0
        assert "x1*x2" in capsys.readouterr().out

    def test_sr_full_simplex_reports_zero_ideal(self, tmp_path, capsys):
        cpath = tmp_path / "full.json"
        cpath.write_text(json.dumps({"vertices": ["a", "b"], "facets": [["a", "b"]]}))
        assert main(["sr", "--input", str(cpath)]) == 0
        assert "zero ideal" in capsys.readouterr().out


class TestQuasiforest:
    def test_hollow_triangle_exit_one(self, hollow_file, capsys):
        assert main(["quasiforest", "--input", hollow_file]) == 1
        out = capsys.readouterr().out
        assert "quasi-forest: no" in out
        assert "no leaf order" in out

    def test_dual_complex_exit_zero(self, tmp_path, six_var_file, capsys):
        assert main(["dual", "--input", six_var_file, "--format", "json",
                     "--output", str(tmp_path / "d.json")]) == 0
        assert main(["quasiforest", "--input", str(tmp_path / "d.json")]) == 0
        out = capsys.readouterr().out
        assert "quasi-forest: yes" in out
        assert "recognizers: greedy=yes exhaustive=yes induced=yes" in out
        assert "quasi-tree" in out

    def test_unused_ambient_vertex_keeps_it_connected(self, tmp_path, capsys):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(
            {"vertices": ["a", "b", "c", "d"], "facets": [["a", "b"], ["b", "c"]]}
        ))
        assert main(["quasiforest", "--input", str(path)]) == 0
        assert "connected: yes (quasi-tree)" in capsys.readouterr().out

    def test_guard_refuses_before_any_leaf_order_search(
        self, tmp_path, monkeypatch, capsys
    ):
        # The exhaustive leaf-order search has no guard of its own, so past
        # 20 vertices the guarded induced sweep must refuse first.
        names = [f"v{i}" for i in range(21)]
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({
            "vertices": names,
            "facets": [[a, b] for a, b in zip(names, names[1:] + names[:1])],
        }))

        def unguarded(D, mode="greedy"):
            raise AssertionError(f"leaf_order(D, {mode!r}) ran past the guard")

        monkeypatch.setattr(cli, "leaf_order", unguarded)
        assert main(["quasiforest", "--input", str(path)]) == 2
        assert "induced-subcomplex guard exceeded" in capsys.readouterr().err


class TestTreeCommands:
    def test_tree_with_dot(self, tmp_path, six_var_file, capsys):
        dual_path = tmp_path / "d.json"
        assert main(["dual", "--input", six_var_file, "--format", "json",
                     "--output", str(dual_path)]) == 0
        dot_path = tmp_path / "tree.dot"
        assert main(["tree", "--input", str(dual_path), "--dot", str(dot_path),
                     "--format", "json"]) == 0
        tree = read_labeled_complex(json.loads(capsys.readouterr().out))
        assert len(tree.complex.facets) == 3
        dot = dot_path.read_text()
        assert "x1*x4*x6" in dot

    def test_tree_joint_all(self, tmp_path, capsys):
        star = tmp_path / "star.txt"
        star.write_text(STAR_IDEAL_TEXT)
        dual_path = tmp_path / "d.json"
        assert main(["dual", "--input", str(star), "--format", "json",
                     "--output", str(dual_path)]) == 0
        assert main(["tree", "--input", str(dual_path), "--joint", "all",
                     "--format", "json"]) == 0
        trees = json.loads(capsys.readouterr().out)
        assert len(trees) == 16

    @staticmethod
    def _star_dual_file(tmp_path, q):
        path = tmp_path / f"star{q}.json"
        names = [f"v{i}" for i in range(1, q + 1)]
        path.write_text(json.dumps(
            {"vertices": ["c", *names], "facets": [["c", v] for v in names]}
        ))
        return str(path)

    def test_tree_joint_all_on_the_six_star_prints_every_tree(self, tmp_path, capsys):
        assert main(["tree", "--joint", "all", "--input",
                     self._star_dual_file(tmp_path, 6)]) == 0
        assert capsys.readouterr().out.startswith("1296 tree(s)\n")

    def test_tree_joint_all_writes_every_tree_to_dot(self, tmp_path, capsys):
        dot_path = tmp_path / "trees.dot"
        assert main(["tree", "--joint", "all", "--input",
                     self._star_dual_file(tmp_path, 3), "--dot", str(dot_path)]) == 0
        text = capsys.readouterr().out
        dot = dot_path.read_text()
        assert text.startswith("3 tree(s)\n")
        assert dot.count("graph tree {") == 3

        def edges(lines):
            return [line.strip().split(" [")[0] for line in lines if " -- " in line]

        assert len(edges(text.splitlines())) == 6
        assert edges(dot.splitlines()) == edges(text.splitlines())

    def test_tree_joint_all_refuses_the_seven_star(self, tmp_path, capsys):
        # 7! leaf orders walk 4,399,920 partial edge lists in all.
        assert main(["tree", "--joint", "all", "--input",
                     self._star_dual_file(tmp_path, 7)]) == 2
        assert "tree enumeration guard exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("joint", [[], ["--joint", "all"]], ids=["first", "all"])
    def test_tree_of_non_quasi_forest_is_an_error(self, joint):
        complex_json = complex_to_json(cycle_with_pendants())
        proc = _run_cli(["tree", *joint], json.dumps(complex_json))
        assert proc.returncode == 2
        assert proc.stderr == "error: not a quasi-forest: no leaf order exists\n"
        assert "Traceback" not in proc.stderr

    def test_floystad(self, six_var_file, capsys):
        assert main(["floystad", "--input", six_var_file, "--format", "json"]) == 0
        tree = read_labeled_complex(json.loads(capsys.readouterr().out))
        assert len(tree.complex.facets) == 3


class TestResolve:
    def test_json_payload(self, six_var_file, capsys):
        assert main(["resolve", "--input", six_var_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        F = read_free_complex(payload["free_complex"])
        assert F.ranks == (1, 4, 3)
        assert payload["supports_resolution"] is True
        assert payload["minimal"] is True

    def test_text_summary(self, six_var_file, capsys):
        assert main(["resolve", "--input", six_var_file]) == 0
        out = capsys.readouterr().out
        assert "ranks: 1 4 3" in out
        assert "supports resolution: yes" in out

    def test_forty_edge_path_dual(self, tmp_path):
        # The ideal whose dual complex is the path y1 - y2 - ... - y41:
        # generator i is the product of every y_j but y_i and y_{i+1}.
        names = [f"y{j}" for j in range(1, 42)]
        gens = [
            "*".join(v for j, v in enumerate(names, 1) if j not in (i, i + 1))
            for i in range(1, 41)
        ]
        path = tmp_path / "path.txt"
        path.write_text("vars " + " ".join(names) + "\n" + "\n".join(gens) + "\n")
        proc = _run_cli(["resolve", "--input", str(path)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ranks: 1 40 39\n")

    def test_rejects_high_pd(self, tmp_path, capsys):
        path = tmp_path / "cycle.txt"
        path.write_text("vars x1 x2 x3 x4\nx1*x2, x2*x3, x3*x4, x4*x1\n")
        assert main(["resolve", "--input", str(path)]) == 2

    @pytest.mark.parametrize(
        "text", ["x1*x2\n", "vars x1 x2 x3\nx1*x2\n"],
        ids=["full-support", "proper-support"],
    )
    def test_principal_ideal_is_one_vertex(self, tmp_path, capsys, text):
        # The generator of the first uses every variable: its dual facet
        # is empty, and the tree is still the single labeled vertex.
        path = tmp_path / "p.txt"
        path.write_text(text)
        assert main(["resolve", "--input", str(path)]) == 0
        assert capsys.readouterr().out == (
            "ranks: 1 1\ndegree 1 multidegrees: x1*x2\n"
            "supports resolution: yes\nminimal: yes\n"
        )


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only ``census --workers`` above 1 needs a process pool.
    src = str(Path(treeres.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, treeres.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestOracleCommands:
    def test_taylor(self, six_var_file, capsys):
        assert main(["taylor", "--input", six_var_file, "--format", "json"]) == 0
        F = read_free_complex(json.loads(capsys.readouterr().out))
        assert F.ranks == (1, 4, 6, 4, 1)

    def test_betti_json_round_trip(self, six_var_file, capsys):
        assert main(["betti", "--input", six_var_file, "--format", "json"]) == 0
        table = read_betti(json.loads(capsys.readouterr().out))
        assert table.totals() == (1, 4, 3)

    def test_betti_text(self, six_var_file, capsys):
        assert main(["betti", "--input", six_var_file]) == 0
        assert "total: 1 4 3" in capsys.readouterr().out

    def test_taylor_past_twenty_generators_is_refused(self, tmp_path, capsys):
        # The full simplex on 21 generators has 2^21 faces, past the face guard.
        path = tmp_path / "i.txt"
        path.write_text(", ".join(f"x{i}" for i in range(1, 22)) + "\n")
        assert main(["taylor", "--input", str(path)]) == 2
        assert "guard exceeded" in capsys.readouterr().err


class TestPolarize:
    def test_text(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("x^2*y, y^2\n")
        assert main(["polarize", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "x_1*x_2*y_1" in out
        assert "y_1*y_2" in out
        assert "x_2=x.2" in out

    def test_json(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("x^2*y, y^2\n")
        assert main(["polarize", "--input", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["map"]["x_1"] == ["x", 1]

    def test_exponent_guard(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text(f"x^{POLARIZE_GUARD + 1}\n")
        assert main(["polarize", "--input", str(path)]) == 2
        assert f"limit {POLARIZE_GUARD}" in capsys.readouterr().err

    def test_copy_name_equal_to_a_kept_name(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("x^2, x_1*y\n")
        assert main(["polarize", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: duplicate variable name 'x_1'\n"


class TestCensusCommand:
    def test_three_vertices(self, capsys):
        assert main(["census", "--max-vertices", "3"]) == 0
        out = capsys.readouterr().out
        assert "complexes on <= 3 vertices: 12" in out
        assert "violations: 0" in out

    @pytest.mark.parametrize(
        "flags",
        [["--max-vertices", "-2"], ["--max-vertices", "0"],
         ["--max-vertices", "2", "--workers", "0"]],
        ids=["negative-vertices", "zero-vertices", "zero-workers"],
    )
    def test_bad_sizes_are_errors(self, capsys, flags):
        assert main(["census", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: census needs")


class TestErrors:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("x1*&\n")
        assert main(["pd", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_unknown_flag_rejected(self, six_var_file):
        ideal = ["--input", six_var_file]
        for argv in (
            ["pd", *ideal, "--frobnicate"],
            ["pd", *ideal, "--seed", "1"],
            ["quasiforest", *ideal, "--format", "json"],
            ["pd", *ideal, "--format", "json"],
            ["verify", *ideal, "--format", "json"],
            ["census", "--max-vertices", "1", "--format", "json"],
            ["census", "--max-vertices", "1", *ideal],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    @pytest.mark.parametrize(
        "complex_json",
        [
            {"vertices": [1], "facets": [[1]]},
            {"vertices": ["a"], "facets": "a"},
        ],
        ids=["integer-vertices", "string-facets"],
    )
    def test_malformed_complex_is_an_error(self, complex_json):
        proc = _run_cli(["quasiforest"], json.dumps(complex_json))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["quasiforest", "tree", "sr"])
    def test_deeply_nested_json_is_an_error(self, command):
        proc = _run_cli([command], '{"a":' * 100000 + "\n")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text", [",,,\n", "vars x y\n, ,\n"], ids=["commas", "vars-and-commas"]
    )
    def test_no_generators_is_a_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        assert main(["pd", "--input", str(path)]) == 2
        assert "no generators found" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
    )
    def test_over_long_exponent_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("x^" + "9" * (sys.get_int_max_str_digits() + 1) + "\n")
        assert main(["pd", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 1, column 1: exponent too long\n"
        )

    def test_missing_file(self, capsys):
        assert main(["pd", "--input", "/nonexistent/ideal.txt"]) == 2


SIX_VAR_DUAL_JSON = json.dumps({
    "vertices": ["x1", "x2", "x3", "x4", "x5", "x6"],
    "facets": [["x2", "x4", "x5"], ["x2", "x3", "x5"], ["x3", "x5", "x6"], ["x1", "x2", "x3"]],
})


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["dual"], SIX_VAR_IDEAL_TEXT),
            (["sr"], SIX_VAR_IDEAL_TEXT),
            (["tree"], SIX_VAR_DUAL_JSON),
            (["tree", "--joint", "all"], SIX_VAR_DUAL_JSON),
            (["floystad"], SIX_VAR_IDEAL_TEXT),
            (["resolve"], SIX_VAR_IDEAL_TEXT),
            (["taylor"], SIX_VAR_IDEAL_TEXT),
            (["betti"], SIX_VAR_IDEAL_TEXT),
            (["polarize"], "x^2*y, y^3\n"),
        ],
        ids=["dual", "sr", "tree", "tree-joint-all", "floystad", "resolve",
             "taylor", "betti", "polarize"],
    )
    def test_one_line_with_sorted_keys(self, argv, text, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_text(text)
        assert main([*argv, "--input", str(path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_reproducer_file_parses(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        payload = {"ideal": SIX_VAR_IDEAL_TEXT, "violations": [["a", 1]]}
        assert cli._abort_with_reproducer("legs disagree", payload) == 2
        assert "reproducer written" in capsys.readouterr().err
        text = (tmp_path / cli.REPRODUCER).read_text()
        assert json.loads(text) == {**payload, "failure": "legs disagree"}
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, six_var_file, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_PARSER", None)
        star = tmp_path / "star.txt"
        star.write_text(STAR_IDEAL_TEXT)
        dual_path = tmp_path / "d.json"
        assert main(["dual", "--input", str(star), "--format", "json",
                     "--output", str(dual_path)]) == 0

        # A flag given once does not stay set for the next call.
        assert main(["resolve", "--format", "json", "--input", six_var_file]) == 0
        assert json.loads(capsys.readouterr().out)["minimal"] is True
        assert main(["resolve", "--input", six_var_file]) == 0
        assert capsys.readouterr().out.startswith("ranks: 1 4 3\n")

        assert main(["tree", "--joint", "all", "--input", str(dual_path)]) == 0
        assert capsys.readouterr().out.startswith("16 tree(s)\n")
        assert main(["tree", "--input", str(dual_path)]) == 0
        plain = capsys.readouterr().out
        assert main(["tree", "--joint", "smallest", "--input", str(dual_path)]) == 0
        assert plain == capsys.readouterr().out

        # A rejected command line leaves the parser usable.
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--no-such-flag"])
        assert exc.value.code == 2
        assert main(["verify", "--input", six_var_file]) == 0
        assert "pd(I)=1" in capsys.readouterr().out
        assert len(built) == 1


# Every subcommand but census, in each output form it offers.
FUZZ_ARGV = [
    ["quasiforest"], ["pd"], ["verify"],
    ["tree", "--joint", "all"], ["tree", "--joint", "all", "--format", "json"],
    *([cmd] for cmd in ("dual", "sr", "taylor", "betti", "polarize")),
    *([cmd, "--format", "json"] for cmd in ("dual", "sr", "taylor", "betti", "polarize")),
    *([cmd, "--dot", "out.dot"] for cmd in ("tree", "floystad", "resolve")),
    *([cmd, "--format", "json"] for cmd in ("tree", "floystad", "resolve")),
]

FIVE = VariableSet(tuple(f"x{i}" for i in range(1, 6)))
IDEAL_TEXT = st.one_of(
    squarefree_ideals(FIVE).map(format_ideal),
    ideals(FIVE, max_exp=3).map(format_ideal),
    # Generator lists that need not be antichains.
    st.lists(nonunit_monomials(FIVE, max_exp=2), min_size=1, max_size=4).map(
        lambda gens: "vars x1 x2 x3 x4 x5\n" + ", ".join(map(str, gens)) + "\n"
    ),
)
IDEAL_CHARACTERS = "x123456*^,;#\n vars0{}[]\"-"


@st.composite
def spliced_ideal_text(draw) -> str:
    """An ideal's text with a few characters replaced."""
    text = draw(IDEAL_TEXT)
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 3)))
    return text[:start] + draw(st.text(IDEAL_CHARACTERS, max_size=3)) + text[end:]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["vertices", "facets", "vars", "labels"]) | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)

FUZZ_INPUTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    complexes(max_vertices=5, ambient=True).map(lambda D: json.dumps(complex_to_json(D))),
    IDEAL_TEXT,
    spliced_ideal_text(),
    st.text(IDEAL_CHARACTERS, max_size=12),
)


class TestFuzz:
    """Any input to any subcommand but census: exit 0, 1 or 2, nothing raised.

    Ideals have at most five variables and four generators, complexes at
    most five vertices and four facets, so every command answers at once.
    A ``verify`` abort writes its reproducer into the working directory,
    here a temporary one.
    """

    @given(argv=st.sampled_from(FUZZ_ARGV), text=FUZZ_INPUTS)
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exit_code_in_0_1_2(self, monkeypatch, tmp_path, argv, text):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
