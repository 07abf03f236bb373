import contextlib
import io
import json
import math
import os
import platform
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhvphylo.cli as cli
import bhvphylo.mcmc as mcmc
from bhvphylo import __version__
from bhvphylo.cli import COMMANDS, EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from bhvphylo.geodesic import distance
from bhvphylo.phylo_model import ColumnLikelihoodError
from bhvphylo.treespace import NewickError, Tree, load_samples, parse_newick, serialize_newick

from conftest import trees_close
from oracles import reference_parser

DEMO_TREE = "((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07,O:0.1);"
# every conflicting split of the second tree has a length whose square is
# below the smallest double; their distance is 3e-100
TINY_PAIR = (
    "(((A:0.1,B:0.1):3e-100,C:0.1):1e-170,D:0.1,O:0.1);",
    "(((A:0.1,D:0.1):1e-170,C:0.1):2e-170,B:0.1,O:0.1);",
)


def write_fasta(path, sequences):
    lines = []
    for name, seq in sequences:
        lines.append(f">{name}")
        lines.append(seq)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def demo_fasta(tmp_path):
    path = tmp_path / "aln.fasta"
    rc = main(
        [
            "simulate",
            DEMO_TREE,
            "--columns",
            "30",
            "--seed",
            "7",
            "--outgroup",
            "O",
            "--out",
            str(path),
        ]
    )
    assert rc == EXIT_OK
    return path


@pytest.fixture
def samples_file(tmp_path, demo_fasta):
    out = tmp_path / "run"
    rc = main(
        [
            "sample",
            str(demo_fasta),
            "--out",
            str(out),
            "--seed",
            "3",
            "--chains",
            "2",
            "--iters",
            "300",
            "--burnin",
            "100",
            "--thin",
            "4",
            "--outgroup",
            "O",
        ]
    )
    assert rc == EXIT_OK
    return out


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import sys, bhvphylo.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"

    def test_estimators_and_summaries_leave_numpy_random_unloaded(self, tmp_path):
        # every draw comes from the standard library's `random`, so none
        # of the nine commands loads the 16 modules of numpy.random.  No
        # command parses its arguments with argparse, whose messages
        # import gettext and locale, and no record is a dataclass.
        samples = tmp_path / "trees.nwk"
        samples.write_text(
            DEMO_TREE + "\n"
            "((A:0.2,C:0.1):0.1,(B:0.3,D:0.2):0.02,O:0.1);\n"
            "((A:0.1,B:0.1):0.03,C:0.2,D:0.1,O:0.2);\n"
        )
        probe = (
            "import sys, bhvphylo.cli\n"
            "def stray():\n"
            "    unwanted = ('argparse', 'gettext', 'locale', 'dataclasses')\n"
            "    return [m for m in unwanted if m in sys.modules]\n"
            "loaded = ['import'] if 'numpy.random' in sys.modules else []\n"
            "strays = ['import'] if stray() else []\n"
            "for command in ('mean', 'median', 'compare', 'consensus', 'splits'):\n"
            "    steps = ['--steps', '30'] if command in ('mean', 'median', 'compare') else []\n"
            "    assert bhvphylo.cli.main([command, sys.argv[1]] + steps) == 0\n"
            "    if 'numpy.random' in sys.modules:\n"
            "        loaded.append(command)\n"
            "    if stray():\n"
            "        strays.append(command)\n"
            "tree = " + repr(DEMO_TREE) + "\n"
            "fasta, run = sys.argv[2] + '.fasta', sys.argv[2] + '.run'\n"
            "for argv in (['distance', tree, tree], ['interpolate', tree, tree, '--lambda', '0.5'],\n"
            "             ['simulate', tree, '--columns', '20', '--seed', '1', '--out', fasta],\n"
            "             ['sample', fasta, '--out', run, '--seed', '1', '--iters', '10', '--burnin', '2']):\n"
            "    assert bhvphylo.cli.main(argv) == 0\n"
            "    if 'numpy.random' in sys.modules:\n"
            "        loaded.append(argv[0])\n"
            "    if stray():\n"
            "        strays.append(argv[0])\n"
            "print('stray', strays, file=sys.stderr)\n"
            "print('loaded', loaded, file=sys.stderr)\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        result = subprocess.run(
            [sys.executable, "-c", probe, str(samples), str(tmp_path / "sim")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stderr.splitlines()[-2] == "stray []"
        assert result.stderr.splitlines()[-1] == "loaded []"


class TestSimulate:
    def test_deterministic_fasta(self, tmp_path):
        first = tmp_path / "a.fasta"
        second = tmp_path / "b.fasta"
        for path in (first, second):
            rc = main(
                [
                    "simulate",
                    DEMO_TREE,
                    "--columns",
                    "25",
                    "--seed",
                    "11",
                    "--outgroup",
                    "O",
                    "--out",
                    str(path),
                ]
            )
            assert rc == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_without_out_writes_the_fasta_to_stdout(self, demo_fasta, capsys):
        argv = ["simulate", DEMO_TREE, "--columns", "30", "--seed", "7", "--outgroup", "O"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == demo_fasta.read_text()

    def test_tiny_alpha_draws_an_alignment(self, tmp_path):
        # Gamma(0.001) draws underflow to zero unless taken in logs
        out = tmp_path / "tiny.fasta"
        argv = ["simulate", DEMO_TREE, "--columns", "40", "--seed", "3",
                "--alpha", "0.001", "--out", str(out)]
        assert main(argv) == EXIT_OK
        records = cli.read_fasta(out)
        assert len(records) == 5
        assert all(len(seq) == 40 for _, seq in records)

    def test_negative_columns_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "neg.fasta"
        rc = main(["simulate", DEMO_TREE, "--columns", "-3", "--seed", "7", "--out", str(path)])
        assert rc == EXIT_INPUT
        assert "--columns" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--alpha", "0", "pseudocounts must be finite and positive"),
            ("--alpha", "-1", "pseudocounts must be finite and positive"),
            ("--alpha", "nan", "pseudocounts must be finite and positive"),
            ("--alpha", "inf", "pseudocounts must be finite and positive"),
            ("--seed", "-1", "seed must be a nonnegative integer, got -1"),
        ],
    )
    def test_bad_alpha_or_seed_is_input_error_before_the_tree_is_read(
        self, option, value, message, tmp_path, capsys
    ):
        # the tree file does not exist: the option is rejected before it is opened
        out = tmp_path / "aln.fasta"
        argv = ["simulate", str(tmp_path / "missing.nwk"), "--columns", "5",
                "--seed", "7", "--out", str(out), option, value]
        assert main(argv) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_alphabet_and_shape(self, demo_fasta):
        records = cli.read_fasta(demo_fasta)
        assert len(records) == 5
        assert all(len(seq) == 30 for _, seq in records)
        symbols = set("".join(seq for _, seq in records))
        assert symbols <= set("ACGT-")


class TestSample:
    def test_outputs_exist_and_reparse(self, samples_file, tmp_path):
        trees = load_samples(f"{samples_file}.samples")
        assert len(trees) == 2 * 50  # 2 chains, (300 - 100) / 4 kept each
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0] == "chain,iteration,log_posterior,accepted,move"
        assert len(trace) == 1 + 2 * 300
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 3
        assert manifest["taxa"][0] == "O"
        assert manifest["python"] == platform.python_version()

    def test_manifest_parameters_are_the_options_but_out(self, samples_file, tmp_path):
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        options = [name[2:] for name in COMMANDS["sample"].options if name != "--out"]
        assert sorted(manifest["parameters"]) == sorted(options)
        assert manifest["parameters"]["outgroup"] == "O"

    @pytest.mark.parametrize("outgroup", [None, "C"])
    def test_fasta_and_newick_give_one_taxon_table(self, tmp_path, outgroup):
        fasta = tmp_path / "aln.fasta"
        write_fasta(fasta, [(name, "ACGT") for name in ("D", "O", "B", "A", "C")])
        newick = "(((D:0.1,O:0.1):0.1,B:0.1):0.1,A:0.1,C:0.1);"
        taxa = cli.alignment_from_fasta(fasta, outgroup).taxa
        assert taxa == parse_newick(newick, outgroup=outgroup).taxa
        assert taxa.names[0] == (outgroup or "D")
        assert list(taxa.names[1:]) == sorted(taxa.names[1:])
        with pytest.raises(cli.InputError, match="not among the sequences"):
            cli.alignment_from_fasta(fasta, "X")
        with pytest.raises(NewickError, match="not among the taxa"):
            parse_newick(newick, outgroup="X")

    def test_reproducible_byte_for_byte(self, tmp_path, demo_fasta):
        args = [
            "sample",
            str(demo_fasta),
            "--seed",
            "5",
            "--chains",
            "2",
            "--iters",
            "120",
            "--burnin",
            "20",
            "--outgroup",
            "O",
        ]
        for out in ("one", "two"):
            rc = main(args + ["--out", str(tmp_path / out)])
            assert rc == EXIT_OK
        for suffix in (".samples", ".trace.csv", ".manifest.json"):
            first = (tmp_path / f"one{suffix}").read_bytes()
            second = (tmp_path / f"two{suffix}").read_bytes()
            assert first == second, suffix

    def test_ragged_alignment_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        write_fasta(bad, [("a", "ACGT"), ("b", "ACG"), ("c", "ACGT"), ("d", "ACGT")])
        rc = main(["sample", str(bad), "--out", str(tmp_path / "x"), "--seed", "1"])
        assert rc == EXIT_INPUT
        assert "ragged" in capsys.readouterr().err

    def test_too_few_sequences_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        write_fasta(bad, [("a", "ACGT"), ("b", "ACGT"), ("c", "ACGT")])
        rc = main(["sample", str(bad), "--out", str(tmp_path / "x"), "--seed", "1"])
        assert rc == EXIT_INPUT
        assert "at least 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            (">\nACGT\n>b\nACGT\n", "empty FASTA header"),
            ("ACGT\n>a\nACGT\n", "sequence data before any header"),
            ("", "no sequences"),
            (">a\nACGT\n>b\nACGT\n>a\nACGA\n>c\nACGT\n", "duplicate sequence name"),
        ],
        ids=["nameless-header", "data-before-header", "empty-file", "duplicate-name"],
    )
    def test_malformed_fasta_is_input_error(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        bad.write_text(text)
        rc = main(["sample", str(bad), "--out", str(tmp_path / "x"), "--seed", "1"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "x.samples").exists()

    @pytest.mark.parametrize(
        "option,message",
        [
            ("--chains", "chains must be positive"),
            ("--iters", "iterations must be positive"),
            ("--thin", "thin must be positive"),
        ],
    )
    def test_zero_count_is_input_error(self, option, message, tmp_path, demo_fasta, capsys):
        rc = main(
            ["sample", str(demo_fasta), "--out", str(tmp_path / "x"), "--seed", "1",
             "--iters", "5", "--burnin", "1", option, "0"]
        )
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.samples").exists()

    def test_newick_punctuation_in_a_name_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        write_fasta(bad, [("O", "ACGT"), ("A:1", "ACGT"), ("B", "ACGA"), ("C", "ACGT")])
        rc = main(["sample", str(bad), "--out", str(tmp_path / "x"), "--seed", "1"])
        assert rc == EXIT_INPUT
        assert "taxon label 'A:1'" in capsys.readouterr().err
        assert not (tmp_path / "x.samples").exists()

    def test_unknown_symbol_warns_and_proceeds(self, tmp_path, capsys):
        fasta = tmp_path / "n.fasta"
        write_fasta(
            fasta,
            [("a", "ANCT"), ("b", "ACCT"), ("c", "ACGT"), ("d", "ACGT")],
        )
        rc = main(
            [
                "sample",
                str(fasta),
                "--out",
                str(tmp_path / "x"),
                "--seed",
                "1",
                "--iters",
                "50",
                "--burnin",
                "10",
            ]
        )
        assert rc == EXIT_OK
        assert "mapped to gap" in capsys.readouterr().err

    def test_whitespace_inside_sequence_lines_is_dropped(self, tmp_path, capsys):
        fasta = tmp_path / "spaced.fasta"
        fasta.write_text(">a\nAC GT\n>b\nA\tCGT\n>c\n AC  G T \n>d\nAC\nG T\n")
        assert cli.read_fasta(fasta) == [(name, "ACGT") for name in "abcd"]
        out = tmp_path / "x"
        options = ["--out", str(out), "--seed", "1", "--iters", "20", "--burnin", "4"]
        rc = main(["sample", str(fasta), *options])
        assert rc == EXIT_OK
        assert capsys.readouterr().err.count("warning") == 0
        assert json.loads((tmp_path / "x.manifest.json").read_text())["columns"] == 4

    def test_each_unknown_symbol_warns_once(self, tmp_path, capsys):
        fasta = tmp_path / "n.fasta"
        write_fasta(
            fasta,
            [("a", "ANNRCTNN"), ("b", "NCCTRRNA"), ("c", "ACGTNNRG"), ("d", "RCGTACNN")],
        )
        options = ["--out", str(tmp_path / "x"), "--seed", "1", "--iters", "20", "--burnin", "4"]
        assert main(["sample", str(fasta), *options]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        warned = [line for line in err if line.startswith("warning:")]
        assert warned == [
            "warning: symbol 'N' mapped to gap",
            "warning: symbol 'R' mapped to gap",
        ]

    def test_numerical_failures_exit_three(self, tmp_path, demo_fasta, monkeypatch):
        def explode(*args, **kwargs):
            raise ColumnLikelihoodError(4, "likelihood underflow to zero")

        monkeypatch.setattr(cli, "run", explode)
        rc = main(
            ["sample", str(demo_fasta), "--out", str(tmp_path / "x"), "--seed", "1"]
        )
        assert rc == EXIT_NUMERICAL

    def test_failure_at_the_start_tree_names_it(self, tmp_path, demo_fasta, monkeypatch, capsys):
        calls = []

        def underflow(tree, *args):
            calls.append(tree)
            raise ColumnLikelihoodError(3, "likelihood underflow to zero")

        monkeypatch.setattr(mcmc, "log_posterior", underflow)
        rc = main(
            ["sample", str(demo_fasta), "--out", str(tmp_path / "x"), "--seed", "1",
             "--iters", "5", "--burnin", "1"]
        )
        assert rc == EXIT_NUMERICAL
        assert len(calls) == 1
        assert capsys.readouterr().err == (
            f"numerical failure: posterior evaluation failed on {serialize_newick(calls[0])}: "
            "column 3: likelihood underflow to zero\n"
        )
        assert not (tmp_path / "x.samples").exists()

    def test_64_taxa_long_branches_finite_or_exit_three(self, tmp_path):
        # four columns with a 70% shared base and one all-gap column; gamma
        # scale 3 draws a start tree with long branches
        rng = random.Random(64)
        base = [rng.randrange(4) for _ in range(4)]
        rows = []
        for taxon in range(64):
            shared = "".join(
                "ACGT"[b] if rng.random() < 0.7 else "ACGT-"[rng.randrange(5)]
                for b in base
            )
            rows.append((f"t{taxon:02d}", shared + "-"))
        fasta = tmp_path / "wide.fasta"
        write_fasta(fasta, rows)
        out = tmp_path / "wide"
        rc = main(
            [
                "sample", str(fasta), "--out", str(out), "--seed", "2",
                "--scale", "3", "--iters", "3", "--burnin", "0",
            ]
        )
        assert rc in (EXIT_OK, EXIT_NUMERICAL)
        if rc == EXIT_OK:
            trace = (tmp_path / "wide.trace.csv").read_text().splitlines()[1:]
            assert trace
            for row in trace:
                assert math.isfinite(float(row.split(",")[2]))

    @pytest.mark.parametrize("option,value", [("--scale", "1e308"), ("--shape", "1e-320")])
    def test_a_start_tree_the_prior_cannot_draw_is_a_numerical_failure(
        self, option, value, tmp_path, demo_fasta, capsys
    ):
        # both priors are valid, but their draws overflow to inf or
        # underflow to 0: no tree the user gave is at fault
        rc = main(
            ["sample", str(demo_fasta), "--out", str(tmp_path / "x"), "--seed", "1",
             "--iters", "5", "--burnin", "1", option, value]
        )
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: gamma prior draw gave a non-positive")
        assert re.search(r"length on (leaf|inner) edge", err)
        assert not (tmp_path / "x.samples").exists()

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["sample", str(tmp_path / "nope.fasta"), "--out", str(tmp_path / "x"), "--seed", "1"]
        )
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "option,message",
        [
            ("--alpha", "pseudocounts must be finite"),
            ("--shape", "shape and scale must be finite"),
            ("--scale", "shape and scale must be finite"),
            ("--sigma", "sigma must be finite"),
            ("--tau", "tau must lie strictly between 0 and 1"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_options_are_input_errors(
        self, option, message, value, tmp_path, demo_fasta, capsys
    ):
        out = tmp_path / "x"
        rc = main(
            ["sample", str(demo_fasta), "--out", str(out), "--seed", "1",
             "--iters", "5", "--burnin", "1", option, value]
        )
        assert rc == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.samples").exists()


class TestSeeds:
    @pytest.mark.parametrize("command", ["mean", "median", "compare", "sample"])
    def test_negative_seed_is_input_error_before_any_input_is_read(
        self, command, tmp_path, capsys
    ):
        # the input does not exist: the seed is rejected before it is opened
        argv = [command, str(tmp_path / "missing"), "--seed", "-1"]
        if command == "sample":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert "seed must be a nonnegative integer, got -1" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestEstimators:
    def test_mean_of_constant_samples(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text((DEMO_TREE + "\n") * 4)
        rc = main(["mean", str(path), "--seed", "1", "--steps", "200"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        tree = parse_newick(lines[0])
        want = parse_newick(DEMO_TREE)
        assert tree == want
        assert "# variance= 0" in lines[1]

    def test_median_two_ray_spider(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        rays = []
        for _ in range(6):
            rays.append("((A:0.1,B:0.1):0.8,C:0.1,O:0.1);")
        for _ in range(4):
            rays.append("((A:0.1,C:0.1):0.2,B:0.1,O:0.1);")
        path.write_text("\n".join(rays) + "\n")
        rc = main(["median", str(path), "--seed", "2"])
        assert rc == EXIT_OK

    def test_mean_two_ray_closed_form(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        lines = ["((A:0.1,B:0.1):0.8,C:0.1,O:0.1);", "((A:0.1,C:0.1):0.2,B:0.1,O:0.1);"]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["mean", str(path), "--seed", "4"])
        assert rc == EXIT_OK
        tree = parse_newick(capsys.readouterr().out.strip().splitlines()[0])
        (split, length), = tree.inner.items()
        assert length == pytest.approx(0.3, abs=2e-2)

    def test_order_flag_matches_between_modes(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.10,B:0.20):0.05,C:0.30,O:0.10);\n"
            "((A:0.14,B:0.24):0.09,C:0.34,O:0.14);\n"
            "((A:0.18,B:0.28):0.13,C:0.38,O:0.18);\n"
        )
        results = {}
        for order in ("random", "cyclic"):
            rc = main(["mean", str(path), "--order", order, "--seed", "5", "--steps", "30000"])
            assert rc == EXIT_OK
            results[order] = parse_newick(
                capsys.readouterr().out.strip().splitlines()[0]
            )
        a, b = results["random"], results["cyclic"]
        assert distance(a, b) < 1e-3

    def test_an_inner_edge_below_1e_12_is_dropped_from_the_estimate(self, tmp_path, capsys):
        text = "((A:0.1,B:0.2):1e-13,C:0.3,O:0.1);"
        path = tmp_path / "tiny.samples"
        path.write_text(text + "\n")
        assert main(["mean", str(path)]) == EXIT_OK
        tree = parse_newick(text)
        star = Tree(tree.taxa, tree.leaf_lengths, {})
        assert capsys.readouterr().out.splitlines()[0] == serialize_newick(star)

    @pytest.mark.parametrize("command", ["mean", "median", "compare"])
    def test_conflicting_lengths_whose_squares_underflow(self, command, tmp_path, capsys):
        path = tmp_path / "tiny.samples"
        path.write_text(f"{TINY_PAIR[0]}\n{TINY_PAIR[1]}\n")
        assert main([command, str(path), "--steps", "50"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out and err == ""

    def test_mixed_taxa_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.1,B:0.2):0.05,C:0.3,O:0.1);\n"
            "((A:0.1,B:0.2):0.05,X:0.3,O:0.1);\n"
        )
        assert main(["mean", str(path), "--seed", "1"]) == EXIT_INPUT

    def test_overflowing_lengths_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        for text in (
            "((A:0.1,B:0.2):1e999,C:0.3,O:0.1);",
            "((A:1e308):1e308,B:0.2,C:0.3,O:0.1);",
        ):
            path.write_text(text + "\n")
            assert main(["mean", str(path), "--seed", "1"]) == EXIT_INPUT
            assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mean", "median", "compare"])
    def test_overflowing_distances_exit_three_printing_nothing(
        self, command, tmp_path, capsys
    ):
        # finite lengths that validate, but whose conflicting splits put
        # the squared distance beyond the float range
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.1,B:0.2):1e200,C:0.3,O:0.1);\n"
            "((A:0.1,C:0.2):1e200,B:0.3,O:0.1);\n"
        )
        rc = main([command, str(path), "--seed", "1", "--steps", "50"])
        out, err = capsys.readouterr()
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert "numerical failure:" in err

    @pytest.mark.parametrize("command", ["mean", "median"])
    def test_overflowing_variance_exits_three_printing_nothing(
        self, command, tmp_path, capsys
    ):
        # every distance to the estimate is finite, but their squares sum
        # beyond the float range
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.1,B:0.2):6e153,(C:0.3,D:0.1):0.07,O:0.1);\n"
            "((A:0.1,C:0.2):6e153,(B:0.3,D:0.1):0.07,O:0.1);\n" * 50
        )
        rc = main([command, str(path), "--steps", "200"])
        out, err = capsys.readouterr()
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert "numerical failure: the variance overflows" in err

    def test_path_through_a_regular_file_is_input_error(self, tmp_path, capsys):
        regular = tmp_path / "trees.nwk"
        regular.write_text("((A:0.1,B:0.2):0.05,C:0.3,O:0.1);\n")
        assert main(["mean", str(regular / "x")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_two_trees_on_one_line_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(DEMO_TREE + "\n" + DEMO_TREE + DEMO_TREE + "\n")
        assert main(["mean", str(path), "--seed", "1"]) == EXIT_INPUT
        assert "line 2: unexpected text after ';'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mean", "median"])
    def test_a_huge_tolerance_stops_after_one_pass(self, command, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.10,B:0.20):0.05,C:0.30,O:0.10);\n"
            "((A:0.14,C:0.24):0.09,B:0.34,O:0.14);\n"
            "((B:0.18,C:0.28):0.13,A:0.38,O:0.18);\n"
        )
        outputs = []
        for extra in (["--steps", "3"], ["--steps", "300", "--tolerance", "1e9"]):
            assert main([command, str(path), "--seed", "2", *extra]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["mean", "median"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_input_error(self, command, value, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text((DEMO_TREE + "\n") * 3)
        assert main([command, str(path), "--tolerance", value]) == EXIT_INPUT
        assert "tolerance must be finite" in capsys.readouterr().err


class TestSummaryCommands:
    def test_consensus_constant(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text((DEMO_TREE + "\n") * 3)
        rc = main(["consensus", str(path)])
        assert rc == EXIT_OK
        result = parse_newick(capsys.readouterr().out.strip())
        assert trees_close(result, parse_newick(DEMO_TREE), tol=1e-12)

    def test_consensus_fifty_fifty_polytomy(self, tmp_path, capsys):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.1,B:0.1):0.5,C:0.1,O:0.1);\n"
            "((A:0.1,C:0.1):0.5,B:0.1,O:0.1);\n"
        )
        rc = main(["consensus", str(path)])
        assert rc == EXIT_OK
        assert parse_newick(capsys.readouterr().out.strip()).inner == {}

    def test_splits_csv_row_count(self, samples_file, capsys):
        rc = main(["splits", f"{samples_file}.samples", "--bins", "10"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        body = lines[1:]
        assert len(body) % 10 == 0
        distinct = {row.split(",")[0] for row in body}
        assert len(body) == 10 * len(distinct)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_bins_is_input_error(self, value, samples_file, capsys):
        rc = main(["splits", f"{samples_file}.samples", "--bins", value])
        assert rc == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err == "error: bins must be positive\n"

    def test_compare_runs(self, samples_file, capsys):
        rc = main(["compare", f"{samples_file}.samples", "--seed", "1", "--steps", "200"])
        assert rc == EXIT_OK
        assert "consensus" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["mean", "median", "consensus", "splits", "compare"])
    def test_samples_without_trees_is_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "empty.samples"
        path.write_text("# chain=0 iter=1\n# nothing kept\n")
        assert main([command, str(path)]) == EXIT_INPUT
        assert f"error: {path}: no trees" in capsys.readouterr().err

    def test_compare_steps_flag_sets_the_mean_budget(
        self, samples_file, capsys, monkeypatch
    ):
        budgets = []
        real_mean = cli.mean

        def recording_mean(trees, config):
            budgets.append(config.iterations)
            return real_mean(trees, config)

        monkeypatch.setattr(cli, "mean", recording_mean)
        rc = main(["compare", f"{samples_file}.samples", "--seed", "1", "--steps", "40"])
        assert rc == EXIT_OK
        assert budgets == [40]
        assert "consensus" in capsys.readouterr().out


class TestGeometryCommands:
    def test_distance_identity(self, capsys):
        rc = main(["distance", DEMO_TREE, DEMO_TREE, "--outgroup", "O"])
        assert rc == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_distance_cone_pair(self, capsys):
        a = "((A:0.1,B:0.1):0.3,C:0.1,O:0.1);"
        b = "((A:0.1,C:0.1):0.4,B:0.1,O:0.1);"
        rc = main(["distance", a, b, "--outgroup", "O"])
        assert rc == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.7, abs=1e-12)

    def test_distance_of_conflicting_lengths_whose_squares_underflow(self, capsys):
        assert main(["distance", *TINY_PAIR, "--outgroup", "O"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(3e-100, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("order", [1, -1])
    def test_distance_between_trees_whose_differences_square_to_zero(self, capsys, order):
        # one split at 1e-170 and 3e-170: every squared difference underflows
        pair = ["((A:0.1,B:0.1):1e-170,C:0.1,D:0.1,O:0.1);",
                "((A:0.1,B:0.1):3e-170,C:0.1,D:0.1,O:0.1);"][::order]
        assert main(["distance", *pair, "--outgroup", "O"]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(2e-170, rel=1e-15, abs=0.0)

    def test_interpolate_splits_distance_evenly(self, capsys):
        a = "((A:0.1,B:0.1):0.3,C:0.1,O:0.1);"
        b = "((A:0.1,C:0.1):0.4,B:0.1,O:0.1);"
        rc = main(["interpolate", a, b, "--lambda", "0.5", "--outgroup", "O"])
        assert rc == EXIT_OK
        mid = parse_newick(capsys.readouterr().out.strip(), outgroup="O")
        ta = parse_newick(a, outgroup="O")
        tb = parse_newick(b, outgroup="O")
        assert distance(ta, mid) == pytest.approx(0.35, abs=1e-9)
        assert distance(mid, tb) == pytest.approx(0.35, abs=1e-9)

    def test_tree_files_accepted(self, tmp_path, capsys):
        path = tmp_path / "tree.nwk"
        path.write_text(DEMO_TREE + "\n")
        rc = main(["distance", str(path), str(path), "--outgroup", "O"])
        assert rc == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_bad_newick_is_input_error(self, capsys):
        rc = main(["distance", "((A:0.1,B:0.2):0.05;", DEMO_TREE])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "command,extra", [("distance", []), ("interpolate", ["--lambda", "0.3"])]
    )
    def test_overflowing_distance_exits_three_printing_nothing(
        self, command, extra, capsys
    ):
        # the lengths validate, the squared distance between the
        # conflicting splits does not fit a float
        a = "((A:0.1,B:0.2):1e200,C:0.3,O:0.1);"
        b = "((A:0.1,C:0.2):1e200,B:0.3,O:0.1);"
        rc = main([command, a, b, *extra])
        out, err = capsys.readouterr()
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert "numerical failure:" in err

    def test_deeply_nested_newick_is_input_error(self, tmp_path, capsys):
        # an 1100-leaf caterpillar, deeper than the default recursion limit
        text = "(" * 1099 + "t0:1"
        text += "".join(f",t{i}:1):1" for i in range(1, 1100)) + ";"
        path = tmp_path / "deep.nwk"
        path.write_text(text + "\n")
        assert main(["consensus", str(path)]) == EXIT_INPUT
        assert "nested too deeply" in capsys.readouterr().err

    def test_lambda_out_of_range_is_input_error(self):
        rc = main(["interpolate", DEMO_TREE, DEMO_TREE, "--lambda", "1.5"])
        assert rc == EXIT_INPUT


# argparse reads a token that starts with `-` as an option name unless it
# looks like a negative number, so `--tolerance -1e-05` is an error there;
# the table's reader takes any token after an option name as its value
ARGPARSE_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
PARSER_SETTINGS = settings(max_examples=300, deadline=None, database=None,
                           derandomize=True)
# what a command line can get wrong, each rejected by both parsers
BREAKS = ("unknown option", "missing value", "bad value", "missing positional",
          "extra positional", "missing required option", "unknown command")


def _value(draw, option):
    if option.choices:
        return draw(st.sampled_from(option.choices))
    if option.type is int:
        return str(draw(st.integers(-10**6, 10**6)))
    if option.type is float:
        return draw(st.one_of(
            st.floats(allow_nan=False).map(repr),
            st.sampled_from(("inf", "-inf", ".5", "-.5", "-3", "1e-3", "-1E3")),
        ))
    # argparse drops a value that is exactly `--`
    return draw(st.text("aO_./:-", max_size=6).filter(lambda text: text != "--"))


@st.composite
def command_lines(draw, broken=None):
    """A command line of a random command: random options in random
    order, each `--name value` or `--name=value`, repeats allowed, with
    the positionals in order among them; `broken` names one of BREAKS."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    spec = COMMANDS[command]
    required = [name for name, option in spec.options.items() if option.required]
    if broken == "missing required option" and not required:
        broken = "unknown command"
    names = draw(st.lists(st.sampled_from(sorted(spec.options)), max_size=8)
                 if spec.options else st.just([]))
    names += required
    if broken == "missing required option":
        dropped = draw(st.sampled_from(required))
        names = [name for name in names if name != dropped]
    items = []
    for name in draw(st.permutations(names)):
        text = _value(draw, spec.options[name])
        joined = draw(st.booleans()) or (
            text.startswith("-") and not ARGPARSE_NEGATIVE_NUMBER.match(text)
        )
        items.append([f"{name}={text}"] if joined else [name, text])
    positionals = [draw(st.text("abO_./();:,", max_size=8)) for _ in spec.positionals]
    if broken == "missing positional":
        positionals.pop()
    slots = sorted(draw(st.lists(st.integers(0, len(items)),
                                 min_size=len(positionals), max_size=len(positionals))))
    for slot, text in reversed(list(zip(slots, positionals))):
        items.insert(slot, [text])
    argv = [command] + [token for item in items for token in item]
    typed = [name for name, option in spec.options.items()
             if option.type is not str or option.choices]
    if broken == "unknown option":
        argv += ["--bogus", "1"]
    elif broken == "missing value" and spec.options:
        argv.append(draw(st.sampled_from(sorted(spec.options))))
    elif broken == "bad value" and typed:
        argv += [draw(st.sampled_from(typed)), "1,5"]  # no number and no choice
    elif broken in ("missing value", "bad value", "extra positional"):
        argv.append("extra")
    elif broken == "unknown command":
        argv[0] = command[:-1]
    return argv


def _arguments(namespace) -> dict:
    return {k: v for k, v in vars(namespace).items() if k not in ("func", "command")}


class TestArguments:
    @PARSER_SETTINGS
    @given(command_lines())
    def test_reader_gives_the_reference_parsers_arguments(self, argv):
        assert _arguments(cli.parse_args(argv)) == _arguments(
            reference_parser().parse_args(argv)
        )

    @PARSER_SETTINGS
    @given(st.sampled_from(BREAKS).flatmap(lambda broken: command_lines(broken)))
    def test_reader_rejects_what_the_reference_parser_rejects(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == EXIT_INPUT
            with pytest.raises(SystemExit) as exc:
                reference_parser().parse_args(argv)
        assert exc.value.code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: bhvphylo")

    @pytest.mark.parametrize(
        "argv,abbreviated",
        [
            (["sample", "aln.fasta", "--out", "run", "--seed", "1", "--iters", "9"],
             "--iter"),
            (["mean", "run.samples", "--tolerance", "0.5"], "--tol"),
            (["splits", "run.samples", "--bins", "7"], "--bin"),
            (["interpolate", "a.nwk", "b.nwk", "--lambda", "0.5"], "--lamb"),
            (["simulate", "t.nwk", "--seed", "1", "--columns", "5"], "--col"),
        ],
    )
    def test_abbreviated_option_is_rejected(self, argv, abbreviated):
        # the one difference from the reference parser, which reads a
        # unique prefix as the whole name
        full = next(t for t in argv if t.startswith(abbreviated))
        short = [abbreviated if token == full else token for token in argv]
        assert _arguments(reference_parser().parse_args(short)) == _arguments(
            cli.parse_args(argv)
        )
        with pytest.raises(cli.UsageError, match=f"unrecognized arguments: {abbreviated}"):
            cli.parse_args(short)

    @pytest.mark.parametrize(
        "argv,prog,message",
        [
            ([], "bhvphylo", "the following arguments are required: command"),
            (["sampel"], "bhvphylo", "argument command: invalid choice: 'sampel'"),
            (["--seed", "1"], "bhvphylo", "unrecognized arguments: --seed"),
            (["mean", "--steps", "5"], "bhvphylo mean",
             "the following arguments are required: samples"),
            (["mean", "s", "--order", "sideways"], "bhvphylo mean",
             "argument --order: invalid choice: 'sideways'"),
            (["mean", "s", "--steps", "2.5"], "bhvphylo mean",
             "argument --steps: invalid int value: '2.5'"),
            (["mean", "s", "--seed"], "bhvphylo mean",
             "argument --seed: expected one argument"),
            (["consensus", "s", "t"], "bhvphylo consensus", "unrecognized arguments: t"),
            (["sample", "aln.fasta", "--out", "run", "--iters", "5"], "bhvphylo sample",
             "the following arguments are required: --seed"),
            (["simulate", "t.nwk", "--columns", "5", "--seed", "1", "--out", "x.fasta",
              "--alpha", "lots"], "bhvphylo simulate",
             "argument --alpha: invalid float value: 'lots'"),
        ],
    )
    def test_usage_error_prints_usage_and_exits_two_writing_nothing(
        self, argv, prog, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1].startswith(f"{prog}: error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_command_and_option(self, flag, capsys):
        assert main([flag]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.startswith("usage: bhvphylo [-h] [--version] {sample,")
        assert all(f"\n  {command} " in text for command in COMMANDS)
        for command, spec in COMMANDS.items():
            # help is printed whatever follows it
            assert main([command, flag, "--bogus", "--seed"]) == EXIT_OK
            text = capsys.readouterr().out
            assert text.startswith(f"usage: bhvphylo {command} [-h]")
            assert all(name in text for name in list(spec.positionals) + list(spec.options))

    def test_version(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out == f"{__version__}\n"

    def test_main_calls_the_command_bound_to_the_module_name(self, monkeypatch):
        # a profiler wraps `bhvphylo.cli.cmd_<command>` in place; main must
        # call the wrapper, not a reference taken at import
        calls = []

        def recorder(name):
            def record(args):
                calls.append((name, args.samples))
                return 17
            return record

        monkeypatch.setattr(cli, "cmd_consensus", recorder("consensus"))
        monkeypatch.setattr(cli, "cmd_mean", recorder("mean"))
        assert main(["consensus", "a.nwk"]) == 17
        assert main(["mean", "--seed=2", "b.nwk"]) == 17
        assert calls == [("consensus", "a.nwk"), ("mean", "b.nwk")]
