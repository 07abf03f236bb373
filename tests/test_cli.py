import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bhvphylo.cli as cli
from bhvphylo.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from bhvphylo.geodesic import distance
from bhvphylo.phylo_model import ColumnLikelihoodError
from bhvphylo.treespace import load_samples, parse_newick

from conftest import trees_close

DEMO_TREE = "((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07,O:0.1);"


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

    def test_numerical_failures_exit_three(self, tmp_path, demo_fasta, monkeypatch):
        def explode(*args, **kwargs):
            raise ColumnLikelihoodError(4, "likelihood underflow to zero")

        monkeypatch.setattr(cli, "run", explode)
        rc = main(
            ["sample", str(demo_fasta), "--out", str(tmp_path / "x"), "--seed", "1"]
        )
        assert rc == EXIT_NUMERICAL

    def test_64_taxa_long_branches_finite_or_exit_three(self, tmp_path):
        # four columns with a 70% shared base and one all-gap column; gamma
        # scale 3 draws a start tree with long branches
        rng = np.random.default_rng(64)
        base = rng.integers(0, 4, 4)
        rows = []
        for taxon in range(64):
            shared = "".join(
                "ACGT"[b] if rng.uniform() < 0.7 else "ACGT-"[rng.integers(5)]
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

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["sample", str(tmp_path / "nope.fasta"), "--out", str(tmp_path / "x"), "--seed", "1"]
        )
        assert rc == EXIT_INPUT


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

    def test_path_through_a_regular_file_is_input_error(self, tmp_path, capsys):
        regular = tmp_path / "trees.nwk"
        regular.write_text("((A:0.1,B:0.2):0.05,C:0.3,O:0.1);\n")
        assert main(["mean", str(regular / "x")]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err


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
