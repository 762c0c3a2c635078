"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.sparse import load_matrix, random_sparse, save_matrix, multiply


@pytest.fixture
def matrix_file(tmp_path):
    m = random_sparse(24, 24, nnz=120, seed=101)
    path = tmp_path / "a.npz"
    save_matrix(path, m)
    return str(path), m


class TestStats:
    def test_square(self, matrix_file, capsys):
        path, m = matrix_file
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert f"nnz = {m.nnz}" in out
        assert "cf" in out

    def test_dataset_operand(self, capsys):
        assert main(["stats", "dataset:eukarya"]) == 0
        assert "expansion" in capsys.readouterr().out

    def test_aat(self, matrix_file, capsys):
        path, _ = matrix_file
        assert main(["stats", path, "--aat"]) == 0


class TestMultiply:
    def test_square_and_save(self, matrix_file, tmp_path, capsys):
        path, m = matrix_file
        out_path = tmp_path / "c.npz"
        assert main([
            "multiply", path, "--nprocs", "4", "--batches", "2",
            "--output", str(out_path),
        ]) == 0
        product = load_matrix(out_path)
        assert product.allclose(multiply(m, m))
        assert "batches = 2" in capsys.readouterr().out

    def test_two_operands(self, tmp_path, capsys):
        a = random_sparse(20, 15, nnz=60, seed=102)
        b = random_sparse(15, 22, nnz=60, seed=103)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        save_matrix(pa, a)
        save_matrix(pb, b)
        assert main(["multiply", str(pa), str(pb), "--nprocs", "1"]) == 0
        assert "nnz(C)" in capsys.readouterr().out

    def test_memory_budget(self, matrix_file, capsys):
        path, m = matrix_file
        assert main([
            "multiply", path, "--nprocs", "4",
            "--memory-budget", str(30 * m.nnz * 24),
        ]) == 0

    def test_an_unknown_knob_value_is_refused_before_the_run(
        self, matrix_file, capsys
    ):
        path, _ = matrix_file
        with pytest.raises(SystemExit):  # a value set: argparse refuses
            main(["multiply", path, "--comm-backend", "spars"])
        # a registry name, or a combination: refused before any rank runs
        assert main(["multiply", path, "--kernel", "spgem"]) == 2
        assert "unknown local kernel 'spgem'" in capsys.readouterr().err
        assert main(["multiply", path, "--enforce", "strict"]) == 2
        assert "needs a budget" in capsys.readouterr().err

    def test_matrix_market_roundtrip(self, matrix_file, tmp_path):
        path, m = matrix_file
        out_path = tmp_path / "c.mtx"
        assert main(["multiply", path, "--output", str(out_path)]) == 0
        from repro.sparse import load_matrix_market

        assert load_matrix_market(out_path).allclose(multiply(m, m))


class TestOverlapAndTrace:
    def test_multiply_depth1_matches_reference(self, matrix_file, tmp_path,
                                               capsys):
        path, m = matrix_file
        out_path = tmp_path / "c.npz"
        assert main([
            "multiply", path, "--nprocs", "4", "--batches", "2",
            "--overlap", "depth1", "--output", str(out_path),
        ]) == 0
        assert load_matrix(out_path).allclose(multiply(m, m))
        assert "overlap = depth1" in capsys.readouterr().out

    def test_multiply_exports_valid_trace(self, matrix_file, tmp_path,
                                          capsys):
        from repro.summa.trace import validate_chrome_trace_file

        path, _ = matrix_file
        trace_path = tmp_path / "trace.json"
        assert main([
            "multiply", path, "--nprocs", "4",
            "--trace-out", str(trace_path),
        ]) == 0
        assert validate_chrome_trace_file(str(trace_path)) > 0
        assert "trace timeline saved" in capsys.readouterr().out

    def test_multiply_rejects_bad_overlap(self, matrix_file):
        path, _ = matrix_file
        with pytest.raises(SystemExit):
            main(["multiply", path, "--overlap", "depth9"])

    def test_predict_overlap_prints_makespan(self, capsys):
        assert main([
            "predict", "isolates", "--cores", "65536", "--layers", "16",
            "--overlap", "depth1",
        ]) == 0
        out = capsys.readouterr().out
        assert "overlapped makespan (depth1)" in out

    def test_predict_off_has_no_makespan_line(self, capsys):
        assert main([
            "predict", "isolates", "--cores", "65536", "--layers", "16",
        ]) == 0
        assert "overlapped makespan" not in capsys.readouterr().out


class TestGeneratePredict:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "euk.npz"
        assert main(["generate", "eukarya", str(out)]) == 0
        m = load_matrix(out)
        assert m.nnz > 0

    def test_generate_seed_changes_matrix(self, tmp_path):
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        main(["generate", "friendster", str(p1), "--seed", "0"])
        main(["generate", "friendster", str(p2), "--seed", "1"])
        assert not load_matrix(p1).allclose(load_matrix(p2))

    def test_predict(self, capsys):
        assert main([
            "predict", "isolates", "--cores", "65536", "--layers", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "modelled step times" in out
        assert "A-Broadcast" in out

    def test_predict_machines(self, capsys):
        for machine in ("cori-knl", "cori-haswell", "cori-knl-ht"):
            assert main([
                "predict", "eukarya", "--machine", machine,
                "--batches", "2",
            ]) == 0


class TestCluster:
    def test_cluster_dataset(self, tmp_path, capsys):
        from repro.data import planted_partition

        adj, _ = planted_partition(40, 3, p_in=0.7, p_out=0.02, seed=104)
        path = tmp_path / "g.npz"
        save_matrix(path, adj)
        labels_path = tmp_path / "labels.txt"
        assert main([
            "cluster", str(path), "--nprocs", "4",
            "--max-iterations", "25", "--output", str(labels_path),
        ]) == 0
        labels = np.loadtxt(labels_path, dtype=int)
        assert labels.shape == (40,)
        assert "clusters" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompare:
    def test_compare_runs_all_algorithms(self, matrix_file, capsys):
        path, _ = matrix_file
        assert main(["compare", path, "--nprocs", "4", "--layers", "1"]) == 0
        out = capsys.readouterr().out
        assert "1D-row" in out
        assert "Cannon" in out
        assert "SUMMA2D" in out

    def test_compare_with_layers(self, matrix_file, capsys):
        path, _ = matrix_file
        assert main([
            "compare", path, "--nprocs", "16", "--layers", "4",
            "--batches", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "SUMMA3D l=4" in out
        assert "Batched l=4 b=2" in out


class TestCalibrate:
    def test_fit_from_json(self, tmp_path, capsys):
        import json

        from repro.model import CORI_KNL
        from repro.model.complexity import step_times_closed_form

        obs = []
        for p, l, b in [(256, 1, 1), (1024, 4, 4), (4096, 16, 8), (1024, 16, 2)]:
            t = step_times_closed_form(
                CORI_KNL, nprocs=p, layers=l, batches=b,
                nnz_a=10**9, nnz_b=10**9, flops=10**12, merge_kernel="hash",
            )
            obs.append(dict(
                nprocs=p, layers=l, batches=b,
                nnz_a=10**9, nnz_b=10**9, flops=10**12,
                step_seconds={k: v for k, v in t.items() if k != "Symbolic"},
            ))
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(obs))
        assert main(["calibrate", str(path), "--name", "my-fit"]) == 0
        out = capsys.readouterr().out
        assert "my-fit" in out
        assert "alpha" in out and "beta" in out


class TestGraphCommands:
    def test_triangles(self, tmp_path, capsys):
        from repro.data import erdos_renyi

        g = erdos_renyi(40, avg_degree=8, seed=301)
        path = tmp_path / "g.npz"
        save_matrix(path, g)
        assert main(["triangles", str(path), "--coefficients"]) == 0
        out = capsys.readouterr().out
        assert "triangles:" in out
        assert "clustering coefficient" in out

    def test_components(self, tmp_path, capsys):
        from repro.data import planted_partition

        adj, _ = planted_partition(30, 3, p_in=0.7, p_out=0.0, seed=302)
        path = tmp_path / "g.npz"
        save_matrix(path, adj)
        labels_path = tmp_path / "labels.txt"
        assert main([
            "components", str(path), "--output", str(labels_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "components: 3" in out
        assert np.loadtxt(labels_path).shape == (30,)
