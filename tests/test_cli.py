import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fractalheat.kernel as K
from fractalheat.cli import (
    EXIT_COMPUTE,
    EXIT_OK,
    EXIT_VALIDATION,
    ValidationError,
    main,
    parse_times,
)


def run_cli(*args, timeout=600):
    return subprocess.run([sys.executable, "-m", "fractalheat.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


class TestParseTimes:
    def test_single(self):
        assert np.allclose(parse_times("0.3"), [0.3])

    def test_log_grid(self):
        g = parse_times("0.01:0.5:log20")
        assert g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(0.5)
        assert len(g) == 35   # 1.7 decades at 20 points per decade, inclusive
        assert np.array_equal(g, np.geomspace(0.01, 0.5, 35))

    def test_lin_grid(self):
        g = parse_times("0.1:0.2:lin5")
        assert np.allclose(g, np.linspace(0.1, 0.2, 5))

    @pytest.mark.parametrize("bad", ["0", "-1", "1:0.5:log20", "a:b:c", "1:2:geo3"])
    def test_rejects(self, bad):
        with pytest.raises((ValidationError, ValueError)):
            parse_times(bad)


class TestExitCodes:
    def test_model_ok(self, tmp_path):
        rc = main(["model", "--model", "vicsek", "--level", "2",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_unknown_model_is_validation_error(self, tmp_path):
        rc = main(["model", "--model", "nosuch", "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_out_of_range_level(self, tmp_path):
        rc = main(["model", "--model", "vicsek", "--level", "99",
                   "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_malformed_config_no_partial_outputs(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nlevel = 99\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "model", "--model", "vicsek",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nwibble = 3\n")
        rc = main(["--config", str(cfg), "model", "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("line", ["format = bogus", "x_ids = 0,a"])
    def test_bad_config_value_refused(self, tmp_path, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[run]\n{line}\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "kernel", "--level", "1",
                   "--times", "0.1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["kernel", "--times", "abc"], ["kernel", "--times", "0.1:1:linX"],
        ["solve", "--f", "bogus"], ["solve", "--f", "sin:abc"],
        ["solve", "--sigma", "bogus"], ["solve", "--u0", "bogus"],
        ["solve", "--base", "stable:abc"], ["solve", "--base", "stable:2.5"],
        ["solve", "--base", "atomic:0.5"], ["solve", "--base", "atomic:2=1"],
        ["eta", "--sigma", "bogus"], ["eta", "--times", "abc"],
    ], ids=" ".join)
    def test_bad_option_value_refused(self, tmp_path, monkeypatch, argv):
        # refused while parsing, before any vertex set is built
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the options parsed")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        out = tmp_path / "out"
        rc = main([*argv, "--level", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["kernel", "--times", "nan"], ["kernel", "--times", "0.1:inf:lin4"],
        ["kernel", "--times", "0.1:1:lin0"], ["kernel", "--times", "0.1:1:lin1"],
        ["kernel", "--times", "0.1:1:log-5"], ["kernel", "--times", "0.1:1:log0"],
        ["eta", "--T", "nan"], ["solve", "--T", "inf"], ["solve", "--seed", "-1"],
        ["solve", "--u0", "bump:0.3"], ["solve", "--u0", "bump:center:-1"],
        ["solve", "--u0", "bump:center:nan"], ["solve", "--u0", "one:2"],
        ["solve", "--f", "zero:3"], ["solve", "--f", "sin:inf"], ["solve", "--f", "sin:1:2"],
        ["solve", "--base", "gaussian:7"], ["solve", "--base", "stable:1.5:2"],
        ["sm", "sample", "--base", "atomic:0.5=nan"], ["verify", "--suite", "nosuch"],
    ], ids=" ".join)
    def test_unread_or_non_finite_value_refused(self, tmp_path, monkeypatch, argv):
        # every number finite, every text read to its end; refused while the
        # options parse, before any vertex set is built
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the options parsed")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("command", [["model"], ["kernel"], ["sm", "sample"], ["eta"],
                                         ["solve"], ["verify", "--suite", ""]], ids=" ".join)
    @pytest.mark.parametrize("line", ["f = zero:3", "t = nan", "seed = -1"])
    def test_shared_config_checked_for_every_command(self, tmp_path, command, line):
        # a value a command does not read is still refused
        cfg = tmp_path / "shared.ini"
        cfg.write_text(f"[run]\n{line}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), *command, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--times", "2"], ["--times", "0.5:3:lin4"],
                                      ["--T", "0.001"]], ids=" ".join)
    def test_eta_times_beyond_horizon_refused(self, tmp_path, monkeypatch, argv):
        # refused before any vertex set is built; a horizon T below the
        # scaling window leaves the default grid empty
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the times were checked")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        out = tmp_path / "out"
        rc = main(["eta", "--level", "1", "--depth", "2", *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        "alpha = 3.0\n", "d_s = 1.0\n", "alpha = 0.9\nd_s = 1.0\n",
        "alpha = 3.0\nd_s = -1\n", "alpha = 3.0\nd_s = nan\n",
    ], ids=["no d_s", "no alpha", "alpha 0.9", "d_s -1", "d_s nan"])
    def test_bad_model_file_refused(self, tmp_path, monkeypatch, lines):
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the model was checked")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        ifs = tmp_path / "m.ini"
        ifs.write_text(f"[model]\nname = m\n{lines}"
                       "[maps]\np1 = 0,0\np2 = 0,1\np3 = 1,1\np4 = 1,0\np5 = 0.5,0.5\n")
        out = tmp_path / "out"
        rc = main(["solve", "--model", str(ifs), "--level", "1", "--depth", "2",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sm", "sample"], ["eta"], ["solve"]], ids=" ".join)
    def test_depth_below_blowup_refused(self, tmp_path, monkeypatch, argv):
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the depth was checked")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        out = tmp_path / "out"
        rc = main([*argv, "--blowup", "2", "--depth", "1", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sm", "sample"], ["eta", "--level", "5", "--times", "0.5"],
                                      ["solve", "--level", "5"]], ids=" ".join)
    def test_depth_beyond_cell_budget_refused(self, tmp_path, monkeypatch, argv):
        # Vicsek depth 10 needs 5^10 = 9,765,625 noise cells; refused before
        # any vertex set or kernel is built, not after the factorization
        import fractalheat.geometry as geometry

        def not_built(*args, **kwargs):
            raise AssertionError("built before the depth was checked")

        monkeypatch.setattr(geometry, "vertex_set", not_built)
        monkeypatch.setattr(K, "HeatKernel", not_built)
        out = tmp_path / "out"
        rc = main([*argv, "--depth", "10", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("command", ["model", "kernel", "eta", "solve"])
    def test_level_beyond_cell_budget_refused(self, tmp_path, monkeypatch, command):
        # a 7-map IFS at level 8 needs 7^8 = 5,764,801 cells; refused before
        # any vertex set or kernel is built
        import fractalheat.geometry as geometry

        def not_built(*args, **kwargs):
            raise AssertionError("built before the level was checked")

        monkeypatch.setattr(geometry, "vertex_set", not_built)
        monkeypatch.setattr(K, "HeatKernel", not_built)
        ifs = tmp_path / "seven.ini"
        ifs.write_text("[model]\nname = seven\nalpha = 3.0\nd_s = 1.0\n[maps]\n"
                       "p1 = 0,0\np2 = 0,1\np3 = 1,1\np4 = 1,0\np5 = 0.5,0.5\n"
                       "p6 = 0.5,0\np7 = 0,0.5\n")
        out = tmp_path / "out"
        rc = main([command, "--model", str(ifs), "--level", "8", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eta", "--level", "2", "--sigma", "rough_half"],      # 0.5 <= d_f/2
        ["kernel", "--level", "4", "--format", "binary"],      # V = 1,876
    ], ids=" ".join)
    def test_refused_before_the_kernel(self, tmp_path, monkeypatch, argv):
        def no_kernel(*args, **kwargs):
            raise AssertionError("heat kernel built before the inputs were checked")

        monkeypatch.setattr(K, "HeatKernel", no_kernel)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--level", "0"], ["--level", "1"], ["--model", "gasket", "--level", "1"],
    ], ids=" ".join)
    def test_kernel_empty_default_window_refused(self, tmp_path, monkeypatch, capsys, argv):
        # the default grid spans [10 time_scale^(blowup - level), 0.5], empty
        # on these levels; refused before any vertex set is built
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the time window was checked")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        out = tmp_path / "out"
        assert main(["kernel", *argv, "--out", str(out)]) == EXIT_VALIDATION
        assert "--times" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--level", "1"], ["--model", "gasket", "--level", "1"],
        ["--level", "3", "--T", "0.001"],
    ], ids=" ".join)
    def test_eta_empty_default_window_refused(self, tmp_path, monkeypatch, capsys, argv):
        # eta's default grid spans the scaling window up to min(0.5, T); on
        # level 1 it would run backwards from 10 time_scale^-1 to 0.5
        import fractalheat.geometry as geometry

        def no_vertex_set(*args, **kwargs):
            raise AssertionError("vertex set built before the time window was checked")

        monkeypatch.setattr(geometry, "vertex_set", no_vertex_set)
        out = tmp_path / "out"
        assert main(["eta", *argv, "--depth", "2", "--out", str(out)]) == EXIT_VALIDATION
        assert "--times" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["override_gate = bogus", "override_gate = on",
                                      "command = model", "action = sample",
                                      "config = other.ini"])
    def test_ignored_config_value_refused(self, tmp_path, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[run]\n{line}\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "solve", "--level", "1", "--depth", "2",
                   "--steps", "4", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("text,rc", [("TRUE", EXIT_OK), ("Yes", EXIT_OK), ("1", EXIT_OK),
                                         ("false", EXIT_VALIDATION), ("NO", EXIT_VALIDATION),
                                         ("0", EXIT_VALIDATION)])
    def test_override_gate_config_values(self, tmp_path, text, rc):
        # the gasket fails gate A7, so only a true override_gate runs it
        cfg = tmp_path / "gate.ini"
        cfg.write_text(f"[run]\noverride_gate = {text}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "solve", "--model", "gasket", "--level", "1",
                     "--depth", "2", "--steps", "4", "--out", str(out)]) == rc
        assert (out / "solution.csv").exists() == (rc == EXIT_OK)

    def test_bad_x_ids_flag_refused(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["kernel", "--level", "1", "--times", "0.1", "--x-ids", "0,a",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("ids", ["-1", "0,999", "12"])
    def test_x_ids_out_of_range_refused(self, tmp_path, ids):
        # level 1 has 16 vertices; Dirichlet keeps 12 of them
        out = tmp_path / "out"
        rc = main(["kernel", "--level", "1", "--times", "0.1", "--boundary",
                   "dirichlet", "--x-ids", ids, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    def test_uppercase_T_config_key(self, tmp_path):
        cfg = tmp_path / "t.ini"
        cfg.write_text("[run]\nT = 2.0\n")
        out = tmp_path / "out"
        # level 1 has an empty scaling window, so the times are given
        assert main(["--config", str(cfg), "eta", "--level", "1", "--depth", "2",
                     "--times", "0.5", "--out", str(out)]) == EXIT_OK
        assert "t = 2.0\n" in (out / "config_resolved.ini").read_text()

    def test_threads_knob_removed(self, tmp_path):
        cfg = tmp_path / "t.ini"
        cfg.write_text("[run]\nthreads = 2\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "model", "--out", str(out)]) == EXIT_VALIDATION
        assert main(["verify", "--suite", "", "--threads", "2",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kernel", "eta", "solve"])
    def test_oversize_graph_refused_exit2(self, tmp_path, command):
        # Vicsek level 6 has 46,876 vertices, whose symmetry blocks exceed the
        # kernel budget; the refusal comes before any block and any artifact
        out = tmp_path / "big"
        start = time.monotonic()
        proc = run_cli(command, "--model", "vicsek", "--level", "6",
                       "--out", str(out), timeout=120)
        assert proc.returncode == EXIT_VALIDATION
        assert "V = 46876" in proc.stderr and "25000000" in proc.stderr
        assert not out.exists()
        assert time.monotonic() - start < 30

    def test_gasket_solve_refused_exit2(self, tmp_path):
        proc = run_cli("solve", "--model", "gasket", "--level", "2",
                       "--depth", "3", "--steps", "8", "--out", str(tmp_path / "g"))
        assert proc.returncode == EXIT_VALIDATION
        assert "spectral dimension" in proc.stderr
        assert not (tmp_path / "g" / "solution.csv").exists()

    def test_gasket_override_runs(self, tmp_path):
        proc = run_cli("solve", "--model", "gasket", "--level", "2", "--depth", "3",
                       "--steps", "8", "--override-gate", "--out", str(tmp_path))
        assert proc.returncode == EXIT_OK
        assert (tmp_path / "solution.csv").exists()


class TestConfigPrecedence:
    def test_cli_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nlevel = 1\nseed = 9\n")
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "model", "--model", "vicsek",
                   "--level", "2", "--out", str(out)])
        assert rc == EXIT_OK
        resolved = (out / "config_resolved.ini").read_text()
        assert "level = 2" in resolved          # CLI wins
        assert "seed = 9" in resolved           # config beats default
        assert "blowup = 0" in resolved         # default preserved

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACTALHEAT_OUT", str(tmp_path / "envout"))
        rc = main(["model", "--model", "vicsek", "--level", "1"])
        assert rc == EXIT_OK
        assert (tmp_path / "envout" / "vertices.csv").exists()


class TestArtifacts:
    def test_model_artifacts_and_manifest(self, tmp_path):
        rc = main(["model", "--model", "vicsek", "--level", "2",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        names = {"vertices.csv", "model.txt", "config_resolved.ini", "MANIFEST.txt"}
        assert names <= set(os.listdir(tmp_path))
        for line in (tmp_path / "MANIFEST.txt").read_text().splitlines()[1:]:
            digest, size, _, name = line.split()
            blob = (tmp_path / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest
            assert int(size) == len(blob)

    def test_kernel_csv(self, tmp_path):
        rc = main(["kernel", "--model", "vicsek", "--level", "1",
                   "--times", "0.05:0.2:lin3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        head = (tmp_path / "kernel.csv").read_text().splitlines()[0]
        assert head == "t,x_id,y_id,density"
        assert (tmp_path / "kernel_diag.csv").exists()

    def test_kernel_csv_row_subset(self, tmp_path):
        rc = main(["kernel", "--model", "vicsek", "--level", "2",
                   "--times", "0.1", "--x-ids", "0,3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "kernel.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 76
        assert {l.split(",")[1] for l in lines[1:]} == {"0", "3"}

    @pytest.mark.parametrize("level,limit,rows", [(3, None, 376), (4, None, 8),
                                                  (3, 375, 8)])
    def test_kernel_csv_default_rows(self, tmp_path, monkeypatch, level, limit, rows):
        # every row up to DENSE_TABLE_LIMIT vertices, the first 8 above it
        if limit is not None:
            monkeypatch.setattr(K, "DENSE_TABLE_LIMIT", limit)
        rc = main(["kernel", "--model", "vicsek", "--level", str(level),
                   "--times", "0.1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        with open(tmp_path / "kernel.csv") as f:
            next(f)
            x_ids = {line.split(",", 2)[1] for line in f}
        assert x_ids == {str(x) for x in range(rows)}

    def test_kernel_binary(self, tmp_path):
        rc = main(["kernel", "--model", "vicsek", "--level", "1",
                   "--times", "0.05:0.2:lin3", "--format", "binary",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        header = np.fromfile(tmp_path / "kernel.bin", dtype=np.int64, count=4)
        assert header[0] == 0x46484b54 and header[2] == 16 and header[3] == 3

    def test_kernel_dirichlet(self, tmp_path):
        rc = main(["kernel", "--model", "vicsek", "--level", "1",
                   "--boundary", "dirichlet", "--times", "0.1",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        diag = (tmp_path / "kernel_diag.csv").read_text().strip().splitlines()
        assert len(diag) == 1 + 12     # 16 vertices minus 4 boundary corners

    def test_ifs_file_as_model(self, tmp_path):
        import math
        ifs = tmp_path / "custom.ini"
        ifs.write_text(
            "[model]\nname = customv\nalpha = 3.0\n"
            f"d_s = {math.log(25) / math.log(15)}\n"
            "[maps]\np1 = 0,0\np2 = 0,1\np3 = 1,1\np4 = 1,0\np5 = 0.5,0.5\n")
        out = tmp_path / "out"
        rc = main(["model", "--model", str(ifs), "--level", "2", "--out", str(out)])
        assert rc == EXIT_OK
        assert "customv" in (out / "model.txt").read_text()

    def test_sm_sample_roundtrip(self, tmp_path, vicsek):
        from fractalheat.measure import read_realization
        rc = main(["sm", "sample", "--base", "gaussian", "--seed", "42",
                   "--depth", "4", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        real = read_realization(tmp_path / "realization.txt", vicsek)
        assert real.n_max == 4 and real.base.seed == 42

    def test_eta_artifacts(self, tmp_path):
        rc = main(["eta", "--model", "vicsek", "--level", "2", "--depth", "4",
                   "--seed", "1", "--sigma", "preset:smooth", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "eta.csv").exists()
        conv = (tmp_path / "eta_convergence.csv").read_text().splitlines()
        assert conv[0] == "level,sup_increment" and len(conv) == 5

    def test_eta_boundary_flag_matches_config(self, tmp_path):
        cfg = tmp_path / "dirichlet.ini"
        cfg.write_text("[run]\nboundary = dirichlet\n")
        args = ["eta", "--level", "2", "--depth", "3"]
        assert main([*args, "--boundary", "dirichlet",
                     "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert main(["--config", str(cfg), *args,
                     "--out", str(tmp_path / "cfg")]) == EXIT_OK
        flag = (tmp_path / "flag" / "eta.csv").read_bytes()
        assert flag == (tmp_path / "cfg" / "eta.csv").read_bytes()
        rows = flag.decode().splitlines()[1:]
        assert len({row.split(",")[1] for row in rows}) == 72   # 76 minus 4 corners

    @pytest.mark.parametrize("args, names", [
        (["kernel", "--level", "2", "--x-ids", "0,3"], ["kernel.csv", "kernel_diag.csv"]),
        (["eta", "--level", "2", "--depth", "3", "--T", "2.0"],
         ["eta.csv", "eta_convergence.csv"]),
        (["model", "--level", "2", "--blowup", "1"], ["vertices.csv", "model.txt"]),
        (["sm", "sample", "--depth", "3", "--seed", "4", "--base", "stable:1.2"],
         ["realization.txt"]),
        (["solve", "--level", "1", "--depth", "2", "--steps", "8", "--seed", "5",
          "--f", "const:0.25", "--u0", "bump:center:0.3", "--override-gate"],
         ["solution.csv", "diagnostics.csv", "realization.txt", "gate.txt"]),
        (["verify", "--suite", ""], ["report.csv"]),
    ])
    def test_echoed_config_round_trip(self, tmp_path, args, names):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*args, "--out", str(first)]) == EXIT_OK
        echoed = str(first / "config_resolved.ini")
        command = args[:2] if args[0] == "sm" else args[:1]
        assert main(["--config", echoed, *command, "--out", str(second)]) == EXIT_OK
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        echo = (first / "config_resolved.ini").read_text()
        assert echo.replace(str(first), str(second)) == (
            second / "config_resolved.ini").read_text()

    def test_percent_in_value_echoed_and_replayed(self, tmp_path):
        first, second = tmp_path / "a%b", tmp_path / "c%d"
        assert main(["model", "--level", "1", "--out", str(first)]) == EXIT_OK
        assert f"out = {first}\n" in (first / "config_resolved.ini").read_text()
        assert main(["--config", str(first / "config_resolved.ini"), "model",
                     "--out", str(second)]) == EXIT_OK
        assert (first / "vertices.csv").read_bytes() == (second / "vertices.csv").read_bytes()

    def test_bracketed_x_ids_line_replays(self, tmp_path):
        # earlier versions echoed x_ids as a Python list
        cfg = tmp_path / "old.ini"
        cfg.write_text("[run]\nlevel = 2\ntimes = 0.1\nx_ids = [0, 3]\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["--config", str(cfg), "kernel", "--out", str(first)]) == EXIT_OK
        assert main(["kernel", "--level", "2", "--times", "0.1", "--x-ids", "0,3",
                     "--out", str(second)]) == EXIT_OK
        assert (first / "kernel.csv").read_bytes() == (second / "kernel.csv").read_bytes()

    def test_solve_artifacts(self, tmp_path):
        rc = main(["solve", "--model", "vicsek", "--level", "2", "--depth", "3",
                   "--steps", "8", "--seed", "3", "--f", "sin:0.5",
                   "--u0", "bump:center", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        for name in ("solution.csv", "diagnostics.csv", "realization.txt",
                     "gate.txt", "MANIFEST.txt"):
            assert (tmp_path / name).exists()
        assert "overall: PASS" in (tmp_path / "gate.txt").read_text()

    def test_nonconverged_solve_fails(self, tmp_path, capsys):
        # K_f T = 24 is far past what 25 sweeps contract on this grid
        rc = main(["solve", "--model", "vicsek", "--level", "2", "--depth", "3",
                   "--f", "sin:24", "--out", str(tmp_path)])
        assert rc == EXIT_COMPUTE
        assert "no convergence" in capsys.readouterr().err
        for name in ("solution.csv", "diagnostics.csv", "MANIFEST.txt"):
            assert (tmp_path / name).exists()


class TestReproducibility:
    def test_byte_identical_runs(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["solve", "--model", "vicsek", "--level", "2", "--depth", "3",
                       "--steps", "8", "--seed", "11", "--out", str(out)])
            assert rc == EXIT_OK
            # the config echo records the differing --out path; the payload
            # artifacts are the reproducibility target
            blob = b"".join((out / n).read_bytes()
                            for n in ("solution.csv", "diagnostics.csv",
                                      "realization.txt"))
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]


class TestVerifyCommand:
    def test_empty_suite_ok(self, tmp_path):
        rc = main(["verify", "--suite", "", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert "0 checks" in (tmp_path / "report.txt").read_text()

    def test_named_single_check(self, tmp_path):
        rc = main(["verify", "--suite", "quick_geometry", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0].startswith("name,passed")
        assert len(report) == 2

    def test_results_named_by_registry_key(self):
        from fractalheat.verify import run_verify
        assert [r.name for r in run_verify("quick_kernel").results] == ["quick_kernel"]

    def test_unknown_check_rejected(self, tmp_path):
        rc = main(["verify", "--suite", "nosuch_check", "--out", str(tmp_path)])
        assert rc in (EXIT_COMPUTE, EXIT_VALIDATION)
