import hashlib
import json
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import ronkin_reference
from helpers import height

from zeta_heights import amoeba, cli, curves, grid, torsion


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHeight:
    def test_interior_point(self, capsys):
        code, out = run(capsys, "height", "--d", "4", "--c", "1,2")
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["total"] - 0.3465736) <= 1e-7
        assert rec["order"] == 4
        assert rec["classification"] == "interior"
        assert rec["total"] == rec["archimedean"] + rec["nonarchimedean"]

    def test_min_point(self, capsys):
        code, out = run(capsys, "height", "--d", "7", "--c", "0,3")
        rec = json.loads(out)
        assert code == 0
        assert rec["classification"] == "min"
        assert abs(rec["total"]) <= 1e-10

    def test_max_point(self, capsys):
        code, out = run(capsys, "height", "--d", "6", "--c", "3,1")
        rec = json.loads(out)
        assert code == 0
        assert rec["classification"] == "max"
        assert abs(rec["total"] - 0.6931472) <= 1e-7

    def test_trivial_point_exits_2(self, capsys):
        code, _ = run(capsys, "height", "--d", "5", "--c", "0,0")
        assert code == 2

    def test_huge_order_exits_2(self, capsys):
        assert cli.main(["height", "--d", "100000000000", "--c", "1,0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGrid:
    def test_csv_d3(self, capsys):
        code, out = run(capsys, "grid", "--d", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c1,c2,height"
        assert len(lines) == 9  # header + 8 cells
        for line in lines[1:]:
            assert abs(float(line.split(",")[2])) <= 1e-12

    def test_csv_d2_has_three_rows(self, capsys):
        code, out = run(capsys, "grid", "--d", "2", "--format", "csv")
        assert len(out.strip().splitlines()) == 4

    def test_csv_round_trip(self, capsys):
        code, out = run(capsys, "grid", "--d", "9", "--format", "csv")
        g = grid.compute_grid(9)
        for line in out.strip().splitlines()[1:]:
            c1, c2, h = line.split(",")
            assert float(h) == height(g, int(c1), int(c2))

    def test_pgm_structure(self, capsys):
        code, out = run(capsys, "grid", "--d", "6", "--format", "pgm")
        lines = out.strip().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "6 6"
        assert lines[2] == "255"
        rows = [[int(v) for v in line.split()] for line in lines[3:]]
        assert len(rows) == 6 and all(len(r) == 6 for r in rows)
        assert rows[0][0] == 0  # sentinel
        g = grid.compute_grid(6)
        # row index is c2, column index is c1
        expect = math.floor(255.0 * height(g, 3, 1) / math.log(2) + 0.5)
        assert rows[1][3] == expect
        assert all(0 <= v <= 255 for row in rows for v in row)

    def test_pgm_d120_near_eta_band_dominates(self, capsys):
        # the gray level of eta is 179; the levels within the 0.1-band
        # around it hold more than half of all pixels
        code, out = run(capsys, "grid", "--d", "120", "--format", "pgm")
        pixels = [int(v) for line in out.strip().splitlines()[3:] for v in line.split()]
        eta_level = 179
        band = round(0.1 * 255 / math.log(2))
        near = sum(1 for v in pixels if abs(v - eta_level) <= band)
        assert near / (120 * 120 - 1) > 0.5

    def test_deterministic_across_runs_and_threads(self, capsys, tmp_path):
        paths = [tmp_path / name for name in ("a.pgm", "b.pgm", "c.pgm")]
        assert cli.main(["grid", "--d", "60", "--format", "pgm", "--out", str(paths[0])]) == 0
        assert cli.main(["grid", "--d", "60", "--format", "pgm", "--out", str(paths[1])]) == 0
        assert cli.main(["grid", "--d", "60", "--format", "pgm", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_json_embeds_stats(self, capsys):
        code, out = run(capsys, "grid", "--d", "5", "--format", "json")
        rec = json.loads(out)
        assert rec["d"] == 5
        assert sum(rec["stats"]["histogram"]) == 24

    def test_unwritable_path_exits_3(self, capsys):
        code = cli.main(["grid", "--d", "3", "--out", "/nonexistent-dir/x/grid.csv"])
        assert code == 3

    def test_huge_grid_exits_2(self, capsys):
        assert cli.main(["grid", "--d", "3000000", "--format", "json"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestStats:
    def test_small_range_means_below_eta(self, capsys):
        from zeta_heights import constants

        code, out = run(capsys, "stats", "--d-range", "2:10", "--epsilon", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,mean,ratio_near_eta,min,max,count_zero"
        assert len(lines) == 10
        for line in lines[1:]:
            assert float(line.split(",")[1]) < constants.eta()

    def test_matches_grid_module(self, capsys):
        code, out = run(capsys, "stats", "--d-range", "120:120", "--format", "json")
        rec = json.loads(out)["rows"][0]
        st = grid.stats(120, 0.1)
        assert rec["count_near_eta"] == st.count_near_eta
        assert rec["mean"] == st.mean

    def test_empty_range_exits_2(self, capsys):
        code, _ = run(capsys, "stats", "--d-range", "5:2")
        assert code == 2

    def test_cost_limit_checked_before_any_sum(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an orbit sum ran")

        monkeypatch.setattr(torsion, "total_heights", refuse)
        # each modulus is cheap, the range is not; and one large modulus alone
        for spec in ("2:2000", "30000:30000", "2:1000000000"):
            assert cli.main(["stats", "--d-range", spec]) == 2
            assert capsys.readouterr().err.endswith(f"above the limit {grid.MAX_STATS_SUMMANDS}\n")

    @pytest.mark.parametrize("argv", [
        ("stats", "--d-range", "5:6", "--epsilon", "nan"),
        ("stats", "--d-range", "5:6", "--epsilon", "-1"),
        ("grid", "--d", "5", "--format", "json", "--epsilon", "nan"),
    ])
    def test_bad_epsilon_exits_2(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 2 and out == ""

    def test_threads_start_no_thread(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("stats started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out = run(capsys, "stats", "--d-range", "58:60", "--threads", "8")
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        # the benchmark's stats-sweep form prints the bytes of its argv without --threads
        sweep = ["stats", "--d-range=7:7", "--format", "json", "--threads", "2", "--epsilon", "0.0836"]
        assert run(capsys, *sweep) == run(capsys, *sweep[:4], *sweep[6:])


class TestParserCache:
    def test_parser_built_once(self, capsys):
        # once per subcommand: each run builds the subparser of its own subcommand only
        cli.build_parser.cache_clear()
        run(capsys, "height", "--d", "5", "--c", "1,2")
        run(capsys, "height", "--d", "7", "--c", "1,2")
        run(capsys, "constants")
        assert cli.build_parser.cache_info()[:2] == (1, 2)  # hits, misses

    @pytest.mark.parametrize("argv", [
        ["height", "--d", "5", "--c", "1,2"], ["grid", "--d", "4", "--format", "pgm"], ["stats", "--d-range", "5:6"],
        ["constants"], ["limits", "--d-list", "5,7"], ["curve", "--a", "3,5"], ["amoeba", "--ronkin", "0.3,-0.2"],
        ["-h"], ["height", "-h"], [], ["bogus"], ["--", "height"], ["height", "--d", "5", "--c", "1,2", "--bogus"],
        ["height", "--d", "5", "--c", "1,2", "extra"], ["grid", "--d", "4", "--format", "xml"], ["stats"],
        ["limits", "--d-list", "5,7", "--random-witness"], ["limits", "--d-list", "5,7", "--random-witness", "9"],
        ["limits", "--d-list", "5,7", "--random-witness=-3"], ["grid", "--d", "4", "--threads", "2"],
    ])
    def test_same_output_as_full_parser(self, capsys, monkeypatch, argv):
        def outcome():
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        original = cli.build_parser.__wrapped__  # uncached: every run builds afresh
        asked = []
        monkeypatch.setattr(cli, "build_parser", lambda name=None: asked.append(name) or original(name))
        per_subcommand = outcome()
        monkeypatch.setattr(cli, "build_parser", lambda name=None: original(None))
        assert outcome() == per_subcommand
        assert asked == [argv[0] if argv and argv[0] in cli.SUBCOMMANDS else None]

    def test_dispatch_sees_rebound_handler(self, capsys, monkeypatch):
        run(capsys, "height", "--d", "5", "--c", "1,2")
        monkeypatch.setattr(cli, "cmd_height", lambda args: f"patched {args.d}\n")
        assert run(capsys, "height", "--d", "5", "--c", "1,2") == (0, "patched 5\n")


class TestFormatChoices:
    def test_pgm_restricted_to_grid(self, capsys):
        for argv in (["stats", "--d-range", "2:3", "--format", "pgm"],
                     ["limits", "--d-list", "5", "--format", "pgm"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        assert cli.main(["grid", "--d", "4", "--format", "pgm"]) == 0  # fine

    def test_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["grid", "--d", "4", "--format", "png"])
        assert exc.value.code == 2


class TestOutRouting:
    @pytest.mark.parametrize("argv", [
        ["stats", "--d-range", "2:6", "--format", "json"],
        ["limits", "--d-list", "5,7", "--format", "csv"],
        ["amoeba", "--ronkin-samples=-1:1:3,0:1:2"],
    ])
    def test_out_file_matches_stdout(self, capsys, tmp_path, argv):
        code, out = run(capsys, *argv)
        assert code == 0 and out
        path = tmp_path / "out.txt"
        assert cli.main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode("ascii")


class TestAtomicOut:
    ARGV = ["stats", "--d-range", "2:6", "--format", "json"]

    def test_failed_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old\n")

        def half_write(name, mode, **kwargs):
            fh = open(name, mode, **kwargs)

            def write(text):
                fh.buffer.write(text[: len(text) // 2].encode())
                raise OSError(28, "No space left on device")

            fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", half_write, raising=False)
        assert cli.main([*self.ARGV, "--out", str(path)]) == 3
        assert "No space left" in capsys.readouterr().err
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_rename_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert cli.main([*self.ARGV, "--out", str(tmp_path / "out.json")]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_symlink_and_fifo_targets(self, capsys, tmp_path):
        code, out = run(capsys, *self.ARGV)
        (tmp_path / "real.json").write_text("old\n")
        (tmp_path / "link.json").symlink_to(tmp_path / "real.json")
        assert cli.main([*self.ARGV, "--out", str(tmp_path / "link.json")]) == 0
        assert (tmp_path / "link.json").is_symlink() and (tmp_path / "real.json").read_text() == out
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
        reader.start()
        assert cli.main([*self.ARGV, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [out]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "real.json"]

    def test_replaces_existing_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("a much longer old content than the new one\n" * 100)
        code, out = run(capsys, *self.ARGV)
        assert cli.main([*self.ARGV, "--out", str(path)]) == 0
        assert path.read_text() == out
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestConstants:
    def test_values(self, capsys):
        code, out = run(capsys, "constants")
        rec = json.loads(out)
        assert abs(rec["eta"] - 0.487175) <= 1e-6
        assert abs(rec["theta"] - 0.323065) <= 1e-6
        assert abs(rec["zeta3"] - 1.2020569) <= 1e-7
        assert set(rec) == {"zeta2", "zeta3", "zeta4", "L_chi3_2", "eta", "theta"}


class TestLimits:
    def test_generic_json(self, capsys):
        code, out = run(capsys, "limits", "--d-list", "101,199", "--format", "json")
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["limit"] - 0.487175) <= 1e-6
        assert [r["d"] for r in rec["rows"]] == [101, 199]

    def test_curve_csv(self, capsys):
        code, out = run(capsys, "limits", "--a", "2,-1", "--e", "1", "--d-list", "5,25")
        lines = out.strip().splitlines()
        assert lines[0] == "d,c1,c2,order,height,gap,limit"
        assert len(lines) == 3

    def test_primes_selector(self, capsys):
        code, out = run(capsys, "limits", "--primes", "100:130", "--format", "json")
        rec = json.loads(out)
        assert [r["d"] for r in rec["rows"]] == [101, 103, 107, 109, 113, 127]

    def test_needs_exactly_one_selector(self, capsys):
        assert cli.main(["limits", "--d-list", "5", "--primes", "2:3"]) == 2
        assert cli.main(["limits"]) == 2

    def test_e_needs_a(self, capsys):
        assert cli.main(["limits", "--d-list", "5,7", "--e", "9"]) == 2
        assert capsys.readouterr() == ("", "error: limits: --e needs --a\n")
        assert cli.main(["limits", "--a", "2,-1", "--e", "0", "--d-list", "5"]) == 2


    def test_moduli_checked_before_quadrature(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("limit computed")

        with monkeypatch.context() as patch:
            patch.setattr(curves, "limit_height", refuse)
            for d_list in ("100000000000", "5,100000000000"):
                assert run(capsys, "limits", "--a", "1,4999", "--e", "3", "--d-list", d_list) == (2, "")
            assert run(capsys, "limits", "--a", "1,4999", "--d-list", "100000000000") == (2, "")
        # the moduli pass, and the limit refuses the curve before any segment
        assert cli.main(["limits", "--a", "1,4999", "--e", "3", "--d-list", "6,9"]) == 2
        assert f"break points, above the limit {curves.MAX_CURVE_BREAKS}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        # 664,579 primes, 1.6e12 half-orbit summands
        (["--primes", "2:10000000"], f"above the limit {grid.MAX_STATS_SUMMANDS}"),
        (["--primes", "2:110000"], f"above the limit {grid.MAX_STATS_SUMMANDS}"),
        (["--d-list", ",".join(map(str, range(9_000_000, 9_000_200)))], f"above the limit {grid.MAX_STATS_SUMMANDS}"),
        (["--d-list", "5,20000000"], f"exceeds the largest order with a height, {torsion.MAX_ORDER}"),
        (["--primes", "5"], "--primes: expected LO:HI, got '5'"),
        (["--primes", "2:5:1"], "--primes: expected LO:HI, got '2:5:1'"),
        (["--d-list", "1,5", "--random-witness"], "d_list needs moduli d >= 2, got 1"),
    ], ids=["primes-to-1e7", "primes-to-110000", "200-moduli-near-9e6", "modulus-above-max-order", "primes-one-bound",
            "primes-three-bounds", "modulus-1"])
    def test_refused_before_any_height(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("a witness height ran")

        monkeypatch.setattr(curves, "total_height", refuse)
        monkeypatch.setattr(curves, "_random_witness", refuse)
        assert cli.main(["limits", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.endswith(f"{message}\n")

    def test_cost_limit_spares_the_workload_window(self, capsys):
        # 1.25e6 summands; --primes 2:HI stays under the bound up to HI = 93493
        code, out = run(capsys, "limits", "--primes", "10905:12905")
        assert code == 0 and len(out.splitlines()) == 210


class TestCurve:
    def test_mahler_direction(self, capsys):
        code, out = run(capsys, "curve", "--a", "2,-1", "--e", "1")
        rec = json.loads(out)
        assert code == 0
        assert abs(rec["value"] - 0.323065) <= 1e-6

    def test_invalid_direction_exits_2(self, capsys):
        assert cli.main(["curve", "--a", "2,4", "--e", "1"]) == 2


class TestAmoeba:
    def test_moment(self, capsys):
        code, out = run(capsys, "amoeba", "--moment", "1")
        rec = json.loads(out)
        assert abs(rec["value"] + 1.2020569) <= 1e-7

    # printed by the depth-first engine
    MOMENT_LINES = (
        '{"m": 0, "value": 1.6449340668482262, "err_estimate": 6.610811807109398e-13, "evaluations": 345}',
        '{"m": 1, "value": -1.2020569031595942, "err_estimate": 4.971061567066056e-12, "evaluations": 285}',
        '{"m": 2, "value": 2.1646464674222763, "err_estimate": 1.5463031488776952e-11, "evaluations": 345}',
        '{"m": 3, "value": -6.22156653086022, "err_estimate": 2.1154034335609898e-11, "evaluations": 315}',
    )

    @pytest.mark.parametrize("m", range(4))
    def test_moment_bytes(self, capsys, m):
        assert run(capsys, "amoeba", "--moment", str(m)) == (0, self.MOMENT_LINES[m] + "\n")

    def test_moment_honours_tol(self, capsys):
        _, default = run(capsys, "amoeba", "--moment", "1")
        _, loose = run(capsys, "amoeba", "--moment", "1", "--tol", "1e-6")
        assert json.loads(default)["evaluations"] == 285
        assert json.loads(loose)["evaluations"] == 165

    @pytest.mark.parametrize("query", [["--ronkin", "0.3,-0.2"], ["--ronkin-samples=-1:1:101,-1:1:3"],
                                       ["--dual", "0.2,0.3"]])
    def test_tol_accepted_and_ignored(self, capsys, query):
        # closed forms: no tolerance reaches them
        plain = run(capsys, "amoeba", *query)
        assert plain[0] == 0 and run(capsys, "amoeba", *query, "--tol", "1e-300") == plain

    def test_volume_honours_tol(self, capsys):
        _, default = run(capsys, "amoeba", "--volume")
        _, loose = run(capsys, "amoeba", "--volume", "--tol", "1e-3")
        assert json.loads(default)["volume"] != json.loads(loose)["volume"]

    @pytest.mark.parametrize("argv", [["--volume", "--tol", "inf"], ["--moment", "1", "--tol", "inf"],
                                      ["--moment", "1", "--tol", "1e308"], ["--moment", "170", "--tol", "1"],
                                      ["--psi-average", "--tol", "nan"], ["--moment", "0", "--tol=0"],
                                      ["--volume", "--tol=-1e-10"]])
    def test_tolerance_outside_0_1_exits_2(self, capsys, argv):
        # an infinite or huge tolerance printed a one-panel guess
        assert cli.main(["amoeba", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tolerance must lie in (0, 1)")

    @pytest.mark.parametrize("argv", [["--moment", "0", "--tol", "1e-300"], ["--moment", "170", "--tol", "1e-16"],
                                      ["--volume", "--tol", "1e-300"], ["--psi-average", "--tol", "3e-16"]])
    def test_unattainable_tolerance_exits_2(self, capsys, monkeypatch, argv):
        # it spent the whole evaluation budget first
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(amoeba.quad, "integrate", no_quadrature)
        assert cli.main(["amoeba", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "what rounding allows at moment order" in err

    @pytest.mark.parametrize("m", ["171", "400"])
    def test_overflowing_moment_exits_2(self, capsys, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["amoeba", "--moment", m]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: moment order must be <= 170") and "Warning" not in err

    @pytest.mark.parametrize("u, contains, region", [
        ("0,0", True, "south"), ("1e308,-1e308", False, "outside"), ("-1e308,1e308", False, "outside"),
        ("-1.7976931348623157e308,-1.7976931348623157e308", True, "boundary"), ("-800,-801", False, "outside"),
    ], ids=["origin", "1e308,-1e308", "-1e308,1e308", "-max,-max", "-800,-801"])
    def test_membership(self, capsys, u, contains, region):
        # the slacks overflow to +-inf far out; no numpy warning may reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["amoeba", f"--contains={u}"])
        out, err = capsys.readouterr()
        rec = json.loads(out)
        assert (code, rec["contains"], rec["region"], err) == (0, contains, region, "")

    def test_psi_average(self, capsys):
        code, out = run(capsys, "amoeba", "--psi-average")
        assert abs(json.loads(out)["psi_average"] - 0.487175) <= 1e-5

    def test_ronkin_samples_csv(self, capsys):
        code, out = run(capsys, "amoeba", "--ronkin-samples=-1:1:3,-1:1:2")
        lines = out.strip().splitlines()
        assert lines[0] == "u1,u2,ronkin"
        assert len(lines) == 7

    def test_ronkin_lattice_matches_reference_engine(self, capsys):
        _, out = run(capsys, "amoeba", "--ronkin-samples=-5.2:4.9:21,-5.5:5.1:17")
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        reference = ronkin_reference.ronkin_batch([amoeba.AmoebaPoint(u1, u2) for u1, u2, _ in rows])
        assert len(rows) == 21 * 17 and max(abs(rho - ref) for (_, _, rho), ref in zip(rows, reference)) <= 1e-9

    def test_volume_and_ronkin(self, capsys):
        code, out = run(capsys, "amoeba", "--volume")
        assert abs(json.loads(out)["volume"] - 4.9348022) <= 1e-7
        code, out = run(capsys, "amoeba", "--ronkin", "0,0")
        assert abs(json.loads(out)["ronkin"] + 0.323066) <= 1e-6

    def test_dual_outside_simplex_exits_2(self, capsys):
        assert cli.main(["amoeba", "--dual", "0.8,0.8"]) == 2

    @pytest.mark.parametrize("x", ["nan,0.1", "0.1,nan", "nan,nan"])
    def test_dual_nan_exits_2(self, capsys, x):
        code, out = run(capsys, "amoeba", "--dual", x)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("spec", ["0:1:1000,0:1:101", "0:1:100001,0:1:1", "0:1:1,0:1:2000000"])
    def test_lattice_limit_checked_before_quadrature(self, capsys, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated a lattice above the limit")

        monkeypatch.setattr(amoeba, "ronkin_batch", refuse)
        assert cli.main(["amoeba", f"--ronkin-samples={spec}"]) == 2
        assert capsys.readouterr().err.endswith(f"above the limit {cli.MAX_RONKIN_SAMPLES}\n")

    @pytest.mark.parametrize("spec", ["0:800:300,0:1:300", "0:1:2,-701:0:3", "0:nan:3,0:1:3"])
    def test_lattice_range_checked_before_quadrature(self, capsys, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated a lattice outside the coordinate range")

        monkeypatch.setattr(amoeba, "ronkin_batch", refuse)
        assert cli.main(["amoeba", f"--ronkin-samples={spec}"]) == 2
        assert capsys.readouterr().err.endswith(f"supported range +-{amoeba.COORD_LIMIT}\n")

    def test_lattice_ends_at_hi(self, capsys):
        # -567.9 + 1267.9 * 2 / 2 rounds to 700.0000000000001, outside the range
        code, out = run(capsys, "amoeba", "--ronkin-samples=-567.9:700:3,0:0:1")
        assert code == 0
        assert out.splitlines()[-1].split(",")[0] == "700"

    def test_lattice_at_the_limit_in_bounded_batches(self, capsys, monkeypatch):
        sizes = []

        def zeros(u1, u2):
            sizes.append(len(u1))
            return np.zeros(len(u1))

        monkeypatch.setattr(amoeba, "ronkin_batch", zeros)
        code, out = run(capsys, "amoeba", f"--ronkin-samples=0:1:1,0:1:{cli.MAX_RONKIN_SAMPLES}")
        assert code == 0 and len(out.splitlines()) == 1 + cli.MAX_RONKIN_SAMPLES
        assert max(sizes) == cli.RONKIN_BATCH and sum(sizes) == cli.MAX_RONKIN_SAMPLES

    def test_long_row_memory_bounded(self, capsys):
        # as one batch, this row peaked at 7.4 MiB; its output is 0.2 MB
        tracemalloc.start()
        try:
            code = cli.main(["amoeba", "--ronkin-samples=0.5:0.5:1,-5:5:5000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(capsys.readouterr().out.splitlines()) == 5001
        assert peak < 3 << 20

    @pytest.mark.parametrize("spec, digest", [
        pytest.param("-5.2:4.9:3,-5.5:5.1:250", "18a7b736bb83866101ba6e48141c5f8825212320859e86c224e37502273a2acf",
                     id="-5.2:4.9:3,-5.5:5.1:250"),
        pytest.param("-2:2:150,0.3:0.3:1", "a91a923073d57a5ba335987d8c94c535afd919f18f6803b906232cb5d43c8b7f",
                     id="-2:2:150,0.3:0.3:1"),
    ])
    def test_lattice_bytes_match_one_batch_per_row(self, capsys, monkeypatch, spec, digest):
        # the same bytes in one batch and in batches of 101: rows longer than a batch, batches that span rows
        for batch in (cli.RONKIN_BATCH, 101):
            monkeypatch.setattr(cli, "RONKIN_BATCH", batch)
            code, out = run(capsys, "amoeba", f"--ronkin-samples={spec}")
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_requires_a_query(self, capsys):
        assert cli.main(["amoeba"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--volume", "--moment", "1"],
        ["--moment", "0", "--volume"],
        ["--psi-average", "--contains", "0,0"],
        ["--ronkin", "0,0", "--dual", "0.5,0.5"],
    ])
    def test_rejects_two_queries(self, capsys, argv):
        assert cli.main(["amoeba", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: amoeba: choose exactly one of")

    @pytest.mark.parametrize("spec", ["-1:1:0,-1:1:2", "-1:1:2,-1:1:-5", "0:1:-1,0:1:-1"])
    def test_sample_counts_at_least_one(self, capsys, spec):
        assert cli.main(["amoeba", f"--ronkin-samples={spec}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("spec", ["0:1:2", "0:1:2,0:1:2,0:1:2", "0:1,0:1:2", "0:1:2,0:1", "0:1:2:3,0:1:2", "",
                                      "0:1:2,", ",", "0:1:2;0:1:2", "a:1:2,0:1:2", "0:1:2.5,0:1:2"])
    def test_malformed_samples_exit_2(self, capsys, spec):
        # a wrong shape printed Python's unpacking message
        assert cli.main(["amoeba", f"--ronkin-samples={spec}"]) == 2
        assert capsys.readouterr() == ("", f"error: amoeba: expected LO:HI:N,LO:HI:N, got {spec!r}\n")

    def test_single_sample_axis(self, capsys):
        code, out = run(capsys, "amoeba", "--ronkin-samples=-2:2:1,0:1:1")
        assert code == 0
        assert out.splitlines()[1].startswith("-2,0,")


class TestParsing:
    def test_bad_pair_exits_2(self, capsys):
        assert cli.main(["height", "--d", "4", "--c", "1"]) == 2
        assert cli.main(["height", "--d", "4", "--c", "1,2,3"]) == 2

    def test_random_witness_flag(self, capsys):
        code, out = run(capsys, "limits", "--d-list", "40,50", "--random-witness", "9", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["order"] == r["d"] for r in rows)
        # the seed alone picks the witnesses: 0 when omitted
        assert run(capsys, "limits", "--d-list", "40,50", "--random-witness", "0") == \
            run(capsys, "limits", "--d-list", "40,50", "--random-witness")
        assert run(capsys, "limits", "--d-list", "40,50", "--random-witness=9", "--format", "json") == (0, out)

    @pytest.mark.parametrize("argv, reason", [
        (["grid", "--d", "4", "--threads", "2"], "unrecognized arguments: --threads 2"),
        (["curve", "--a", "2,-1", "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        (["limits", "--d-list", "5,7", "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        (["limits", "--d-list", "5,7", "--seed", "3"], "unrecognized arguments: --seed 3"),
        # the same argv without --random-witness exits 0
        (["limits", "--d-list", "10,20", "--a", "1,0", "--e", "5", "--random-witness"], "not from a curve"),
    ], ids=["grid-threads", "curve-tol", "limits-tol", "limits-seed", "limits-curve-random-witness"])
    def test_removed_options_exit_2(self, capsys, argv, reason):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses an unknown option
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and reason in err


class TestMalformedNumbers:
    @pytest.mark.parametrize("argv, message", [
        (["height", "--d", "6", "--c", "1,x"], "--c: expected two comma-separated integers, got '1,x'"),
        (["height", "--d", "6", "--c", "1"], "--c: expected two comma-separated integers, got '1'"),
        (["amoeba", "--ronkin", "1,y"], "--ronkin: expected two comma-separated numbers, got '1,y'"),
        (["amoeba", "--contains", "1,2,3"], "--contains: expected two comma-separated numbers, got '1,2,3'"),
        (["amoeba", "--dual", "0.5;0.5"], "--dual: expected two comma-separated numbers, got '0.5;0.5'"),
        (["curve", "--a", "1,z"], "--a: expected two comma-separated integers, got '1,z'"),
        (["limits", "--d-list", "5,7", "--a", "1,z"], "--a: expected two comma-separated integers, got '1,z'"),
        (["limits", "--d-list", "2,x"], "--d-list: expected comma-separated integers, got '2,x'"),
        (["limits", "--d-list", "5,,7"], "--d-list: expected comma-separated integers, got '5,,7'"),
        (["limits", "--primes", "a:b"], "--primes: expected LO:HI, got 'a:b'"),
        (["stats", "--d-range", "a:b"], "--d-range: expected LO:HI or LO:HI:STEP, got 'a:b'"),
        (["stats", "--d-range", "2:8:x"], "--d-range: expected LO:HI or LO:HI:STEP, got '2:8:x'"),
        (["stats", "--d-range", "2"], "--d-range: expected LO:HI or LO:HI:STEP, got '2'"),
        (["limits", "--primes", "5:-1"], "no primes in [5, -1]"),  # printed isqrt's message
    ])
    def test_name_the_option_and_its_shape(self, capsys, argv, message):
        # a field that is not a number printed Python's conversion message
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestParseHelpers:
    def test_float_pair_error(self):
        assert cli.main(["amoeba", "--contains", "1"]) == 2

    def test_range_with_step(self, capsys):
        code, out = run(capsys, "stats", "--d-range", "2:8:3", "--format", "json")
        assert code == 0
        assert [r["d"] for r in json.loads(out)["rows"]] == [2, 5, 8]

    def test_range_errors(self):
        assert cli.main(["stats", "--d-range", "2:8:0"]) == 2
        assert cli.main(["stats", "--d-range", "2"]) == 2
        assert cli.main(["limits", "--primes", "24:28"]) == 2  # no primes there


class TestCrossProcessDeterminism:
    def test_pgm_identical_across_interpreter_runs(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # the child imports the package from where this process found it
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        blobs = []
        for name in ("x.pgm", "y.pgm"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "zeta_heights.cli", "grid", "--d", "40",
                 "--format", "pgm", "--out", str(path)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
