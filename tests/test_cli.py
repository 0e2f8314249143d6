"""Command-line plumbing: exit codes, output files, determinism."""

import csv
import json
import os
from unittest import mock

import numpy as np
import pytest

from resonances1d import cli
from resonances1d.errors import BoundaryZero
from resonances1d.inverse import synthesize_data
from resonances1d.potential import Fragment, make_piecewise, square_well


@pytest.fixture
def well_file(tmp_path):
    path = tmp_path / "well.json"
    square_well(-4.0, -1.0, 1.0).save(path)
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0])
    p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
    V1.save(p1)
    V2.save(p2)
    return str(p1), str(p2)


@pytest.fixture
def spec_file(tmp_path):
    right = Fragment((0.0, 1.0), (-2.0,))
    truth = make_piecewise([-1.0, -0.5, 0.0, 1.0], [-3.0, 1.0, -2.0])
    spec = synthesize_data(right, -1.0, 2, truth, np.linspace(0.3, 10.0, 30))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    return str(path)


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == cli.USAGE_EXIT
    capsys.readouterr()


def test_missing_potential_file(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    code = cli.main(
        ["scattering-grid", "--potential", str(tmp_path / "nope.json"),
         "--out", out]
    )
    assert code == cli.USAGE_EXIT
    assert not os.path.exists(out)
    assert "no such file" in capsys.readouterr().err


def test_malformed_potential_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "o.csv")
    for content in ("{not json", '{"breakpoints": [-1.0, 1.0], "values": ["abc"]}'):
        bad.write_text(content)
        code = cli.main(
            ["scattering-grid", "--potential", str(bad), "--out", out]
        )
        assert code == cli.USAGE_EXIT
        assert not os.path.exists(out)
    capsys.readouterr()


@pytest.mark.parametrize("content", ['{"breakpoints": [-1, NaN, 1], "values": [1, 2]}',
                                     '{"breakpoints": [-1, 1], "values": [Infinity]}'])
@pytest.mark.parametrize("command", [["scattering-grid"], ["resonances", "--radius", "5"],
                                     ["bound-states"]])
def test_non_finite_potential_file(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = str(tmp_path / "o.out")
    code = cli.main([*command, "--potential", str(bad), "--out", out])
    assert code == cli.USAGE_EXIT
    assert not os.path.exists(out)
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"breakpoints": [1, -1], "values": [2]}',
                                     '{"breakpoints": [0.5, 1], "values": [2]}',
                                     '{"breakpoints": [-1, 1], "values": [0]}',
                                     '{"breakpoints": [-1, 0, 1], "values": [2]}'])
@pytest.mark.parametrize("command", [["scattering-grid"], ["resonances", "--radius", "5"]])
def test_potential_file_it_cannot_build(tmp_path, capsys, content, command):
    """Decreasing breakpoints, a hull off the origin, an all-zero well and a
    length mismatch raise the library's own construction errors; from a
    file, each is a malformed file: exit 1, not 2."""
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = str(tmp_path / "o.out")
    code = cli.main([*command, "--potential", str(bad), "--out", out])
    assert code == cli.USAGE_EXIT
    assert not os.path.exists(out)
    assert "malformed Potential file" in capsys.readouterr().err


_OUT_OF_RANGE = [("resonances", "--radius", "-1"), ("resonances", "--radius", "nan"),
                 ("density", "--radius", "-1"), ("density", "--radius", "nan"),
                 ("distinguish", "--radius", "-1"), ("distinguish", "--radius", "nan"),
                 ("indicator", "--r-max", "0"), ("indicator", "--r-max", "-5"),
                 ("indicator", "--n-theta", "-1"),
                 ("cartwright-check", "--radius", "0"), ("cartwright-check", "--radius", "inf"),
                 ("nevanlinna-check", "--cutoff", "0"), ("nevanlinna-check", "--z-im", "-1"),
                 ("nevanlinna-check", "--z-re", "nan"),
                 ("g-experiment", "--radius", "-4"), ("g-experiment", "--radius", "inf"),
                 ("g-experiment", "--r-window", "-1"),
                 ("scattering-grid", "--k-min", "nan"), ("scattering-grid", "--k-max", "inf"),
                 ("scattering-grid", "--n", "-1"),
                 ("density", "--alpha", "nan"), ("density", "--beta", "inf"),
                 ("inverse-recover", "--max-iter", "0"), ("inverse-recover", "--max-iter", "-1"),
                 ("kernels", "--ngrid", "10"), ("kernels", "--ngrid", "-4"),
                 ("g-experiment", "--ngrid", "0")]


@pytest.mark.parametrize("command, flag, value", _OUT_OF_RANGE)
def test_out_of_range_numeric_flag_is_a_usage_error(well_file, tmp_path, capsys,
                                                    command, flag, value):
    """A radius, cutoff or height that is not finite and positive, a k bound
    that is not finite, a count below 1 or a grid below 64 is argparse's
    one-line usage error: exit 1 before any numerics, where these runs
    raised a traceback, blamed the numerics with exit 2 (GridTooCoarse for
    the grid), or wrote a meaningless result."""
    out = tmp_path / "o.out"
    inputs = {"distinguish": ["--potential1", well_file, "--potential2", well_file],
              "g-experiment": ["--potential1", well_file, "--potential2", well_file],
              "inverse-recover": ["--spec", well_file]}.get(command, ["--potential", well_file])
    code = cli.main([command, *inputs, flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.USAGE_EXIT
    assert "Traceback" not in err and "error: argument %s" % flag in err
    assert not out.exists()


def test_scattering_grid(well_file, tmp_path):
    out = tmp_path / "grid.csv"
    svg = tmp_path / "grid.svg"
    code = cli.main(
        ["scattering-grid", "--potential", well_file, "--n", "51",
         "--out", str(out), "--svg", str(svg)]
    )
    assert code == cli.PASS_EXIT
    rows = out.read_text().strip().split("\n")
    assert rows[0].startswith("k_re,k_im,xhat_re")
    assert len(rows) == 52
    assert svg.read_text().startswith("<svg")


_CSV_HEADERS = {
    "scattering-grid": "k_re,k_im,xhat_re,xhat_im,yhat_re,yhat_im,dets_re,dets_im,residual_U",
    "kernels": "grid,coordinate,value",
    "density": "r,n",
    "indicator": "theta,h,fit_residual",
    "inverse-recover": "iteration,loss"}


@pytest.mark.parametrize("command", _CSV_HEADERS)
def test_every_csv_is_written_as_csv_writer_writes_it(well_file, spec_file, tmp_path,
                                                      command):
    """Each CSV the CLI writes (the density fit and the loss trace included):
    every line ends in CRLF, csv.reader reads the header and then rows of
    its length, and each number is the repr of its float (of its int for
    the iteration column)."""
    path, report = tmp_path / "out.csv", tmp_path / "report.json"
    argv = {"scattering-grid": ["--potential", well_file, "--n", "21", "--out", path],
            "kernels": ["--potential", well_file, "--ngrid", "128", "--out", path],
            "density": ["--potential", well_file, "--radius", "20", "--out", report,
                        "--csv", path],
            "indicator": ["--potential", well_file, "--r-max", "30", "--n-theta", "9",
                          "--out", path],
            "inverse-recover": ["--spec", spec_file, "--out", report, "--trace", path]}
    assert cli.main([command, *map(str, argv[command])]) == cli.PASS_EXIT
    data = path.read_bytes()
    assert data.endswith(b"\r\n")
    assert data.count(b"\n") == data.count(b"\r") == data.count(b"\r\n")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == _CSV_HEADERS[command].split(",") and len(rows) > 1
    kinds = {"grid": str, "iteration": int}
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for name, cell in zip(rows[0], row):
            kind = kinds.get(name, float)
            assert cell in ("X", "Y") if kind is str else cell == repr(kind(cell))


def test_scattering_grid_deterministic(well_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        cli.main(
            ["scattering-grid", "--potential", well_file, "--n", "21",
             "--out", str(out)]
        )
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("k_min, k_max", [("3", "3"), ("-0.0", "0.0")])
def test_svg_of_a_one_point_k_range_is_a_usage_error(well_file, tmp_path, capsys,
                                                     k_min, k_max):
    """The heatmap has no k axis to draw: exit 1 before any output, where the
    CSV was written and then the SVG failed with a ZeroDivisionError."""
    out, svg = tmp_path / "g.csv", tmp_path / "g.svg"
    code = cli.main(["scattering-grid", "--potential", well_file, "--k-min", k_min,
                     "--k-max", k_max, "--n", "5", "--out", str(out), "--svg", str(svg)])
    assert code == cli.USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: --svg") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "well.json"]


@pytest.mark.parametrize("k_min, k_max, svg", [("3", "3", False), ("5", "-3", True)])
def test_one_point_grid_and_reversed_range_stay_valid(well_file, tmp_path,
                                                      k_min, k_max, svg):
    out, svg_path = tmp_path / "g.csv", tmp_path / "g.svg"
    argv = ["scattering-grid", "--potential", well_file, "--k-min", k_min,
            "--k-max", k_max, "--n", "5", "--out", str(out)]
    assert cli.main(argv + (["--svg", str(svg_path)] if svg else [])) == cli.PASS_EXIT
    rows = list(csv.reader(out.open(newline="")))
    assert len(rows) == 6 and rows[1][0] == repr(float(k_min))
    assert svg_path.exists() == svg


@pytest.mark.parametrize("existing", [None, "the old text\n"])
def test_atomic_write_leaves_no_file_when_its_chunks_raise(tmp_path, existing):
    """Chunks that raise partway leave no temp file, and the target as it was."""
    target = tmp_path / "out.svg"
    if existing is not None:
        target.write_text(existing)

    def chunks():
        yield "<svg>\n"
        raise ValueError("no more chunks")

    with pytest.raises(ValueError, match="no more chunks"):
        cli._atomic_write(str(target), chunks())
    assert list(tmp_path.glob(".tmp-*.part")) == []
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [target] and target.read_text() == existing


def test_kernels(well_file, tmp_path):
    out = tmp_path / "kernels.csv"
    code = cli.main(
        ["kernels", "--potential", well_file, "--ngrid", "128",
         "--out", str(out)]
    )
    assert code == cli.PASS_EXIT
    assert out.read_text().startswith("grid,coordinate,value")


def test_resonances_json_schema(well_file, tmp_path):
    out = tmp_path / "res.json"
    svg = tmp_path / "res.svg"
    code = cli.main(
        ["resonances", "--potential", well_file, "--radius", "8",
         "--out", str(out), "--svg", str(svg)]
    )
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["function"] == "xhat"
    assert d["radius"] == 8.0
    assert all({"re", "im", "mult"} <= set(z) for z in d["zeros"])
    assert all(z["im"] < 0 for z in d["zeros"])
    assert svg.exists()


def test_bound_states(well_file, tmp_path):
    out = tmp_path / "bs.json"
    code = cli.main(["bound-states", "--potential", well_file, "--out", str(out)])
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert len(d["energies"]) == 2
    assert all(e < 0 for e in d["energies"])


def test_density(well_file, tmp_path):
    out = tmp_path / "dens.json"
    csv = tmp_path / "dens.csv"
    code = cli.main(
        ["density", "--potential", well_file, "--radius", "20",
         "--out", str(out), "--csv", str(csv)]
    )
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["delta"] > 0
    assert csv.read_text().startswith("r,n")


def test_density_with_no_zeros_writes_an_empty_fit(well_file, tmp_path):
    """sw4 has no resonance within radius 0.5: the report reads zero, and the
    CSV and the SVG are still written."""
    out, csv, svg = tmp_path / "dens.json", tmp_path / "dens.csv", tmp_path / "dens.svg"
    code = cli.main(["density", "--potential", well_file, "--radius", "0.5",
                     "--out", str(out), "--csv", str(csv), "--svg", str(svg)])
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["delta"] == 0.0 and d["n_in_sector"] == 0
    assert csv.read_text() == "r,n\n"
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("alpha, beta", [("1", "-1"), ("-0.5", "-0.5")])
def test_density_of_an_empty_sector_is_a_usage_error(well_file, tmp_path, capsys,
                                                     alpha, beta):
    """A sector with alpha >= beta holds no zero: exit 1 before any search,
    where it wrote a fit with delta 0."""
    out = tmp_path / "dens.json"
    with mock.patch.object(cli.czeros, "resonances") as search:
        code = cli.main(["density", "--potential", well_file, "--alpha", alpha,
                         "--beta", beta, "--out", str(out)])
    assert code == cli.USAGE_EXIT
    assert "empty sector" in capsys.readouterr().err
    assert not search.called and not out.exists()


def test_indicator(well_file, tmp_path):
    out = tmp_path / "ind.csv"
    rep = tmp_path / "ind.json"
    code = cli.main(
        ["indicator", "--potential", well_file, "--r-max", "30",
         "--n-theta", "9", "--out", str(out), "--report", str(rep)]
    )
    assert code == cli.PASS_EXIT
    assert out.read_text().startswith("theta,h,fit_residual")
    d = json.loads(rep.read_text())
    assert d["expected_width"] == 4.0
    assert abs(d["width"] - 4.0) < 0.3


def test_cartwright_check(well_file, tmp_path):
    out = tmp_path / "cart.json"
    code = cli.main(
        ["cartwright-check", "--potential", well_file, "--radius", "40",
         "--out", str(out)]
    )
    d = json.loads(out.read_text())
    assert code == (cli.PASS_EXIT if d["pass"] else cli.FAIL_EXIT)
    assert d["tail_converged"]


def test_nevanlinna_check(tmp_path):
    pot = tmp_path / "shallow.json"
    square_well(-1.0, -0.5, 0.5).save(pot)
    out = tmp_path / "nl.json"
    code = cli.main(
        ["nevanlinna-check", "--potential", str(pot), "--out", str(out)]
    )
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["pass"] and d["residual"] < 0.05


def test_nevanlinna_check_zero_finder_failure_exits_2(tmp_path, capsys):
    pot = tmp_path / "shallow.json"
    square_well(-1.0, -0.5, 0.5).save(pot)
    out = tmp_path / "nl.json"
    with mock.patch("resonances1d.asymptotics.find_zeros",
                    side_effect=BoundaryZero("zero on the contour")):
        code = cli.main(
            ["nevanlinna-check", "--potential", str(pot), "--out", str(out)]
        )
    assert code == cli.FAIL_EXIT
    assert json.loads(capsys.readouterr().err)["error"] == "BoundaryZero"
    assert not out.exists()


def test_nevanlinna_check_on_the_square_well_gets_to_its_verdict(well_file, tmp_path,
                                                                 capsys):
    """The count of the upper zeros over Rect(-10+0.05i, 10+10i) raised
    BoundaryZero on this well, far from any zero, and the check exited
    without a report.  It now writes one: residual 0.0887 with one upper
    zero, above the 0.05 bound, so it exits 2 with a red verdict."""
    out = tmp_path / "nev.json"
    code = cli.main(["nevanlinna-check", "--potential", well_file, "--out", str(out)])
    assert code == cli.FAIL_EXIT
    d = json.loads(out.read_text())
    assert np.isfinite(d["residual"]) and d["n_upper_zeros"] == 1 and not d["pass"]
    assert '"error"' not in capsys.readouterr().err


def test_nevanlinna_check_on_the_two_cell_well_gets_to_its_verdict(tmp_path, capsys):
    """yhat's upper zeros here lie at Im k 0.32-0.46, far above the well's
    bound states; the residual finds the 4 in its own rectangle and reports
    0.0530, above the 0.05 bound."""
    pot, out = tmp_path / "two.json", tmp_path / "nev.json"
    make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0]).save(pot)
    code = cli.main(["nevanlinna-check", "--potential", str(pot), "--out", str(out)])
    assert code == cli.FAIL_EXIT
    d = json.loads(out.read_text())
    assert np.isfinite(d["residual"]) and d["n_upper_zeros"] == 4 and not d["pass"]
    assert '"error"' not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cartwright-check", "nevanlinna-check", "distinguish"])
def test_report_on_stdout_is_the_out_file(well_file, pair_files, tmp_path, capsys, command):
    """Without --out the report is printed: byte for byte the file --out
    writes, with the same exit code (sw4's nevanlinna-check exits 2)."""
    p1, p2 = pair_files
    args = {"cartwright-check": ["--potential", well_file, "--radius", "20"],
            "nevanlinna-check": ["--potential", well_file],
            "distinguish": ["--potential1", p1, "--potential2", p2, "--radius", "8"]}[command]
    printed = cli.main([command, *args])
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert cli.main([command, *args, "--out", str(out)]) == printed
    assert stdout.encode() == out.read_bytes()
    assert capsys.readouterr().out == ""


def test_g_experiment(pair_files, tmp_path):
    p1, p2 = pair_files
    out = tmp_path / "g.json"
    code = cli.main(
        ["g-experiment", "--potential1", p1, "--potential2", p2,
         "--radius", "8", "--ngrid", "512", "--out", str(out)]
    )
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["degenerate"] is False
    assert d["n_zeros_x"] > 0


def test_distinguish(pair_files, tmp_path):
    p1, p2 = pair_files
    out = tmp_path / "dist.json"
    code = cli.main(
        ["distinguish", "--potential1", p1, "--potential2", p2,
         "--radius", "8", "--out", str(out)]
    )
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["implication_pass"] is True
    assert d["distinguishability"] > 1e-7


@pytest.mark.parametrize("command", ["distinguish", "g-experiment"])
def test_a_pair_that_differs_on_the_right_is_a_usage_error(well_file, tmp_path, capsys,
                                                           command):
    """sw4 and the two-cell well differ on [0, b]: the input is at fault, not
    the numerics (both commands exited 2 with a JSON error line)."""
    two = tmp_path / "two.json"
    make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0]).save(two)
    out = tmp_path / "report.json"
    code = cli.main([command, "--potential1", well_file, "--potential2", str(two),
                     "--out", str(out)])
    assert code == cli.USAGE_EXIT
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_inverse_recover(tmp_path):
    right = Fragment((0.0, 1.0), (-2.0,))
    truth = make_piecewise([-1.0, -0.5, 0.0, 1.0], [-3.0, 1.0, -2.0])
    spec = synthesize_data(right, -1.0, 2, truth, np.linspace(0.3, 10.0, 30))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    truth_path = tmp_path / "truth.json"
    truth.save(truth_path)
    out = tmp_path / "rec.json"
    trace = tmp_path / "trace.csv"
    code = cli.main(
        ["inverse-recover", "--spec", str(spec_path), "--out", str(out),
         "--truth", str(truth_path), "--trace", str(trace)]
    )
    assert code == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["converged"]
    assert d["l2_error_vs_truth"] < 1e-5
    np.testing.assert_allclose(d["recovered_left"], [-3.0, 1.0], atol=1e-5)
    assert trace.read_text().startswith("iteration,loss")


def test_inverse_recover_from_a_random_start_is_seeded(tmp_path):
    right = Fragment((0.0, 1.0), (-2.0,))
    truth = make_piecewise([-1.0, -0.5, 0.0, 1.0], [-3.0, 1.0, -2.0])
    spec = synthesize_data(right, -1.0, 2, truth, np.linspace(0.3, 10.0, 30))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_json()))
    outs = [tmp_path / "rec1.json", tmp_path / "rec2.json"]
    for out in outs:
        assert cli.main(["--seed", "5", "inverse-recover", "--spec", str(spec_path),
                         "--init", "random", "--out", str(out)]) == cli.PASS_EXIT
    assert json.loads(outs[0].read_text())["converged"]
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_inverse_recover_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text('{"a": -1.0}')
    out = tmp_path / "rec.json"
    code = cli.main(["inverse-recover", "--spec", str(bad), "--out", str(out)])
    assert code == cli.USAGE_EXIT
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("edit", [lambda d: d["data"]["k"].__setitem__(3, float("nan")),
                                  lambda d: d["data"]["det_s_re"].__setitem__(3, float("inf")),
                                  lambda d: d["data"]["det_s_im"].append(0.5),
                                  lambda d: d["known_right"].__setitem__("breakpoints",
                                                                         [0.5, 0.2]),
                                  lambda d: d.__setitem__("n_params", 2.5),
                                  lambda d: d.__setitem__("n_params", True),
                                  lambda d: d.__setitem__("n_params", "2"),
                                  lambda d: d["known_right"].update(breakpoints=[-0.5, 1.0],
                                                                    values=[-2.0]),
                                  lambda d: d["known_right"].update(breakpoints=[-2.0, -1.5],
                                                                    values=[-2.0])])
def test_inverse_recover_rejects_a_spec_it_cannot_fit(tmp_path, capsys, edit):
    """A non-finite k or det S sample, det S parts of unequal length, a
    known right part that cannot be built or that starts left of 0 (a fit
    ran and exited 2), or an n_params that is not an integer (2.5, true
    and "2" were read as 2, 1 and 2) is a malformed spec: exit 1 with one
    error line, before any fit."""
    right = Fragment((0.0, 1.0), (-2.0,))
    truth = make_piecewise([-1.0, -0.5, 0.0, 1.0], [-3.0, 1.0, -2.0])
    d = synthesize_data(right, -1.0, 2, truth, np.linspace(0.3, 10.0, 30)).to_json()
    edit(d)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(d))
    out = tmp_path / "rec.json"
    code = cli.main(["inverse-recover", "--spec", str(spec), "--out", str(out)])
    assert code == cli.USAGE_EXIT
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed")


def test_inverse_recover_rejects_other_loss_kinds(tmp_path, capsys):
    right = Fragment((0.0, 1.0), (-2.0,))
    truth = make_piecewise([-1.0, -0.5, 0.0, 1.0], [-3.0, 1.0, -2.0])
    d = synthesize_data(right, -1.0, 2, truth, np.linspace(0.3, 10.0, 30)).to_json()
    assert d["loss_kind"] == "det_s_grid"
    d["loss_kind"] = "resonance_match"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(d))
    out = tmp_path / "rec.json"
    code = cli.main(["inverse-recover", "--spec", str(spec), "--out", str(out)])
    assert code == cli.USAGE_EXIT
    assert not out.exists()
    capsys.readouterr()
