import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import fedlmm
import fedlmm.attack
import fedlmm.cli as cli
import fedlmm.estimator
from fedlmm import calibrate, load_summary, merge_summaries, privatize, save_summary
from fedlmm.cli import _read_csv_columns, end_to_end, main, write_bundle_csv
from fedlmm.summaries import SiteData, compute_summary

from oracles import dense_gls_beta


def run(args):
    return main(args)


def tree(root):
    """Relative path -> bytes of every file under ``root``."""
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(Path(root).rglob("*")) if f.is_file()}


@pytest.fixture
def clinic_csv(tmp_path):
    path = tmp_path / "cardio.csv"
    path.write_text(
        "ct,result,sex,drive\n"
        "30.0,0,0,0\n"
        "25.5,1,0,0\n"
        "28.25,0,1,0\n"
    )
    return path


class TestSummarize:
    def test_binary_gram_block(self, clinic_csv, tmp_path, capsys):
        out = tmp_path / "sums"
        rc = run([
            "summarize", "--csv", str(clinic_csv), "--outcome", "ct",
            "--covariates", "result,sex,drive", "--no-intercept", "--out", str(out),
        ])
        assert rc == 0
        summary = load_summary(out / "site.json")
        np.testing.assert_array_equal(summary.S[1:, 1:], [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert summary.n == 3

    def test_empty_csv(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run(["summarize", "--csv", str(empty), "--outcome", "y",
                  "--covariates", "x", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "empty CSV" in capsys.readouterr().err
        header_only = tmp_path / "h.csv"
        header_only.write_text("y,x\n")
        rc = run(["summarize", "--csv", str(header_only), "--outcome", "y",
                  "--covariates", "x", "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("covariates", ["", ", ,"], ids=["empty", "blank-items"])
    def test_no_covariate(self, clinic_csv, tmp_path, capsys, covariates):
        rc = run(["summarize", "--csv", str(clinic_csv), "--outcome", "ct",
                  "--covariates", covariates, "--out", str(tmp_path / "o")])
        assert (rc, capsys.readouterr().err) == (1, "error: need at least one covariate\n")
        assert not (tmp_path / "o").exists()

    def test_unopenable_csv(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        rc = run(["summarize", "--csv", str(missing), "--outcome", "y",
                  "--covariates", "x", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith(f"error: cannot open {missing}: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_cell_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x\n1.0,2.0\n3.0,oops\n")
        rc = run(["summarize", "--csv", str(bad), "--outcome", "y",
                  "--covariates", "x", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "oops" in err and "'x'" in err and "row 2" in err

    def test_missing_column(self, clinic_csv, tmp_path, capsys):
        rc = run(["summarize", "--csv", str(clinic_csv), "--outcome", "ct",
                  "--covariates", "nothere", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing columns" in capsys.readouterr().err

    def test_site_column_split(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "site,y,x\n"
            "a,1.0,0\n"
            "a,2.0,1\n"
            "b,3.0,1\n"
            "a,0.5,0\n"
            "b,-1.25,2\n"
        )
        out = tmp_path / "sums"
        rc = run(["summarize", "--csv", str(path), "--outcome", "y",
                  "--covariates", "x", "--site-col", "site", "--out", str(out)])
        assert rc == 0
        rows = {"a": [[1.0, 0.0], [2.0, 1.0], [0.5, 0.0]], "b": [[3.0, 1.0], [-1.25, 2.0]]}
        for sid, values in rows.items():
            got = load_summary(out / f"{sid}.json")
            arr = np.array(values)
            X = np.column_stack([np.ones(len(arr)), arr[:, 1]])
            want = compute_summary(SiteData(site_id=sid, y=arr[:, 0], X=X))
            assert got.n == len(values)
            np.testing.assert_array_equal(got.S, want.S)
            np.testing.assert_array_equal(got.T, want.T)

    def test_colliding_file_names_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("site,y,x\na b,1.0,0\na_b,2.0,1\na_b,0.5,0\n")
        out = tmp_path / "sums"
        rc = run(["summarize", "--csv", str(path), "--outcome", "y",
                  "--covariates", "x", "--site-col", "site", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'a b'" in err and "'a_b'" in err
        assert not out.exists()

    def test_large_site_golden_bytes(self, tmp_path):
        """Summary bytes of a site above the exact-summation threshold and one below it."""
        rng = np.random.default_rng(1414)
        rows = []
        for sid, n in (("big", 12_289), ("small", 37)):
            x1 = rng.binomial(1, 0.4, n).astype(float)
            x2 = rng.normal(0.0, 1.0, n)
            x3 = rng.normal(0.0, 2.0**20, n)
            y = 0.5 + x1 - 0.25 * x2 + 1e-6 * x3 + rng.normal(0.0, 1.0, n)
            cells = np.column_stack([y, x1, x2, x3]).tolist()
            rows += [sid + "," + ",".join(map(repr, row)) for row in cells]
        path = tmp_path / "large.csv"
        path.write_text("site,y,x1,x2,x3\n" + "\n".join(rows) + "\n")
        out = tmp_path / "sums"
        assert run(["summarize", "--csv", str(path), "--outcome", "y", "--covariates", "x1,x2,x3",
                    "--site-col", "site", "--out", str(out)]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}
        assert digests == {
            "big.json": "d10737df344a1c10d54598436c381280453be7a46c688bd7fb58bf3db870778f",
            "small.json": "2f57dba95f6034f2530893e77fa78b8eab6b0638acc09ab35ec5fd2159cb3d00",
        }

    @pytest.mark.parametrize("n", [5, 10_001])
    def test_overflowing_site_exits_1(self, tmp_path, capsys, n):
        """y'y = 3e308 overflows: exit 1 with the named error alone, at either site size."""
        path = tmp_path / "huge.csv"
        path.write_text("y,x\n" + "1e154,1.0\n" * 3 + "0.5,2.0\n" * (n - 3))
        out = tmp_path / "sums"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(["summarize", "--csv", str(path), "--outcome", "y", "--covariates", "x",
                      "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: site 'site': non-finite summary entries\n")
        assert not list(out.glob("*.json"))


# (file text, expected (site, y, x) rows or a fragment of the error message)
INGEST_CASES = {
    "crlf": ("site,y,x\r\na,1,2\r\nb,3,4\r\n", [("a", 1, 2), ("b", 3, 4)]),
    "quoted-comma-and-number": ('site,y,x\n"a,b","1.5",2\n', [("a,b", 1.5, 2)]),
    "blank-lines-skipped": ("site,y,x\n\na,1,2\n\n\nb,3,4\n\n", [("a", 1, 2), ("b", 3, 4)]),
    "blank-lines-not-counted": ("site,y,x\n\na,1,2\n\nb,3,oops\n",
                                "non-numeric value 'oops' in column 'x', data row 2"),
    "hash-in-site-id": ("site,y,x\na#b,1,2\n#c,3,4\n", [("a#b", 1, 2), ("#c", 3, 4)]),
    "short-row": ("site,y,x\na,1,2\nb,3\n", "non-numeric value None in column 'x', data row 2"),
    "short-row-without-site": ("y,x,site\n1,2,a\n3,4\n", "no value in column 'site', data row 2"),
    "extra-fields-ignored": ("site,y,x\na,1,2,9,zz\n", [("a", 1, 2)]),
    "long-site-id": ("site,y,x\n" + "s" * 100 + ",1,2\nt,3,4\n", [("s" * 100, 1, 2), ("t", 3, 4)]),
    "bom-header": ("\ufeffsite,y,x\na,1,2\n", "missing columns ['site']"),
    "empty-cell": ("site,y,x\na,1,2\nb,,4\n", "non-numeric value '' in column 'y', data row 2"),
    "no-final-newline": ("site,y,x\na,1,2\nb,3,4", [("a", 1, 2), ("b", 3, 4)]),
    "underscore-rejected": ("site,y,x\na,1_0,2\n", "non-numeric value '1_0' in column 'y', data row 1"),
    "arabic-digit-rejected": ("site,y,x\na,1,2\nb,3,\u0661\n",
                              "non-numeric value '\u0661' in column 'x', data row 2"),
    "not-utf8": (b"site,y,x\na\xe9,1,2\n", "not UTF-8 text"),
}


@pytest.mark.parametrize("text, expected", INGEST_CASES.values(), ids=INGEST_CASES.keys())
def test_ingest_dialect(tmp_path, capsys, text, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    rc = run(["summarize", "--csv", str(path), "--outcome", "y", "--covariates", "x",
              "--site-col", "site", "--out", str(tmp_path / "sums")])
    err = capsys.readouterr().err
    if isinstance(expected, str):
        assert rc == 1
        assert err.startswith("error: ") and expected in err and "Traceback" not in err
        return
    assert rc == 0
    values, site_ids = _read_csv_columns(str(path), ["y", "x"], "site")
    assert site_ids == [sid for sid, _, _ in expected]
    assert all(type(sid) is str for sid in site_ids)
    np.testing.assert_array_equal(values, [[y, x] for _, y, x in expected])


def test_ingest_bit_identical_to_float(tmp_path):
    rng = np.random.default_rng(5)
    finite = rng.integers(0, 2**63, size=2400, dtype=np.uint64).view(np.float64)
    finite = np.where(np.isfinite(finite), finite, 1.5)
    subnormal = rng.integers(1, 2**52, size=800, dtype=np.uint64).view(np.float64)
    cells = np.concatenate([finite, subnormal, rng.normal(0.0, 1e3, 800)])
    cells = (cells * rng.choice([-1.0, 1.0], size=cells.size)).reshape(-1, 2)
    lines = ["site,y,x"] + [f"s{i % 7},{y!r},{x!r}" for i, (y, x) in enumerate(cells.tolist())]
    path = tmp_path / "doubles.csv"
    path.write_text("\n".join(lines) + "\n")
    reference = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    values, site_ids = _read_csv_columns(str(path), ["y", "x"], "site")
    assert values.shape == (2000, 2)
    assert values.tobytes() == reference.tobytes()
    assert site_ids == [f"s{i % 7}" for i in range(2000)]


def test_ingest_from_pipe(tmp_path):
    fifo = tmp_path / "rows.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("site,y,x\na,1,2\nb,3,4\n",), daemon=True)
    writer.start()
    values, site_ids = _read_csv_columns(str(fifo), ["y", "x"], "site")
    writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(values, [[1, 2], [3, 4]])
    assert site_ids == ["a", "b"]


@pytest.fixture
def summary_files(tmp_path):
    bundle = write_bundle_csv(tmp_path / "bundle.csv")
    out = tmp_path / "sums"
    rc = run(["summarize", "--csv", str(bundle), "--outcome", "y",
              "--covariates", "x1,x2,x3", "--site-col", "site", "--out", str(out)])
    assert rc == 0
    return sorted(out.glob("*.json"))


class TestFit:
    def test_matches_pooled_gls_oracle(self, tmp_path, summary_files):
        report_path = tmp_path / "report.json"
        rc = run(["fit", *map(str, summary_files), "--method", "ml",
                  "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["fit"]["converged"] and report["fit"]["search"] == "profile"
        # dense GLS on the pooled raw rows at the fitted variance components
        rows = list(csv.DictReader(open(tmp_path / "bundle.csv")))
        sites = {}
        for r in rows:
            sites.setdefault(r["site"], []).append(
                [float(r["y"]), float(r["x1"]), float(r["x2"]), float(r["x3"])]
            )
        site_data = []
        for sid, vals in sorted(sites.items()):
            arr = np.array(vals)
            X = np.column_stack([np.ones(len(arr)), arr[:, 1:]])
            site_data.append(SiteData(site_id=sid, y=arr[:, 0], X=X))
        beta_ref = dense_gls_beta(report["fit"]["sigma2"], report["fit"]["tau2"], site_data)
        np.testing.assert_allclose(report["fit"]["beta"], beta_ref, atol=1e-8)

    def test_reml_refuses_privatized(self, tmp_path, summary_files, capsys):
        dp = tmp_path / "dp.json"
        rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(dp),
                  "--epsilon0", "8", "--delta", "0.01", "--seed", "1"])
        assert rc == 0
        rc = run(["fit", str(dp), *map(str, summary_files[1:]), "--method", "reml",
                  "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "determinant amplification" in capsys.readouterr().err

    def test_narrower_interval_at_lower_level(self, tmp_path, summary_files):
        paths = []
        for level in ("0.9", "0.95"):
            p = tmp_path / f"report{level}.json"
            rc = run(["fit", *map(str, summary_files), "--level", level, "--out", str(p)])
            assert rc == 0
            paths.append(p)
        r90, r95 = [json.loads(p.read_text()) for p in paths]
        w90 = [hi - lo for lo, hi in r90["ci"]["intervals"]]
        w95 = [hi - lo for lo, hi in r95["ci"]["intervals"]]
        assert all(a < b for a, b in zip(w90, w95))

    def test_coefficient_csv_schema(self, tmp_path, summary_files):
        coef = tmp_path / "coef.csv"
        rc = run(["fit", *map(str, summary_files), "--correction", "cr1p",
                  "--out", str(tmp_path / "r.json"), "--coef-csv", str(coef)])
        assert rc == 0
        rows = list(csv.DictReader(open(coef)))
        assert list(rows[0]) == ["coefficient", "estimate", "se", "ci_lo", "ci_hi", "correction"]
        assert len(rows) == 4
        assert all(r["correction"] == "cr1p" for r in rows)

    def test_all_zero_covariate_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("site,y,x,z\na,1.0,0.5,0\na,2.0,1.5,0\na,0.3,-1.0,0\n"
                        "b,3.0,1.0,0\nb,-1.25,2.0,0\nb,0.7,0.1,0\nc,1.1,0.4,0\nc,2.2,-0.3,0\n")
        sums = tmp_path / "sums"
        assert run(["summarize", "--csv", str(path), "--outcome", "y", "--covariates", "x,z",
                    "--site-col", "site", "--out", str(sums)]) == 0
        capsys.readouterr()
        report = tmp_path / "r.json"
        assert run(["fit", *map(str, sorted(sums.glob("*.json"))), "--out", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: profile objective unusable over the whole search box\n"
        assert not report.exists()

    def test_nonconvergence_warns_and_exits_0(self, tmp_path, summary_files, capsys, monkeypatch):
        monkeypatch.setattr(fedlmm.estimator, "_MAX_EVALS", 3)
        report = tmp_path / "r.json"
        assert run(["fit", *map(str, summary_files), "--out", str(report)]) == 0
        assert capsys.readouterr().err == "warning: optimizer did not converge\n"
        assert json.loads(report.read_text())["fit"]["converged"] is False

    def test_tampered_summary_rejected(self, tmp_path, summary_files, capsys):
        obj = json.loads(summary_files[0].read_text())
        obj["S"][1] += 1.0
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(obj))
        rc = run(["fit", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "privatize"])
@pytest.mark.parametrize("content, message", [
    (None, "cannot open"),
    (b'{"site_id": "caf\xe9"}', "not UTF-8 text"),
])
def test_unreadable_summary_exits_1(tmp_path, capsys, command, content, message):
    path = tmp_path / "site.json"
    if content is not None:
        path.write_bytes(content)
    args = {"fit": ["fit", str(path), "--out", str(tmp_path / "r.json")],
            "privatize": ["privatize", "--in", str(path), "--out", str(tmp_path / "dp.json"),
                          "--epsilon0", "4", "--delta", "0.01"]}[command]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, message", [
    (["privatize", "--in", "x.json", "--out", "y.json", "--epsilon0", "abc", "--delta", "0.01"],
     "fedlmm privatize: argument --epsilon0: invalid float value: 'abc'"),
    (["privatize", "--in", "x.json", "--out", "y.json", "--delta", "0.01"],
     "fedlmm privatize: the following arguments are required: --epsilon0"),
    (["frobnicate"], "fedlmm: argument command: invalid choice: 'frobnicate'"),
], ids=["mistyped-float", "missing-option", "unknown-command"])
def test_usage_error_exits_1(capsys, args, message):
    """A mistyped, missing or unknown argument is invalid input: exit 1, not argparse's 2."""
    assert run(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ")
    assert f"\nerror: {message}" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["privatize", "--help"])
    assert exc.value.code == 0
    assert "--epsilon0" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", "abc"], ids=["negative", "not-an-integer"])
@pytest.mark.parametrize("command", ["summarize", "privatize", "fit", "simulate-estimation",
                                     "attack", "pipeline"])
def test_bad_seed_exits_1_before_any_output(tmp_path, clinic_csv, summary_files, capsys, command, seed):
    """numpy's SeedSequence takes no negative seed: argparse refuses it, with no traceback."""
    out = tmp_path / "out"
    argv = {
        "summarize": ["--csv", str(clinic_csv), "--outcome", "ct", "--covariates", "sex"],
        "privatize": ["--in", str(summary_files[0]), "--epsilon0", "4", "--delta", "0.01"],
        "fit": [*map(str, summary_files)],
        "simulate-estimation": ["--scenario", "ri-correct", "--K", "5", "--epsilon0", "8", "--reps", "1"],
        "attack": ["--n", "3", "--p", "3", "--reps", "1"],
        "pipeline": [],
    }[command]
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    assert run([command, *argv, "--out", str(out), "--seed", seed]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert err.startswith("usage: ")
    assert f": argument --seed: must be a non-negative integer, got '{seed}'\n" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_seed_defaults():
    """Every command's --seed defaults to 0, except pipeline's, which defaults to 7."""
    parser = cli.build_parser()
    assert parser.parse_args(["attack", "--n", "3", "--p", "3", "--reps", "1", "--out", "x"]).seed == 0
    assert parser.parse_args(["pipeline", "--out", "x"]).seed == 7


class TestDispatch:
    """One parser tree per process; each call runs the handler bound in the module now."""

    def privatize_argv(self, summary, target, *options):
        return ["privatize", "--in", str(summary), "--out", str(target),
                "--epsilon0", "4", "--delta", "0.01", "--seed", "2", *options]

    def test_parser_built_once_across_calls(self, tmp_path, summary_files, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for k in range(3):
            assert run(self.privatize_argv(summary_files[k], tmp_path / f"dp{k}.json")) == 0
        assert run(["fit", *map(str, summary_files), "--out", str(tmp_path / "r.json")]) == 0
        assert builds == [1]

    def test_rebound_handler_runs(self, tmp_path, summary_files, monkeypatch):
        assert run(self.privatize_argv(summary_files[0], tmp_path / "a.json")) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_privatize", lambda args: seen.append(args.infile) or 0)
        assert run(self.privatize_argv(summary_files[1], tmp_path / "b.json")) == 0
        assert seen == [str(summary_files[1])]
        assert not (tmp_path / "b.json").exists()

    def test_no_option_state_leaks_between_calls(self, tmp_path, summary_files):
        first, subset, again = (tmp_path / f"{name}.json" for name in ("first", "subset", "again"))
        assert run(self.privatize_argv(summary_files[0], first)) == 0
        assert run(self.privatize_argv(summary_files[0], subset, "--sensitive", "2,3")) == 0
        assert run(self.privatize_argv(summary_files[0], again)) == 0
        assert again.read_bytes() == first.read_bytes() != subset.read_bytes()


class TestPrivatizeCommand:
    def test_deterministic_bytes(self, tmp_path, summary_files):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(target),
                      "--epsilon0", "4", "--delta", "0.01", "--seed", "33"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("option, sensitive", [
        ([], frozenset()), (["--sensitive", "2,3"], frozenset({2, 3})),
    ], ids=["every-entry", "sensitive-2-3"])
    def test_same_bytes_as_library(self, tmp_path, summary_files, option, sensitive):
        target, want = tmp_path / "cli.json", tmp_path / "lib.json"
        rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(target),
                  "--epsilon0", "4", "--delta", "0.01", "--seed", "5", *option])
        assert rc == 0
        summary = load_summary(summary_files[0])
        budget = calibrate(4.0, delta=0.01, p=summary.p)
        save_summary(privatize(merge_summaries([summary]), budget, sensitive=sensitive, rng_seed=5)[0], want)
        assert target.read_bytes() == want.read_bytes()

    def test_out_of_range_sensitive_exits_1(self, tmp_path, summary_files, capsys):
        target = tmp_path / "dp.json"
        rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(target),
                  "--epsilon0", "4", "--delta", "0.01", "--sensitive", "9"])
        assert rc == 1
        assert capsys.readouterr().err == "error: sensitive indices [9] outside 1..4\n"
        assert not target.exists()

    def test_budget_recorded(self, tmp_path, summary_files):
        target = tmp_path / "dp.json"
        rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(target),
                  "--epsilon0", "4", "--delta", "0.01", "--seed", "1"])
        assert rc == 0
        loaded = load_summary(target)
        assert loaded.privatized
        assert loaded.budget_used.epsilon == 2 * 4 * 4.0  # 2 p eps0 with p=4

    @pytest.mark.parametrize("field, value", [
        ("site_id", 5), ("n", 5.7), ("n", True), ("privatized", "false"),
    ])
    def test_mistyped_field_rejected(self, tmp_path, summary_files, capsys, field, value):
        obj = json.loads(summary_files[0].read_text())
        obj[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        target = tmp_path / "dp.json"
        rc = run(["privatize", "--in", str(bad), "--out", str(target),
                  "--epsilon0", "4", "--delta", "0.01", "--seed", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed summary object:") and field in err
        assert "Traceback" not in err
        assert not target.exists()


class TestAttackCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = run(["attack", "--n", "3", "--p", "3", "--epsilon0", "8",
                  "--delta", "0.01", "--reps", "20", "--seed", "2", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert list(rows[0]) == ["n", "p", "epsilon0", "matrix_rate", "element_rate", "reps", "failed"]
        assert rows[0]["reps"] == "20" and rows[0]["failed"] == "0"

    def test_reference_run(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = run(["attack", "--n", "3", "--p", "3", "--reps", "20",
                  "--seed", "2", "--out", str(out)])
        assert rc == 0
        row = next(csv.DictReader(open(out)))
        assert row["epsilon0"] == "ref"
        assert float(row["matrix_rate"]) > 0.5

    @pytest.mark.parametrize("n, p", [("0", "3"), ("3", "0"), ("3", "10")])
    def test_unsolvable_design_exits_1(self, tmp_path, capsys, n, p):
        out = tmp_path / "rates.csv"
        rc = run(["attack", "--n", n, "--p", p, "--reps", "2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
    def test_bad_timeout_exits_1(self, tmp_path, capsys, timeout):
        out = tmp_path / "rates.csv"
        rc = run(["attack", "--n", "3", "--p", "3", "--reps", "2", "--timeout", timeout,
                  "--out", str(out)])
        assert rc == 1
        assert "timeout" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommands:
    def test_estimation_smoke(self, tmp_path):
        out = tmp_path / "metrics.csv"
        rc = run(["simulate-estimation", "--scenario", "ri-correct", "--K", "8",
                  "--epsilon0", "8", "--reps", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert {r["arm"] for r in rows} == {"ipd", "dp", "dp2"}

    def test_reconstruction_smoke(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = run(["simulate-reconstruction", "--n", "2,3", "--p", "2", "--epsilon0",
                  "ref,8", "--reps", "10", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 4
        assert {r["epsilon0"] for r in rows} == {"ref", "8.0"}

    def test_attack_is_an_alias(self, tmp_path):
        argv = ["--n", "2,3", "--p", "2", "--epsilon0", "ref,8", "--reps", "5", "--seed", "3"]
        a, b = tmp_path / "attack.csv", tmp_path / "simulate.csv"
        assert run(["attack", *argv, "--out", str(a)]) == 0
        assert run(["simulate-reconstruction", *argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(list(csv.DictReader(open(a)))) == 4

    def test_reconstruction_defaults_to_reference_level(self, tmp_path):
        a, b = tmp_path / "default.csv", tmp_path / "ref.csv"
        argv = ["simulate-reconstruction", "--n", "3", "--p", "2", "--reps", "5"]
        assert run([*argv, "--out", str(a)]) == 0
        assert run([*argv, "--epsilon0", "ref", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert next(csv.DictReader(open(a)))["epsilon0"] == "ref"

    @pytest.mark.parametrize("command, level", [
        ("attack", "abc"), ("simulate-reconstruction", "ref,abc"), ("simulate-reconstruction", "none"),
    ])
    def test_bad_epsilon0_exits_1(self, tmp_path, capsys, command, level):
        out = tmp_path / "rates.csv"
        rc = run([command, "--n", "3", "--p", "3", "--epsilon0", level, "--reps", "2",
                  "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        bad = level.split(",")[-1]  # "ref" is the only spelling of the no-noise level
        assert err.startswith("error: ") and repr(bad) in err and "Traceback" not in err
        assert not out.exists()

    def test_estimation_correction_error_exits_1(self, tmp_path, capsys):
        # CR1p needs K > p = 7: an input error, not a failed replicate
        out = tmp_path / "metrics.csv"
        rc = run(["simulate-estimation", "--scenario", "ri-correct", "--K", "3", "--epsilon0", "2",
                  "--reps", "2", "--correction", "cr1p", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: CR1p needs K > p")
        assert not out.exists()

    @pytest.mark.parametrize("options, message", [
        ("--scenario ri-mis --K 1 --epsilon0 -5", "error: epsilon must be positive"),
        ("--scenario ri-correct --K 1 --epsilon0 2 --correction cr1p",
         "error: CR1p needs K > p (got K=1, p=7)"),
    ], ids=["bad-level", "bad-correction"])
    def test_estimation_inputs_checked_before_replicates(self, tmp_path, capsys, options, message):
        # K = 1 fails every reference fit, which must not hide an input error
        out = tmp_path / "metrics.csv"
        rc = run(["simulate-estimation", *options.split(), "--reps", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, p", [("2,0", "2"), ("2", "2,0")])
    def test_reconstruction_empty_design_exits_1(self, tmp_path, capsys, n, p):
        rc = run(["simulate-reconstruction", "--n", n, "--p", p, "--epsilon0", "ref",
                  "--reps", "2", "--out", str(tmp_path / "rates.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("options, message", [
        ("--n 6 --p 5,10 --reps 50", "p=10 exceeds the solver's capacity p <= 9"),
        ("--n 6 --p 5 --epsilon0 ref,8 --delta 2 --reps 2", "delta must lie in (0, 1)"),
        ("--n 6 --p 5 --epsilon0 ref,-1 --reps 2", "epsilon must be positive"),
        ("--n 0 --p 3 --reps 2", "n must be >= 1, got 0"),
        ("--n 3,0 --p 3 --reps 2", "n must be >= 1, got 0"),
        ("--n 3 --p 3,0 --reps 2", "p must be >= 1, got 0"),
        ("--n 3 --p 3 --reps 0", "reps must be >= 1, got 0"),
        ("--n 3 --p 3 --reps 2 --timeout 0", "timeout must be a positive number of seconds, got 0.0"),
        ("--n 3 --p 3 --reps 2 --timeout inf", "timeout must be a positive number of seconds, got inf"),
    ], ids=["p-over-capacity", "delta", "epsilon0", "n-zero", "n-zero-later", "p-zero", "reps",
            "timeout-zero", "timeout-inf"])
    def test_reconstruction_grid_checked_before_cells(self, tmp_path, capsys, monkeypatch,
                                                      options, message):
        # A bad value anywhere in the grid refuses the study before any replicate runs.
        calls = []
        monkeypatch.setattr(fedlmm.attack, "attack_pipeline", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "rates.csv"
        rc = run(["simulate-reconstruction", *options.split(), "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")
        assert calls == []
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, argv", [
    ("--K", "simulate-estimation --scenario ri-mis --K {} --epsilon0 8 --reps 1"),
    ("--epsilon0", "simulate-estimation --scenario ri-mis --K 4 --epsilon0 {} --reps 1 --arms ipd"),
    ("--n", "simulate-reconstruction --n {} --p 2 --reps 2"),
    ("--p", "simulate-reconstruction --n 2 --p {} --reps 2"),
    ("--epsilon0", "simulate-reconstruction --n 2 --p 2 --epsilon0 {} --reps 2"),
], ids=["K", "estimation-epsilon0", "n", "p", "reconstruction-epsilon0"])
@pytest.mark.parametrize("empty", [",", " , ,"])
def test_empty_study_grid_exits_1(tmp_path, capsys, option, argv, empty):
    """A grid option that lists no value writes no CSV and names the option."""
    out = tmp_path / "rows.csv"
    args = [empty if a == "{}" else a for a in argv.split()]
    assert run([*args, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {option} lists no values\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, clean, messy", [
    ("summarize --csv {csv} --outcome ct --covariates {} --site-id s", "result,sex", "result,,sex,"),
    ("privatize --in {summary} --epsilon0 4 --delta 0.01 --sensitive {}", "2,3", "2, ,3,"),
    ("simulate-estimation --scenario ri-mis --K {} --epsilon0 8 --reps 1 --arms ipd,dp", "3,4", "3,,4,"),
    ("simulate-estimation --scenario ri-mis --K 4 --epsilon0 {} --reps 1 --arms ipd,dp", "8,2", " ,8,2,"),
    ("simulate-estimation --scenario ri-mis --K 4 --epsilon0 8 --reps 1 --arms {}", "ipd,dp", "ipd,dp,"),
    ("simulate-reconstruction --n {} --p 2 --reps 3", "2,3", "2,3,"),
    ("simulate-reconstruction --n 2 --p {} --reps 3", "2,3", "2,,3"),
    ("simulate-reconstruction --n 2 --p 2 --epsilon0 {} --reps 3", "ref,8", "ref, ,8,"),
], ids=["covariates", "sensitive", "K", "estimation-epsilon0", "arms", "n", "p",
        "reconstruction-epsilon0"])
def test_blank_list_tokens_are_skipped(tmp_path, clinic_csv, summary_files, argv, clean, messy):
    """A trailing comma or a blank token changes no output byte of any list option."""
    outputs = []
    for value in (clean, messy):
        out = tmp_path / f"out{len(outputs)}"
        args = [value if a == "{}" else a.format(csv=clinic_csv, summary=summary_files[0])
                for a in argv.split()]
        assert run([*args, "--out", str(out)]) == 0
        outputs.append(tree(out) if out.is_dir() else out.read_bytes())
    assert outputs[0] == outputs[1]


class TestEndToEnd:
    def test_byte_identical_artifacts(self, tmp_path):
        a = end_to_end(tmp_path / "run_a", seed=7)
        b = end_to_end(tmp_path / "run_b", seed=7)
        for key in ("fit_dp", "fit_plain", "attack"):
            assert (a[key]).read_bytes() == (b[key]).read_bytes()
        for fa, fb in zip(a["private"], b["private"]):
            assert open(fa, "rb").read() == open(fb, "rb").read()

    @pytest.mark.parametrize("stage, options, report_sha, coef_sha", [
        ("private", ["--method", "ml", "--correction", "cr1"],
         "8b0210c03e28e06b9c1af8156e97350fd675c16f695cf7ff9afa23f981536fc4",
         "9cc569fa85251e1b6f11c2fa746835adba98bcedccd7331feeb3216572fffec5"),
        ("summaries", ["--method", "reml", "--correction", "cr1s", "--use-t", "--level", "0.9"],
         "ae9600356505bcabaca81df9313157a8a59c94ecc478911aa410c91d945dc111",
         "c9793b018d555fe774c312f486497b88999b75248ff42624333138ee2ffb6450"),
    ], ids=["private-ml-cr1", "summaries-reml-cr1s"])
    def test_fit_golden_bytes(self, tmp_path, stage, options, report_sha, coef_sha):
        """Report and coefficient bytes (V, se, ci) of fits on the seed-7 pipeline's summaries."""
        files = end_to_end(tmp_path / "pipe", seed=7)[stage]
        report, coef = tmp_path / "fit.json", tmp_path / "coef.csv"
        assert run(["fit", *files, *options, "--out", str(report), "--coef-csv", str(coef)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256(coef.read_bytes()).hexdigest() == coef_sha

    @pytest.mark.parametrize("options, sha", [
        ("--scenario ri-correct --K 50 --epsilon0 2,8,16 --arms ipd,dp,dp2 --reps 3 --seed 1",
         "c142a4ccf8a8a19594d66292076711432eb89d2d20b63dfd87fabbba8d85e19b"),
        ("--scenario ri-mis --K 20 --epsilon0 4,8 --reps 3 --seed 2",
         "15a69d182011ee3931945d82f233b4514f9f56b948a7f25806ffe36fecf42a9e"),
        ("--scenario ris-correct --K 20 --epsilon0 8 --reps 2 --seed 3",
         "14dcb140e8480b5da836f0cb61e9e9bab8ca030b055df38d24404deb01aeacae"),
        ("--scenario ris-mis --K 10,20 --epsilon0 2,8 --reps 2 --seed 4",
         "d1e583c95140ef185ac295f0862bd8205d6de712fc8c54ced71d0063b1e5f38c"),
        ("--scenario ri-correct --K 20 --epsilon0 4,16 --arms dp2,dp --reps 2 --seed 5",
         "42b27cd58d5a7d72a946e98a6536fe3ce8eb6bd0c1a1fccb5147c2ac2a4fc2d4"),
        ("--scenario ri-mis --K 15 --epsilon0 8 --arms dp --reps 2 --seed 3",
         "311c61a548cfdfbd98557d39185d09249a5a12286c8270f185fe24b8d8b975fe"),
        ("--scenario ri-correct --K 20 --epsilon0 8 --reps 4 --seed 2 --workers 2",
         "52d194c03e8abe4f78853d30358a572b35f2c6aa274281238490dc9f9c36b059"),
        ("--scenario ris-correct --K 15 --epsilon0 8,2 --reps 2 --seed 7 --correction cr1",
         "17fe5e54694479c2293637c9f685db9caed4e710b3aad78f962399c09abbd6d1"),
        ("--scenario ri-correct --K 2 --epsilon0 2,8 --reps 6 --seed 6",
         "5870fcd90c29d4d32c1ccff9592ea46efcf54b0ae80cb5ce24bb2263b5645f1a"),
        ("--scenario ri-mis --K 1 --epsilon0 8,2 --reps 2 --seed 1",
         "9abf9cb46be6478368df8c23b83f8cef452134c1e86a6fb6696ac273a9594f13"),
        ("--scenario ri-correct --K 200 --epsilon0 2,4,8,12,16,20 --arms ipd,dp --reps 1 --seed 0",
         "c01d879bc74c21e255607fcf6d95b7731cf8af03e58fc5daaf0fa4cede17a7c6"),
    ], ids=["ri-correct-3-arms", "ri-mis", "ris-correct", "ris-mis-two-K", "arms-dp2-dp",
            "arms-dp", "workers-2", "correction-cr1", "failed-dp-rows", "every-row-failed",
            "benchmark-input"])
    def test_estimation_golden_bytes(self, tmp_path, options, sha):
        """Metric CSV bytes of simulate-estimation: every scenario, arm subset and failure path."""
        out = tmp_path / "metrics.csv"
        assert run(["simulate-estimation", *options.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("options, sha", [
        ("--n 3 --p 3 --epsilon0 ref,8",
         "67013c4bed873edd510c85887dea4bd1cf731d15fe783822eb8793e2f603f578"),
        ("--n 5,6 --p 5 --epsilon0 ref,8",
         "0efaa284d9f4d0a6d89722ca3cc4561ca6afd4cdffc2ff009625e57d6da4b3b1"),
        ("--n 3 --p 3 --epsilon0 2,4",
         "f6ee6555036d90dd7a1f816e4b66a9a4395552d2eae4790859251349f93d5f70"),
        ("--n 5,6 --p 5 --epsilon0 2,4",
         "8326820215d0f96b9b14f37f44992c41f72a16250910b94f932382335179c47b"),
    ], ids=["n3-p3", "n5,6-p5", "n3-p3-eps2,4", "n5,6-p5-eps2,4"])
    def test_reconstruction_golden_bytes(self, tmp_path, options, sha):
        """Rate CSV bytes of simulate-reconstruction: no noise, eps0=8 and the repair-heavy 2 and 4."""
        out = tmp_path / "rates.csv"
        argv = [*options.split(), "--reps", "10", "--seed", "0"]
        assert run(["simulate-reconstruction", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    def test_reconstruction_grid_golden_bytes(self, tmp_path):
        """One CSV over every level and four n by three p: exact, tied and repaired cells."""
        out = tmp_path / "rates.csv"
        argv = ["--n", "2,3,5,6", "--p", "2,3,5", "--epsilon0", "ref,2,4,8,16",
                "--reps", "10", "--seed", "4"]
        assert run(["simulate-reconstruction", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "071c47988002bca7db8239a3506a912bcb8499d4bf9edfb6f9b19923ff698fde")

    def test_weak_noise_pipeline_close_to_plain(self, tmp_path):
        artifacts = end_to_end(tmp_path / "weak", seed=7, epsilon0=20.0)
        dp = json.loads(artifacts["fit_dp"].read_text())
        plain = json.loads(artifacts["fit_plain"].read_text())
        diff = np.linalg.norm(np.array(dp["fit"]["beta"]) - np.array(plain["fit"]["beta"]))
        assert diff < 0.05

    def test_pipeline_command_writes_end_to_end_tree(self, tmp_path):
        assert run(["pipeline", "--out", str(tmp_path / "cli"), "--seed", "3"]) == 0
        end_to_end(tmp_path / "lib", seed=3)
        assert tree(tmp_path / "cli") == tree(tmp_path / "lib")
        assert len(tree(tmp_path / "cli")) == 16

    def test_pipeline_tree_golden(self, tmp_path):
        """The seed-7 tree: sha256 of its ``sha256sum`` listing, files in path order."""
        assert run(["pipeline", "--out", str(tmp_path / "pipe"), "--seed", "7"]) == 0
        files = sorted(tree(tmp_path / "pipe").items())
        listing = "".join(f"{hashlib.sha256(data).hexdigest()}  ./{path}\n" for path, data in files)
        assert len(files) == 16
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "89b10c2d832cccc03a0975f887d3ea0a2a635dc1f40041dd2c184c386113c2ef")

    def test_pipeline_stage_error_keeps_its_exit_code(self, tmp_path, capsys):
        assert run(["pipeline", "--out", str(tmp_path / "p"), "--epsilon0", "-1"]) == 1
        assert capsys.readouterr().err == "error: epsilon must be positive\n"

    @pytest.mark.parametrize("base", ["absolute", "relative"])
    def test_pipeline_relative_out_under_env(self, tmp_path, monkeypatch, base):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("FEDLMM_OUT_DIR", str(work / "base") if base == "absolute" else "base")
        assert run(["pipeline", "--out", "rel"]) == 0
        monkeypatch.delenv("FEDLMM_OUT_DIR")
        assert run(["pipeline", "--out", str(tmp_path / "abs")]) == 0
        assert tree(work / "base" / "rel") == tree(tmp_path / "abs")

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDLMM_OUT_DIR", str(tmp_path))
        bundle = write_bundle_csv(tmp_path / "bundle.csv")
        rc = run(["summarize", "--csv", str(bundle), "--outcome", "y",
                  "--covariates", "x1,x2,x3", "--site-col", "site", "--out", "rel_sums"])
        assert rc == 0
        assert (tmp_path / "rel_sums" / "clinic0.json").exists()


def test_cli_import_leaves_out_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(fedlmm.__file__).parents[1]))
    modules = ("scipy.stats", "scipy.optimize", "scipy.special")
    code = f"import sys, fedlmm.cli; print([m in sys.modules for m in {modules!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False, False]"
