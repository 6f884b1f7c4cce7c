import csv
import json
import os
import threading

import numpy as np
import pytest

from fedlmm import load_summary
from fedlmm.cli import _read_csv_columns, end_to_end, main, write_bundle_csv
from fedlmm.summaries import SiteData, compute_summary

from oracles import dense_gls_beta


def run(args):
    return main(args)


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


class TestPrivatizeCommand:
    def test_deterministic_bytes(self, tmp_path, summary_files):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(target),
                      "--epsilon0", "4", "--delta", "0.01", "--seed", "33"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_subset_needs_sensitive(self, tmp_path, summary_files, capsys):
        rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(tmp_path / "x.json"),
                  "--epsilon0", "4", "--delta", "0.01", "--scope", "subset"])
        assert rc == 1
        assert "--sensitive" in capsys.readouterr().err

    def test_full_scope_ignores_sensitive(self, tmp_path, summary_files):
        outputs = []
        for extra in ([], ["--sensitive", "9"]):
            target = tmp_path / f"dp{len(extra)}.json"
            rc = run(["privatize", "--in", str(summary_files[0]), "--out", str(target),
                      "--epsilon0", "4", "--delta", "0.01", "--scope", "full", *extra])
            assert rc == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("command, level", [
        ("attack", "abc"), ("simulate-reconstruction", "ref,abc"),
    ])
    def test_bad_epsilon0_exits_1(self, tmp_path, capsys, command, level):
        out = tmp_path / "rates.csv"
        rc = run([command, "--n", "3", "--p", "3", "--epsilon0", level, "--reps", "2",
                  "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abc'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("n, p", [("2,0", "2"), ("2", "2,0")])
    def test_reconstruction_empty_design_exits_1(self, tmp_path, capsys, n, p):
        rc = run(["simulate-reconstruction", "--n", n, "--p", p, "--epsilon0", "ref",
                  "--reps", "2", "--out", str(tmp_path / "rates.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestEndToEnd:
    def test_byte_identical_artifacts(self, tmp_path):
        a = end_to_end(tmp_path / "run_a", seed=7)
        b = end_to_end(tmp_path / "run_b", seed=7)
        for key in ("fit_dp", "fit_plain", "attack"):
            assert (a[key]).read_bytes() == (b[key]).read_bytes()
        for fa, fb in zip(a["private"], b["private"]):
            assert open(fa, "rb").read() == open(fb, "rb").read()

    def test_weak_noise_pipeline_close_to_plain(self, tmp_path):
        artifacts = end_to_end(tmp_path / "weak", seed=7, epsilon0=20.0)
        dp = json.loads(artifacts["fit_dp"].read_text())
        plain = json.loads(artifacts["fit_plain"].read_text())
        diff = np.linalg.norm(np.array(dp["fit"]["beta"]) - np.array(plain["fit"]["beta"]))
        assert diff < 0.05

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDLMM_OUT_DIR", str(tmp_path))
        bundle = write_bundle_csv(tmp_path / "bundle.csv")
        rc = run(["summarize", "--csv", str(bundle), "--outcome", "y",
                  "--covariates", "x1,x2,x3", "--site-col", "site", "--out", "rel_sums"])
        assert rc == 0
        assert (tmp_path / "rel_sums" / "clinic0.json").exists()
