"""Command-line surface: outputs, exit codes, manifests, reproducibility."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from json_strategies import bkt_objects, json_values, near_objects, networks

from bktirt import BktParams, IsingNetwork, RngKey, bkt_to_irt, forward_filter, simulate_field
from bktirt.cli import _COMMANDS, build_parser, dispatch


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(BktParams(0.2, 0.3, 0.1, 0.1, 0.2).to_json())
    return path


def _panel_csv(tmp_path):
    path = tmp_path / "panel.csv"
    lines = ["person_id,item_id,skill_id,attempt,correct"]
    rng = np.random.default_rng(23)
    for person in range(30):
        for attempt in range(1, 11):
            lines.append(f"{person},0,7,{attempt},{int(rng.random() < 0.6)}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestStationary:
    def test_prints_closed_form(self, capsys):
        assert dispatch(["stationary", "--p-learn", "0.3", "--p-forget", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda0"] == pytest.approx(0.25, abs=1e-12)
        assert payload["lambda1"] == pytest.approx(0.75, abs=1e-12)

    def test_reducible_exits_one_with_coded_message(self, capsys):
        code = dispatch(["stationary", "--p-learn", "0", "--p-forget", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("Reducible:")

    def test_out_of_range_exits_one(self, capsys):
        code = dispatch(["stationary", "--p-learn", "1.5", "--p-forget", "0.1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("OutOfRange:")

    def test_periodic_flagged(self, capsys):
        assert dispatch(["stationary", "--p-learn", "1", "--p-forget", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["periodic"] is True

    def test_negative_zero_prints_as_zero(self, capsys):
        assert dispatch(["stationary", "--p-learn", "-0.0", "--p-forget", "0.5"]) == 0
        assert capsys.readouterr().out == '{"lambda0":1.0,"lambda1":0.0}\n'


class TestArgumentErrors:
    def test_unknown_flag_exits_two(self, capsys):
        assert dispatch(["stationary", "--nope", "1"]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, err",
        [(["--nope"], "unrecognized arguments: --nope"),
         (["--nope=3", "-x"], "unrecognized arguments: --nope=3 -x"),
         ([], "the following arguments are required: command"),
         (["--"], "the following arguments are required: command"),
         (["--nope", "stationary", "--p-learn", "0.3", "--p-forget", "0.1"],
          "unrecognized arguments: --nope")],
        ids=["option", "two-options", "bare", "separator", "option-then-command"],
    )
    def test_an_unknown_option_without_a_command_is_named(self, capsys, argv, err):
        # Without a command, an unknown option used to be reported as the
        # missing command; a bare call still is.
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"bktirt: error: {err}\n"

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code = dispatch(
            ["filter", "--params", str(tmp_path / "absent.json"), "--responses", "1"]
        )
        assert code == 2
        assert "io_error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, data, code, err",
        [
            ("--params", b'{"p_init": 0.2,', 2, "io_error:"),
            ("--params", b'{"p_init": \xff}', 2, "io_error:"),
            ("--net", b'{"n": 2', 2, "io_error:"),
            ("--net", b"\xff", 2, "io_error:"),
            # json reads these, then int() refuses the 5,000-digit literal
            # with a bare ValueError.
            ("--params", b'{"p_init": ' + b"1" * 5000 + b"}", 1, "OutOfRange: unreadable JSON"),
            ("--net", b'{"n": ' + b"1" * 5000 + b"}", 1, "OutOfRange: unreadable JSON"),
        ],
        ids=["params-truncated", "params-not-utf8", "net-truncated", "net-not-utf8",
             "params-long-int", "net-long-int"],
    )
    def test_unreadable_json_file_exits_with_one_line(
        self, tmp_path, capsys, flag, data, code, err
    ):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        argv = (["filter", "--params", str(path), "--responses", "1"] if flag == "--params"
                else ["ising", "--net", str(path), "--out", str(tmp_path / "f.csv")])
        assert dispatch(argv) == code
        stderr = capsys.readouterr().err
        assert stderr.startswith(err) and len(stderr.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("flag", ["--params", "--init", "--net"])
    def test_deeply_nested_json_exits_with_one_line(self, tmp_path, capsys, flag):
        # json decodes each bracket one recursion level deeper, past the limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        panel = _panel_csv(tmp_path)
        argv = {
            "--params": ["filter", "--params", str(path), "--responses", "1"],
            "--init": ["fit-bkt", "--panel", str(panel), "--skill", "7",
                       "--init", str(path), "--out", str(tmp_path / "fit.json")],
            "--net": ["ising", "--net", str(path), "--out", str(tmp_path / "f.csv")],
        }[flag]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == "OutOfRange: JSON nested too deeply\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json", "panel.csv"]

    def test_other_value_errors_escape_as_bugs(self, monkeypatch):
        # Only a DomainError is a rejected input; a bare ValueError from the
        # code or numpy is a fault, not an io_error.
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("bktirt.cli.stationary_closed_form", broken)
        with pytest.raises(ValueError, match="broadcast"):
            dispatch(["stationary", "--p-learn", "0.3"])

    def test_malformed_responses_exit_two(self, capsys, params_file):
        code = dispatch(
            ["filter", "--params", str(params_file), "--responses", "1,x,0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--seed", ["experiment", "--seed", "-5", "--out", "e.csv"]),
            ("--iters", ["experiment", "--iters", "2,x", "--out", "e.csv"]),
            ("--responses", ["filter", "--params", "p.json", "--responses", "1,x"]),
            ("--steps", ["simulate", "--p-learn", "0.3", "--steps", "0", "--out", "s.csv"]),
            ("--points", ["irf", "--points", "-1", "--out", "c.csv"]),
            ("--points", ["irf", "--points", "0", "--out", "c.csv"]),
            ("--bin-width", ["experiment", "--bin-width", "inf", "--out", "e.csv"]),
            ("--bin-width", ["experiment", "--bin-width", "nan", "--out", "e.csv"]),
            ("--bin-width", ["experiment", "--bin-width", "-0.5", "--out", "e.csv"]),
            ("--a", ["irf", "--a", "inf", "--out", "c.csv"]),
            ("--b", ["irf", "--b", "inf", "--out", "c.csv"]),
            ("--theta-min", ["irf", "--theta-min", "nan", "--out", "c.csv"]),
            ("--theta-max", ["irf", "--theta-max", "1e400", "--out", "c.csv"]),
            ("--min-count", ["experiment", "--desk", "--min-count", "-5", "--out", "e.csv"]),
            ("--min-count", ["experiment", "--desk", "--min-count", "0", "--out", "e.csv"]),
            ("--responses", ["filter", "--params", "p.json", "--responses", ""]),
            ("--people", ["experiment", "--people", "-3", "--items", "2", "--out", "e.csv"]),
            ("--items", ["experiment", "--items", "0", "--out", "e.csv"]),
            ("--reps", ["experiment", "--reps", "2.5", "--out", "e.csv"]),
            ("--steps", ["simulate", "--p-learn", "0.2", "--steps", "99999999999999999999",
                         "--out", "s.csv"]),
            ("--points", ["irf", "--points", "99999999999", "--out", "c.csv"]),
            ("--iters", ["experiment", "--desk", "--iters", "2,,5", "--out", "e.csv"]),
        ],
    )
    def test_malformed_flag_value_names_the_flag(
        self, capsys, tmp_path, monkeypatch, flag, argv
    ):
        monkeypatch.chdir(tmp_path)
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and len(err.splitlines()) == 1
        assert "io_error" not in err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = dispatch(
            [
                "simulate", "--p-init", "0.2", "--p-learn", "0.3", "--p-forget", "0.1",
                "--p-slip", "0.1", "--p-guess", "0.2", "--steps", "25",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "t,latent,emitted"
        assert len(lines) == 27
        manifest = json.loads((tmp_path / "traj.manifest.json").read_text())
        assert manifest["seeds"] == [5]
        assert manifest["outputs"][0]["path"] == str(out)
        assert len(manifest["outputs"][0]["sha256"]) == 64

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "simulate", "--p-learn", "0.3", "--p-forget", "0.1", "--p-slip", "0.1",
            "--steps", "200", "--seed", "42",
        ]
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(argv + ["--out", str(one)]) == 0
        assert dispatch(argv + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_auto_seed_is_recorded_and_reproduces_the_run(self, tmp_path):
        argv = ["simulate", "--p-learn", "0.3", "--p-forget", "0.1", "--p-slip", "0.1",
                "--steps", "200"]
        auto, again = tmp_path / "auto.csv", tmp_path / "again.csv"
        assert dispatch(argv + ["--seed", "auto", "--out", str(auto)]) == 0
        (seed,) = json.loads((tmp_path / "auto.manifest.json").read_text())["seeds"]
        assert type(seed) is int and 0 <= seed < 2**63
        assert dispatch(argv + ["--seed", str(seed), "--out", str(again)]) == 0
        assert again.read_bytes() == auto.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--p-learn", "0.3", "--p-forget", "0.1", "--p-slip", "0.1",
         "--p-guess", "0.2", "--steps", "40", "--seed", "8"],
        ["irf", "--a", "1.3", "--b", "0.2", "--c", "0.1", "--d", "0.9", "--points", "9"],
    ],
    ids=["simulate", "irf"],
)
def test_stdout_is_the_out_file_without_its_format_line(tmp_path, capsys, argv):
    assert dispatch(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert dispatch(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert lines[0] == "# format_version=1\n"
    assert "".join(lines[1:]) == printed
    assert "np." not in printed


class TestFilterCommand:
    def test_matches_library_filter(self, capsys, params_file):
        assert dispatch(
            ["filter", "--params", str(params_file), "--responses", "1,0,1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        want = forward_filter(BktParams(0.2, 0.3, 0.1, 0.1, 0.2), [1, 0, 1])
        assert payload["log_likelihood"] == pytest.approx(want.log_likelihood)
        np.testing.assert_allclose(payload["posterior"], want.posterior)

    def test_non_binary_response_exits_one(self, capsys, params_file):
        code = dispatch(["filter", "--params", str(params_file), "--responses", "1,0,5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("OutOfRange:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("responses", ["1,0,,1", "1,", ",1"])
    def test_empty_response_exits_two(self, capsys, tmp_path, params_file, responses):
        # Skipped, the empty token of 1,0,,1 would report its fourth attempt
        # as the third.
        out = tmp_path / "filter.json"
        argv = ["filter", "--params", str(params_file), "--responses", responses,
                "--out", str(out)]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "bktirt filter: error: argument --responses: expected comma-separated "
            f"responses, none empty, got {responses!r}\n"
        )
        assert not out.exists()

    def test_zero_likelihood_exits_one(self, capsys, tmp_path):
        path = tmp_path / "noguess.json"
        path.write_text(BktParams(0.0, 0.3, 0.0, 0.1, 0.0).to_json())
        code = dispatch(["filter", "--params", str(path), "--responses", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("ZeroLikelihood:")


class TestFitCommand:
    def test_fit_writes_report(self, tmp_path, capsys):
        panel = _panel_csv(tmp_path)
        out = tmp_path / "report.json"
        code = dispatch(
            ["fit-bkt", "--panel", str(panel), "--skill", "7", "--classic",
             "--identified", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["params"]["p_forget"] == 0.0
        assert payload["constraint_set"] == ["classic", "identified"]
        trace = payload["loglik_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert (tmp_path / "report.manifest.json").exists()

    def test_init_file_sets_the_starting_point(self, tmp_path):
        panel = _panel_csv(tmp_path)
        init = tmp_path / "init.json"
        init.write_text(BktParams(0.6, 0.05, 0.3, 0.2, 0.3).to_json())
        argv = ["fit-bkt", "--panel", str(panel), "--skill", "7", "--max-iters", "2"]
        assert dispatch(argv + ["--out", str(tmp_path / "default.json")]) == 0
        assert dispatch(argv + ["--init", str(init), "--out", str(tmp_path / "own.json")]) == 0
        default = json.loads((tmp_path / "default.json").read_text())
        own = json.loads((tmp_path / "own.json").read_text())
        assert own["params"] != default["params"]
        assert own["loglik_trace"][0] != default["loglik_trace"][0]

    def test_overflowing_e_step_stops_degenerate_without_warnings(self, tmp_path, capsys):
        # Certain mastery without forgetting, then errors: the unmastered
        # state's backward messages overflow, so no M-step may use them.
        panel = tmp_path / "panel.csv"
        correct = [1] * 1000 + [0] * 400
        panel.write_text("person_id,item_id,skill_id,attempt,correct\n" + "".join(
            f"0,0,0,{t},{x}\n" for t, x in enumerate(correct, start=1)
        ))
        init = tmp_path / "init.json"
        init.write_text('{"p_init":0.5,"p_learn":0.1,"p_forget":0,"p_slip":0.01,"p_guess":0.01}')
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["fit-bkt", "--panel", str(panel), "--skill", "0", "--classic",
                             "--init", str(init), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["stop_reason"] == "degenerate" and not report["converged"]
        assert "not finite" in report["degenerate_cause"]
        assert all(math.isfinite(value) for value in report["params"].values())
        assert all(math.isfinite(value) for value in report["loglik_trace"])

    def test_malformed_init_file_exits_one(self, tmp_path, capsys):
        panel = _panel_csv(tmp_path)
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"p_init": 0.3, "p_learn": 1.5, "p_forget": 0.1,
                                    "p_slip": 0.1, "p_guess": 0.1}))
        out = tmp_path / "report.json"
        code = dispatch(["fit-bkt", "--panel", str(panel), "--skill", "7",
                         "--init", str(init), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("OutOfRange: p_learn") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_unknown_skill_exits_one(self, tmp_path, capsys):
        panel = _panel_csv(tmp_path)
        code = dispatch(["fit-bkt", "--panel", str(panel), "--skill", "99"])
        assert code == 1
        assert capsys.readouterr().err.startswith("UnknownSkill:")

    @pytest.mark.parametrize("row", ["0,0,7,1", "0,0,7,1,1,9"])
    def test_row_with_wrong_column_count_exits_one(self, tmp_path, capsys, row):
        panel = tmp_path / "short.csv"
        panel.write_text(
            "person_id,item_id,skill_id,attempt,correct\n0,0,7,1,1\n" + row + "\n"
        )
        assert dispatch(["fit-bkt", "--panel", str(panel), "--skill", "7"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("InvalidPanel: line 3:")
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize(
        "flag, value",
        [("--max-iters", "-3"), ("--max-iters", "0"), ("--tol", "nan"),
         ("--tol", "inf"), ("--tol", "-1e-6")],
    )
    def test_invalid_em_flag_exits_two_naming_it(self, tmp_path, capsys, flag, value):
        panel = _panel_csv(tmp_path)
        out = tmp_path / "report.json"
        code = dispatch(["fit-bkt", "--panel", str(panel), "--skill", "7",
                         f"{flag}={value}", "--out", str(out)])
        assert code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_reports_phases_and_work(self, tmp_path):
        # Skill 7: persons 0, 1, 2 with 3, 1 and 2 attempts; skill 8 is
        # another person's, so records (8) and responses (6) differ.
        panel = tmp_path / "panel.csv"
        rows = [(2, 7, 1, 1), (0, 7, 1, 0), (0, 7, 3, 1), (1, 7, 1, 1),
                (0, 7, 2, 1), (2, 7, 2, 0), (5, 8, 1, 1), (5, 8, 2, 0)]
        panel.write_text("person_id,item_id,skill_id,attempt,correct\n" + "".join(
            f"{person},0,{skill},{attempt},{correct}\n"
            for person, skill, attempt, correct in rows
        ))
        out = tmp_path / "report.json"
        assert dispatch(["fit-bkt", "--panel", str(panel), "--skill", "7",
                         "--max-iters", "4", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["work"] == {
            "records": 8, "sequences": 3, "responses": 6,
            "em_iterations": report["iterations"], "cut_segments": 0,
        }
        assert set(manifest["phases"]) == {"load_s", "fit_s", "write_s"}
        assert all(value >= 0.0 for value in manifest["phases"].values())
        assert report["stop_reason"] in ("tolerance", "iteration_cap", "degenerate")

    def test_manifest_counts_cut_segments(self, tmp_path):
        # One 400-attempt sequence is cut into segments of 20 attempts: its
        # first segment and 19 later ones. A 3-attempt sequence runs whole.
        rng = np.random.default_rng(9)
        panel = tmp_path / "panel.csv"
        panel.write_text("person_id,item_id,skill_id,attempt,correct\n" + "".join(
            f"{person},0,0,{attempt},{rng.integers(0, 2)}\n"
            for person, length in ((0, 400), (1, 3))
            for attempt in range(1, length + 1)
        ))
        out = tmp_path / "report.json"
        assert dispatch(["fit-bkt", "--panel", str(panel), "--skill", "0",
                         "--max-iters", "2", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["work"]["cut_segments"] == 19

    def test_skill_block_is_derived_once(self, tmp_path, monkeypatch):
        # The manifest's counters come from the fit's own block, not from
        # a second pass over the panel.
        from bktirt import ResponsePanel

        calls = []
        original = ResponsePanel.skill_block

        def counting(panel, skill_id):
            calls.append(skill_id)
            return original(panel, skill_id)

        monkeypatch.setattr(ResponsePanel, "skill_block", counting)
        out = tmp_path / "report.json"
        assert dispatch(["fit-bkt", "--panel", str(_panel_csv(tmp_path)), "--skill", "7",
                         "--max-iters", "3", "--out", str(out)]) == 0
        assert calls == [7]

    def test_fit_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 12,000 responses: BLAS splits a dot product over 10,000 elements
        # by its thread count, so no E-step sum may go through it.
        rng = np.random.default_rng(10)
        panel = tmp_path / "panel.csv"
        panel.write_text(_HEADER + "".join(
            f"{person},0,0,{attempt},{int(rng.random() < 0.3 + attempt / 50)}\n"
            for person in range(400)
            for attempt in range(1, 31)
        ))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"report{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "bktirt.cli", "fit-bkt", "--panel", str(panel),
                 "--skill", "0", "--max-iters", "20", "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


_HEADER = "person_id,item_id,skill_id,attempt,correct\n"
_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")


def _first_bad_line(text: str) -> int | None:
    """Line number of the first row that is neither empty nor five unquoted
    base-10 integers within int64 (line 1 is the header)."""
    for number, line in enumerate(re.split(r"\r\n|\r|\n", text)[1:], start=2):
        fields = line.split(",")
        if line and not (len(fields) == 5 and all(
            _INT_FIELD.fullmatch(f) and -(2**63) <= int(f) < 2**63 for f in fields
        )):
            return number
    return None


def _run_fit(data: bytes, tmp: str) -> tuple[int, str]:
    path = os.path.join(tmp, "panel.csv")
    with open(path, "wb") as handle:
        handle.write(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(["fit-bkt", "--panel", path, "--skill", "7", "--max-iters", "5"])
    return code, err.getvalue()


_TOKENS = ["0", "1", "2", "7", "-1", " 1", "1 ", "\t1", "+1", '"1"', "1_0", "3.0",
           "", " ", "#1", "0x1", "1e3", "9223372036854775807", "-9223372036854775808",
           "9223372036854775808", "99999999999999999999"]


@st.composite
def _panel_bytes(draw):
    """A valid skill-7 panel, then up to three edits: a field replaced by a
    token, a field dropped or added, or an empty line inserted."""
    rows = [
        [str(person), "0", "7", str(attempt), draw(st.sampled_from(["0", "1"]))]
        for person in range(draw(st.integers(0, 3)))
        for attempt in range(1, draw(st.integers(1, 3)) + 1)
    ]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["token", "drop", "add", "empty"]))
        if edit == "empty" or k == len(rows):
            rows.insert(k, [])
        elif edit == "token" and rows[k]:
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(st.sampled_from(_TOKENS))
        elif edit == "drop" and rows[k]:
            del rows[k][-1]
        else:
            rows[k].append(draw(st.sampled_from(_TOKENS)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [_HEADER.rstrip("\n")] + [",".join(row) for row in rows]
    return "".join(line + ending for line in lines).encode()


class TestMalformedPanelFiles:
    BODY = "0,0,7,1,1\n0,3,7,2,0\n1,2,7,1,1\n"

    @pytest.mark.parametrize(
        "data, code, err",
        [
            (_HEADER + "0,0,7,1,1\n0,0,7,1\n", 1, "InvalidPanel: line 3:"),
            (_HEADER + "0,0,7,1,1,0\n", 1, "InvalidPanel: line 2:"),
            (_HEADER + "0,0,7,1,1\n\n\n0,3,7,2,0\n", 0, ""),
            ((_HEADER + BODY).replace("\n", "\r\n"), 0, ""),
            (_HEADER + BODY.replace(",", " , "), 0, ""),
            (_HEADER, 1, "UnknownSkill:"),
            ("", 1, "InvalidPanel: expected header"),
            (_HEADER + '"0",0,7,1,1\n', 1, "InvalidPanel: line 2:"),
            (_HEADER + BODY + "1_0,0,7,1,1\n", 1, "InvalidPanel: line 5:"),
            (_HEADER + "3.0,0,7,1,1\n", 1, "InvalidPanel: line 2:"),
            (_HEADER + "99999999999999999999,0,7,1,1\n", 1, "InvalidPanel: line 2:"),
            (_HEADER + "9223372036854775807,0,7,1,1\n", 0, ""),
            (_HEADER + "0,0,7,1,1\n   \n", 1, "InvalidPanel: line 3:"),
            (_HEADER + "# note\n0,0,7,1,1\n", 1, "InvalidPanel: line 2:"),
            (_HEADER + "0,0,7,1,1\n0,0,7,1,0\n", 1, "InvalidPanel: duplicate"),
            (_HEADER.encode() + b"0,0,7,1,\xff\n", 2, "io_error:"),
        ],
        ids=["four-columns", "six-columns", "blank-lines", "crlf", "padded",
             "header-only", "empty-file", "quoted", "underscore", "float",
             "beyond-int64", "int64-max", "whitespace-line", "comment",
             "duplicate", "not-utf8"],
    )
    def test_exit_code_and_single_line(self, tmp_path, data, code, err):
        data = data if isinstance(data, bytes) else data.encode()
        got, stderr = _run_fit(data, str(tmp_path))
        assert got == code
        assert stderr.startswith(err)
        assert len(stderr.splitlines()) == (1 if code else 0)

    @settings(max_examples=150, deadline=None)
    @given(_panel_bytes())
    def test_fuzzed_panels_end_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            code, stderr = _run_fit(data, tmp)
        assert code in (0, 1)
        assert len(stderr.splitlines()) == (1 if code else 0)
        bad = _first_bad_line(data.decode())
        event(f"exit {code}, {'bad line' if bad else 'rows parse'}")
        if bad is not None:
            assert stderr.startswith(f"InvalidPanel: line {bad}:")
        else:
            assert not stderr.startswith("InvalidPanel: line")


def _run_on_json(argv: list[str], raw) -> tuple[int, str, list[str]]:
    """Dispatch ``argv`` with ``raw`` written as its JSON input file and an
    --out file beside it, in process; the exit code, stderr and the files
    the run leaves besides the input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = dispatch([*argv, path, "--out", os.path.join(tmp, "out")])
        return code, err.getvalue(), sorted(set(os.listdir(tmp)) - {"in.json"})


class TestJsonFilesFuzzed:
    """The commands that read a JSON file end cleanly, whatever it holds:
    exit 0, or exit 1 or 2 with one stderr line and no file written. A fault
    would end in an exception out of dispatch."""

    @staticmethod
    def _check(code: int, stderr: str, written: list[str]) -> None:
        assert code in (0, 1, 2)
        event(f"exit {code}")
        assert len(stderr.splitlines()) == (1 if code else 0), stderr
        assert "Traceback" not in stderr
        if code:
            assert written == []

    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(json_values | networks())
    def test_ising_net(self, raw):
        self._check(*_run_on_json(["ising", "--sweeps", "10", "--exact", "--net"], raw))

    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(json_values | near_objects(bkt_objects))
    def test_bridge_params(self, raw):
        self._check(*_run_on_json(["bridge", "--params"], raw))


# Each command with a numeric flag at a tiny size, reading its input files
# from {inputs} and writing its --out file under {out}.
_TINY = {
    "stationary": ["--p-learn", "0.3", "--p-forget", "0.1"],
    "simulate": ["--p-learn", "0.3", "--steps", "5", "--out", "{out}/s.csv"],
    "filter": ["--params", "{inputs}/params.json", "--responses", "1,0",
               "--out", "{out}/post.json"],
    "fit-bkt": ["--panel", "{inputs}/panel.csv", "--skill", "7", "--max-iters", "5",
                "--out", "{out}/fit.json"],
    "experiment": ["--people", "2", "--items", "2", "--reps", "2", "--iters", "2",
                   "--min-count", "1", "--out", "{out}/e.csv"],
    "irf": ["--points", "5", "--out", "{out}/c.csv"],
    "ising": ["--net", "{inputs}/net.json", "--sweeps", "20", "--out", "{out}/f.csv"],
}


def _tiny(command: str, inputs, out, values: dict[str, str]) -> list[str]:
    """The tiny command line of ``command`` with each flag in ``values`` set
    to its value: replaced where the line has the flag, else appended."""
    argv = [command, *(arg.format(inputs=inputs, out=out) for arg in _TINY[command])]
    for flag, value in values.items():
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


def _typed_flags() -> dict[str, list[str]]:
    """Each command's options that convert their value (argparse ``type=``),
    read from the parser, so a flag added later is fuzzed too."""
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {
        name: [action.option_strings[0] for action in sub._actions
               if action.option_strings and action.type is not None]
        for name, sub in commands.items()
    }


_TYPED_FLAGS = _typed_flags()


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """The input files of the tiny command lines, written once."""
    path = tmp_path_factory.mktemp("inputs")
    (path / "params.json").write_text(BktParams(0.2, 0.3, 0.1, 0.1, 0.2).to_json())
    _panel_csv(path)
    _ising_net(path)
    return path


def test_every_command_with_a_numeric_flag_has_a_tiny_line():
    assert list(_TYPED_FLAGS) == list(_COMMANDS)
    assert list(_TINY) == [command for command, flags in _TYPED_FLAGS.items() if flags]
    # The flags this fuzz covered while their list was kept by hand: the
    # list read from the parser holds every one of them.
    hand_kept = {
        "stationary": ["--p-learn", "--p-forget"],
        "simulate": ["--p-init", "--p-learn", "--p-forget", "--p-slip", "--p-guess", "--steps",
                     "--seed"],
        "irf": ["--a", "--b", "--c", "--d", "--theta-min", "--theta-max", "--points"],
        "experiment": ["--people", "--items", "--reps", "--iters", "--slip", "--guess", "--seed",
                       "--bin-width", "--min-count"],
        "fit-bkt": ["--skill", "--tol", "--max-iters"],
        "ising": ["--sweeps", "--burn-in", "--seed"],
        "filter": ["--responses"],
    }
    for command, flags in hand_kept.items():
        assert [flag for flag in flags if flag not in _TYPED_FLAGS[command]] == [], command


class TestNumericFlagsFuzzed:
    """Every numeric flag value ends cleanly: not-a-number, infinities, a
    signed zero, a subnormal, the largest magnitudes, a 30-digit integer,
    hex and the empty string each exit 0, or exit 1 or 2 with one stderr
    line and no file written. A fault would end in an exception out of
    dispatch."""

    VALUES = ["nan", "inf", "-inf", "-0", "1e-320", "1e308", "-1e308", "9" * 30, "0x10", ""]

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in _TYPED_FLAGS.items() for flag in flags],
    )
    def test_value(self, tmp_path, capsys, tiny_inputs, command, flag):
        out = tmp_path / "out"
        for value in self.VALUES:
            argv = _tiny(command, tiny_inputs, out, {flag: value})
            out.mkdir()
            code = dispatch(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            assert len(err.splitlines()) == (1 if code else 0), (argv, err)
            assert "Traceback" not in err
            if code:
                assert list(out.iterdir()) == [], argv
            shutil.rmtree(out)

    PAIR_VALUES = ["-1e308", "1e308", "-0", "1e-320", "0", "1", "3"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_two_flags_at_once(self, tiny_inputs, data):
        # Two typed flags of one command set together, as the irf span
        # needed both ends; any warning is an error.
        command = data.draw(st.sampled_from(
            [command for command, flags in _TYPED_FLAGS.items() if len(flags) > 1]))
        flags = data.draw(st.lists(st.sampled_from(_TYPED_FLAGS[command]), min_size=2,
                                   max_size=2, unique=True))
        values = data.draw(st.lists(st.sampled_from(self.PAIR_VALUES), min_size=2, max_size=2))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out:
            argv = _tiny(command, tiny_inputs, out, dict(zip(flags, values)))
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = dispatch(argv)
            written = os.listdir(out)
        event(f"exit {code}")
        assert code in (0, 1, 2), argv
        assert len(err.getvalue().splitlines()) == (1 if code else 0), (argv, err.getvalue())
        if code:
            assert written == [], argv

    EXTREMES = ["-1e308", "1e308", "-0", "1e-320"]

    @pytest.mark.parametrize("low", EXTREMES)
    @pytest.mark.parametrize("high", EXTREMES)
    def test_both_ends_of_the_irf_grid(self, tmp_path, capsys, low, high):
        # Each end alone is a finite grid end; together their span can
        # overflow, and then irf exits 1 without a warning or a file.
        argv = ["irf", "--points", "5", "--theta-min", low, "--theta-max", high,
                "--out", str(tmp_path / "c.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == (1 if {low, high} == {"-1e308", "1e308"} else 0), argv
        assert len(err.splitlines()) == (1 if code else 0), (argv, err)
        assert ("c.csv" in os.listdir(tmp_path)) is (code == 0)


class TestBridgeCommand:
    def test_matches_library_map(self, capsys, params_file):
        assert dispatch(["bridge", "--params", str(params_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = bkt_to_irt(BktParams(0.2, 0.3, 0.1, 0.1, 0.2))
        assert payload["theta"] == pytest.approx(want.theta)
        assert payload["p_correct"] == pytest.approx(want.p_correct)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("5", "JSON object"),
            ('["p_init"]', "JSON object"),
            ('{"p_init": 0.2, "p_learn": 0.3, "p_forget": 0.1, "p_slip": 0.1, '
             '"p_guess": 0.2, "p_extra": 0.5}', "p_extra"),
            ('{"p_init": true, "p_learn": 0.3, "p_forget": 0.1, "p_slip": 0.1, '
             '"p_guess": 0.2}', "p_init"),
            ('{"p_init": 0.2, "p_learn": "0.2", "p_forget": 0.1, "p_slip": 0.1, '
             '"p_guess": 0.2}', "p_learn"),
            ('{"p_init": 0.2, "p_learn": 0.3}', "p_forget"),
            ('{"p_init": 1' + "0" * 400 + ', "p_learn": 0.3, "p_forget": 0.1, '
             '"p_slip": 0.1, "p_guess": 0.2}', "p_init"),
        ],
        ids=["number", "list", "unknown-key", "bool", "string", "missing-keys",
             "beyond-float-range"],
    )
    def test_malformed_params_exit_one(self, tmp_path, capsys, text, where):
        path = tmp_path / "params.json"
        path.write_text(text)
        out = tmp_path / "eq.json"
        assert dispatch(["bridge", "--params", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("OutOfRange:") and len(err.splitlines()) == 1
        assert where in err
        assert list(tmp_path.iterdir()) == [path]

    def test_integer_probabilities_print_as_floats(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"p_init": 0, "p_learn": 0.5, "p_forget": 0.5, "p_slip": 0, '
                        '"p_guess": 1}')
        assert dispatch(["bridge", "--params", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"c":1.0,"d":1.0,' in out and json.loads(out)["p_correct"] == 1.0

    def test_nonergodic_exits_one(self, capsys, tmp_path):
        path = tmp_path / "absorbing.json"
        path.write_text(BktParams(0.2, 0.3, 0.0, 0.1, 0.2).to_json())
        assert dispatch(["bridge", "--params", str(path)]) == 1
        assert capsys.readouterr().err.startswith("NonErgodic:")

    def test_period_two_chain_exits_one_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "periodic.json"
        path.write_text('{"p_init": 0.5, "p_learn": 1, "p_forget": 1, "p_slip": 0, '
                        '"p_guess": 1}')
        out = tmp_path / "eq.json"
        assert dispatch(["bridge", "--params", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("NonErgodic: p_learn = p_forget = 1") and err.count("\n") == 1
        assert not out.exists()


class TestExperimentCommand:
    def test_writes_curves_summary_manifest_reproducibly(self, tmp_path):
        argv = [
            "experiment", "--people", "20", "--items", "10", "--reps", "15",
            "--iters", "1,3", "--seed", "42", "--min-count", "1",
        ]
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        assert dispatch(argv + ["--out", str(first)]) == 0
        assert dispatch(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        header = first.read_text().splitlines()[1]
        assert header == "bin_center,iterations,prop_correct,n_obs,irf_value"
        summary = json.loads((tmp_path / "one.summary.json").read_text())
        assert set(summary["max_abs_dev"]) == {"1", "3"}
        assert list(summary)[0] == "format_version" and summary["format_version"] == 1

        manifest_one = json.loads((tmp_path / "one.manifest.json").read_text())
        manifest_two = json.loads((tmp_path / "two.manifest.json").read_text())
        digests_one = [entry["sha256"] for entry in manifest_one["outputs"]]
        digests_two = [entry["sha256"] for entry in manifest_two["outputs"]]
        assert digests_one == digests_two

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        argv = ["experiment", "--desk", "--threads", "2", "--out", str(tmp_path / "e.csv")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra", [["--people", "5"], ["--items", "3"], ["--reps", "2", "--people", "4"]]
    )
    def test_desk_with_explicit_size_exits_two(self, tmp_path, capsys, extra):
        argv = ["experiment", "--desk", *extra, "--out", str(tmp_path / "d.csv")]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("bktirt experiment: error: argument --desk: not allowed with")
        assert len(err.splitlines()) == 1
        assert all(flag in err for flag in extra if flag.startswith("--"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("reps", ["99999999999999999999", "9223372036854775807"])
    def test_observation_count_past_the_cap_exits_one(self, tmp_path, capsys, reps):
        # These used to end in an OverflowError traceback and in an int64
        # overflow (a RuntimeWarning, then a wrong exit 2).
        argv = ["experiment", "--reps", reps, "--out", str(tmp_path / "o.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("OutOfRange: n_people * n_items * replications must be <= 2^53")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("width", ["1e-300", "1e-320"])
    def test_bin_grid_past_the_cap_exits_one(self, tmp_path, capsys, width):
        # Below about 4.4e-308, 8 / width overflows to inf, which has no
        # floor.
        argv = ["experiment", "--people", "3", "--items", "2", "--reps", "2",
                "--bin-width", width, "--min-count", "1", "--out", str(tmp_path / "o.csv")]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("OutOfRange: bin_width") and len(err.splitlines()) == 1
        assert "1048576 bins" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "people, items", [("100000", "100000"), ("16777217", "1"), ("1", "16777217")]
    )
    def test_pair_grid_past_the_budget_is_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch, people, items
    ):
        # 10^5 x 10^5 pairs used to end in a traceback for a 74.5 GiB grid.
        def never(*args, **kwargs):
            raise AssertionError("run_equilibrium_experiment ran")

        monkeypatch.setattr("bktirt.cli.run_equilibrium_experiment", never)
        argv = ["experiment", "--people", people, "--items", items, "--reps", "1",
                "--out", str(tmp_path / "o.csv")]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("TooLarge:") and len(err.splitlines()) == 1
        assert f"--people {people} x --items {items}" in err
        assert list(tmp_path.iterdir()) == []

    def test_pair_grid_at_the_budget_reaches_the_simulation(self, tmp_path, monkeypatch):
        def stop(*args, **kwargs):
            raise AssertionError("run_equilibrium_experiment ran")

        monkeypatch.setattr("bktirt.cli.run_equilibrium_experiment", stop)
        argv = ["experiment", "--people", "4096", "--items", "4096", "--reps", "1",
                "--out", str(tmp_path / "o.csv")]
        with pytest.raises(AssertionError, match="run_equilibrium_experiment ran"):
            dispatch(argv)

    def test_empty_iteration_list_exits_one(self, tmp_path, capsys):
        argv = ["experiment", "--desk", "--iters", "", "--out", str(tmp_path / "e.csv")]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("OutOfRange: iteration_counts")
        assert list(tmp_path.iterdir()) == []

    def test_huge_iteration_count_exits_one(self, tmp_path, capsys):
        # 10^400 used to reach the closed-form laws and overflow there.
        for iters in ("1" + "0" * 400, str(2**53 + 1)):
            argv = ["experiment", "--desk", "--iters", iters, "--out", str(tmp_path / "e.csv")]
            assert dispatch(argv) == 1
            assert capsys.readouterr().err == (
                "OutOfRange: iteration_counts entries must be <= 2^53\n"
            )
            assert list(tmp_path.iterdir()) == []

    def test_slip_plus_guess_of_one_is_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        # This used to simulate the whole run and only then fail.
        def never(*args, **kwargs):
            raise AssertionError("run_equilibrium_experiment ran")

        monkeypatch.setattr("bktirt.cli.run_equilibrium_experiment", never)
        argv = ["experiment", "--desk", "--slip", "0.6", "--guess", "0.6",
                "--out", str(tmp_path / "o.csv")]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err == "OutOfRange: asymptotes must satisfy c < d, got c=0.6, d=0.4\n"
        assert list(tmp_path.iterdir()) == []

    def test_rejected_summary_leaves_no_files(self, tmp_path, capsys):
        argv = ["experiment", "--people", "3", "--items", "2", "--reps", "2",
                "--min-count", "100000000", "--out", str(tmp_path / "o.csv")]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("InsufficientData:")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_reports_phases_and_work(self, tmp_path, monkeypatch):
        drawn, created = [], []

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size=None):
                return self.gen.random(size)

            def binomial(self, n, p):
                draws = self.gen.binomial(n, p)
                drawn.append(draws.size)
                return draws

        def counting(key):
            created.append(key)
            return Counting(original(key))

        original = RngKey.generator
        monkeypatch.setattr(RngKey, "generator", counting)
        out = tmp_path / "w.csv"
        argv = ["experiment", "--people", "5", "--items", "4", "--reps", "3",
                "--iters", "1,2", "--min-count", "1", "--out", str(out)]
        assert dispatch(argv) == 0
        manifest = json.loads((tmp_path / "w.manifest.json").read_text())
        assert set(manifest["phases"]) == {"simulate_s", "write_s"}
        assert all(value >= 0.0 for value in manifest["phases"].values())
        assert manifest["work"] == {
            "pairs": 20, "keyed_streams": 5, "binomial_draws": sum(drawn),
        }
        # Stay and gain per pair and checkpoint, slip and guess per CSV row
        # (one per occupied bin and checkpoint).
        rows = len(out.read_text().splitlines()) - 2
        assert sum(drawn) == 2 * 20 * 2 + 2 * rows
        # One pass: the population stream and the four count streams.
        assert len(created) == manifest["work"]["keyed_streams"]
        summary = json.loads((tmp_path / "w.summary.json").read_text())
        assert set(summary["expected_max_abs_dev"]) == {"1", "2"}


class TestIrfCommand:
    def test_curve_samples(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = dispatch(
            ["irf", "--a", "1", "--b", "0", "--c", "0.1", "--d", "0.9",
             "--theta-min", "-2", "--theta-max", "2", "--points", "5",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "theta,p"
        mid = lines[2 + 2].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "flag, value", [("--b", "-1e3"), ("--theta-min", "-1.5e1"), ("--theta-max", "-1e-3")]
    )
    def test_negative_exponent_value_in_either_spelling(self, capsys, flag, value):
        argv = ["irf", "--theta-min", "-20", "--points", "5"]
        parsed = build_parser().parse_args(argv + [flag, value])
        assert getattr(parsed, flag[2:].replace("-", "_")) == float(value)
        assert dispatch(argv + [flag, value]) == 0
        separate = capsys.readouterr().out
        assert dispatch(argv + [f"{flag}={value}"]) == 0
        assert capsys.readouterr().out == separate

    def test_points_capped_at_two_million(self, capsys):
        assert build_parser().parse_args(["irf", "--points", "2000000"]).points == 2_000_000
        assert dispatch(["irf", "--points", "2000001"]) == 2
        assert "argument --points: expected an integer from 1 to 2000000" in (
            capsys.readouterr().err
        )

    def test_invalid_item_exits_one(self, capsys):
        assert dispatch(["irf", "--c", "0.9", "--d", "0.1"]) == 1
        assert capsys.readouterr().err.startswith("OutOfRange:")

    def test_overflowing_slope_gives_the_asymptotes_without_warnings(self, capsys):
        # a * theta overflows to +-inf, whose logistic is exactly 0 or 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["irf", "--a", "1e308", "--b", "0", "--points", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-3:] == ["-8.0,0.0", "0.0,0.5", "8.0,1.0"]

    def test_a_span_beyond_the_float_range_exits_one(self, tmp_path, capsys):
        # theta_max - theta_min overflows: the grid would hold nan and inf.
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["irf", "--points", "3", "--theta-min", "-1e308",
                             "--theta-max", "1e308", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "OutOfRange: --theta-max 1e+308 minus --theta-min -1e+308 overflows a float\n"
        )
        assert list(tmp_path.iterdir()) == []


def _ising_net(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": 2, "couplings": [[0, 1, 0.5]],
                                "fields": [0.2, -0.1]}))
    return path


class TestIsingCommand:
    def test_state_frequency_csv_with_exact_column(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "couplings": [[0, 1, math.log(2)]],
                    "fields": [0.0, 0.0],
                    "emissions": [[0.1, 0.1], [0.1, 0.1]],
                }
            )
        )
        out = tmp_path / "freq.csv"
        code = dispatch(
            ["ising", "--net", str(net_path), "--sweeps", "20000", "--seed", "3",
             "--exact", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "state_index,frequency,exact_prob"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        exact = [float(row[2]) for row in rows]
        np.testing.assert_allclose(exact, [0.2, 0.2, 0.2, 0.4], atol=1e-12)
        freqs = [float(row[1]) for row in rows]
        assert abs(sum(freqs) - 1.0) < 1e-9
        np.testing.assert_allclose(freqs, exact, atol=0.05)

    @pytest.mark.parametrize("exact", [True, False])
    def test_rows_are_the_csv_modules_rows(self, tmp_path, exact):
        # The writer formats each row itself; its bytes are those the csv
        # module writes for the library's values, a block boundary included.
        import csv

        from bktirt import boltzmann_exact, empirical_state_frequencies

        net_path = tmp_path / "net.json"
        net = {"n": 15, "couplings": [[0, 1, 0.7], [3, 14, -1.2]], "fields": [0.3] * 15}
        net_path.write_text(json.dumps(net))
        out = tmp_path / "freq.csv"
        argv = ["ising", "--net", str(net_path), "--sweeps", "200", "--burn-in", "10",
                "--seed", "4", "--out", str(out)]
        assert dispatch(argv + ["--exact"] * exact) == 0
        network = IsingNetwork.from_dict(net)
        freqs = empirical_state_frequencies(simulate_field(network, 200, RngKey(4)), burn_in=10)
        rows = [[idx, repr(float(freq))] for idx, freq in enumerate(freqs)]
        if exact:
            rows = [row + [repr(float(p))] for row, p in zip(rows, boltzmann_exact(network))]
        want = io.StringIO(newline="")
        want.write("# format_version=1\n")
        writer = csv.writer(want, lineterminator="\r\n")
        writer.writerow(["state_index", "frequency"] + ["exact_prob"] * exact)
        writer.writerows(rows)
        assert out.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    def test_manifest_reports_phases_work_and_flip_rate(self, tmp_path, monkeypatch,
                                                         scan):
        drawn = []

        class Counting:
            def __init__(self, gen):
                self.gen = gen

            def random(self, size=None):
                drawn.append(1 if size is None else int(np.prod(size)))
                return self.gen.random(size)

        original = RngKey.generator
        monkeypatch.setattr(RngKey, "generator", lambda key: Counting(original(key)))
        out = tmp_path / "freq.csv"
        code = dispatch(["ising", "--net", str(_ising_net(tmp_path)), "--sweeps", "300",
                         "--scan", scan, "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "freq.manifest.json").read_text())
        assert manifest["work"] == {
            "sweeps": 300, "site_updates": 600, "uniforms_drawn": sum(drawn),
            "rerun_sweeps": manifest["work"]["rerun_sweeps"], "serial_sweeps": 0,
        }
        assert 0 <= manifest["work"]["rerun_sweeps"] < 300
        assert set(manifest["phases"]) == {
            "load_s", "simulate_s", "frequencies_s", "exact_s", "write_s",
        }
        assert all(value >= 0.0 for value in manifest["phases"].values())
        assert 0.0 < manifest["diagnostics"]["flip_rate"] < 1.0

    @pytest.mark.parametrize("scan", ["fixed", "random"])
    @pytest.mark.parametrize("raw", [{"n": 2, "couplings": [[0, 1, 0.5]]}, {"n": 4}],
                             ids=["meets", "never-meets"])
    def test_manifest_counts_the_repair_and_the_per_site_loop(self, tmp_path, raw, scan):
        # Metropolis flips every node of a network with no field and no
        # coupling every sweep, so its blocks never meet their guesses and
        # the per-site loop runs most of the run.
        path = tmp_path / "net.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "freq.csv"
        assert dispatch(["ising", "--net", str(path), "--sweeps", "5000", "--dynamics",
                         "metropolis", "--scan", scan, "--seed", "4", "--out", str(out)]) == 0
        work = json.loads((tmp_path / "freq.manifest.json").read_text())["work"]
        trace = simulate_field(IsingNetwork.from_dict(raw), 5000, RngKey(4),
                               dynamics="metropolis", scan=scan)
        assert trace.work["rerun_sweeps"] == work["rerun_sweeps"] > 0
        assert trace.work["serial_sweeps"] == work["serial_sweeps"]
        assert (work["serial_sweeps"] > 4000) == (raw == {"n": 4})

    @pytest.mark.parametrize("sweeps", [50, 5000])
    def test_thresholds_are_derived_once(self, tmp_path, monkeypatch, sweeps):
        # The manifest's counters come from the sampler's own run, not from
        # rebuilding the threshold tables after it.
        import bktirt.ising as ising_mod

        calls = []
        original = ising_mod._Blocks

        def counting(net, dynamics, scan):
            calls.append(dynamics)
            return original(net, dynamics, scan)

        monkeypatch.setattr(ising_mod, "_Blocks", counting)
        out = tmp_path / "freq.csv"
        assert dispatch(["ising", "--net", str(_ising_net(tmp_path)), "--sweeps",
                         str(sweeps), "--out", str(out)]) == 0
        assert calls == ["glauber"]

    def test_zero_sweeps_exit_two_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "freq.csv"
        code = dispatch(["ising", "--net", str(_ising_net(tmp_path)), "--sweeps", "0",
                         "--out", str(out)])
        assert code == 2
        assert "argument --sweeps: expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_burn_in_exits_two(self, tmp_path, capsys):
        out = tmp_path / "freq.csv"
        code = dispatch(["ising", "--net", str(_ising_net(tmp_path)), "--sweeps", "50",
                         "--burn-in", "-3", "--out", str(out)])
        assert code == 2
        assert "argument --burn-in: expected an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_burn_in_covering_every_sweep_exits_one(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulate_field ran")

        monkeypatch.setattr("bktirt.cli.simulate_field", never)
        out = tmp_path / "freq.csv"
        code = dispatch(["ising", "--net", str(_ising_net(tmp_path)), "--sweeps", "100",
                         "--burn-in", "100", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "InsufficientData: burn-in of 100 sweeps leaves none of 100 to count\n"
        assert not out.exists()
        assert not (tmp_path / "freq.manifest.json").exists()

    @pytest.mark.parametrize(
        "net, where",
        [
            ({"couplings": [[0, 1, 0.5]]}, '"n"'),
            ({"n": 2, "couplings": [[0, 2, 0.5]]}, "couplings[0]"),
            ({"n": 2, "couplings": [[-1, 0, 0.5]]}, "couplings[0]"),
            ({"n": 2, "couplings": [[1, 1, 0.5]]}, "couplings[0]"),
            ({"n": 2.7}, '"n"'),
            ({"n": 3, "couplings": [[0, 1, 0.5], [0, 1.9, 0.5]]}, "couplings[1]"),
            ({"n": 2, "emissions": [[0.1]]}, "emissions[0]"),
            ({"n": True}, '"n"'),
            ({"n": 2, "couplings": [[0, 1]]}, "couplings[0]"),
            ({"n": 2, "couplings": [[0, 1, 0.5], [0, 1, "x"]]}, "couplings[1][2]"),
            ({"n": 2, "fields": [0.1]}, '"fields"'),
            ({"n": 2, "couplings": [[0, 1, math.nan]]}, "couplings[0][2]"),
            ({"n": 2, "fields": [0.0, math.inf]}, "fields[1]"),
            ({"n": 2, "emissions": [[0.1, 0.1], [0.1, 1.5]]}, "p_slip[1]"),
            ({"n": 2, "feilds": [5.0, 5.0]}, "feilds"),
            ({"n": 3, "couplings": [[0, 1, 1e308], [0, 2, 1e308], [1, 2, 1e308]]},
             "fields and couplings"),
            ({"n": 2, "couplings": [[0, 1, 1], [1, 0, 2]]},
             "couplings[1] (1, 0) repeats the pair of couplings[0]"),
        ],
        ids=["missing-n", "index-past-n", "negative-index", "self-coupling",
             "fractional-n", "fractional-index", "short-emission", "bool-n",
             "short-coupling", "string-coupling", "short-fields", "nan-coupling",
             "overflowing-field", "emission-above-one", "unknown-key",
             "overflowing-energy", "repeated-pair"],
    )
    def test_malformed_network_exits_one(self, tmp_path, capsys, net, where):
        net_path = tmp_path / "net.json"
        # json writes non-finite floats as NaN and Infinity and reads them
        # back; a 1e400 in a file parses to inf the same way.
        net_path.write_text(json.dumps(net))
        out = tmp_path / "freq.csv"
        code = dispatch(["ising", "--net", str(net_path), "--sweeps", "10",
                         "--exact", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("OutOfRange:") and len(err.splitlines()) == 1
        assert where in err
        assert not out.exists()

    @pytest.mark.parametrize("sweeps", ["8388609", "100000000000"])
    def test_sweeps_past_the_budget_are_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch, sweeps
    ):
        # 10^11 sweeps of a 2-node network used to end in a traceback for a
        # 186 GiB trace; 2^23 + 1 sweeps is one sweep past 2^24 site updates.
        def never(*args, **kwargs):
            raise AssertionError("simulate_field ran")

        monkeypatch.setattr("bktirt.cli.simulate_field", never)
        net_path = _ising_net(tmp_path)
        argv = ["ising", "--net", str(net_path), "--sweeps", sweeps,
                "--out", str(tmp_path / "freq.csv")]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"TooLarge: --sweeps {sweeps} x 2 nodes")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [net_path]

    def test_sweeps_at_the_budget_reach_the_simulation(self, tmp_path, monkeypatch):
        def stop(*args, **kwargs):
            raise AssertionError("simulate_field ran")

        monkeypatch.setattr("bktirt.cli.simulate_field", stop)
        argv = ["ising", "--net", str(_ising_net(tmp_path)), "--sweeps", "8388608",
                "--out", str(tmp_path / "freq.csv")]
        with pytest.raises(AssertionError, match="simulate_field ran"):
            dispatch(argv)

    @pytest.mark.parametrize("n", [21, 10**6])
    def test_network_past_twenty_nodes_is_refused_before_simulating(
        self, tmp_path, capsys, monkeypatch, n
    ):
        def never(*args, **kwargs):
            raise AssertionError("simulate_field ran")

        monkeypatch.setattr("bktirt.cli.simulate_field", never)
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"n": n}))
        out = tmp_path / "freq.csv"
        assert dispatch(["ising", "--net", str(net_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("TooLarge:") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [net_path]


_MANIFEST_KEYS = ["format_version", "command", "seeds", "version", "duration_s",
                  "outputs", "phases", "work"]


@pytest.mark.parametrize(
    "argv, phases, work",
    [
        (["simulate", "--p-learn", "0.3", "--steps", "12", "--seed", "4"],
         {"simulate_s", "write_s"}, {"steps": 12}),
        (["filter", "--params", "{params}", "--responses", "1,0,1"],
         {"load_s", "filter_s", "write_s"}, {"responses": 3}),
        (["fit-bkt", "--panel", "{panel}", "--skill", "7", "--max-iters", "3"],
         {"load_s", "fit_s", "write_s"},
         {"records": 300, "sequences": 30, "responses": 300, "em_iterations": 3,
          "cut_segments": 0}),
        (["bridge", "--params", "{params}"], {"load_s", "bridge_s", "write_s"}, {}),
        # Two draws per pair, and two per bin: 5 of the 65 bins hold pairs.
        (["experiment", "--people", "4", "--items", "3", "--reps", "2", "--iters", "1",
          "--min-count", "1"], {"simulate_s", "write_s"},
         {"pairs": 12, "keyed_streams": 5, "binomial_draws": 2 * (12 + 5)}),
        (["irf", "--points", "7"], {"evaluate_s", "write_s"}, {"points": 7}),
        (["ising", "--net", "{net}", "--sweeps", "20"],
         {"load_s", "simulate_s", "frequencies_s", "exact_s", "write_s"},
         {"sweeps": 20, "site_updates": 40, "uniforms_drawn": 80, "rerun_sweeps": 0,
          "serial_sweeps": 0}),
    ],
    ids=["simulate", "filter", "fit-bkt", "bridge", "experiment", "irf", "ising"],
)
def test_every_manifest_has_one_shape(tmp_path, params_file, argv, phases, work):
    inputs = {"params": params_file, "panel": _panel_csv(tmp_path),
              "net": _ising_net(tmp_path)}
    argv = [arg.format(**inputs) for arg in argv]
    out = tmp_path / "result.out"
    assert dispatch(argv + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "result.manifest.json").read_text())
    ising = argv[0] == "ising"
    assert list(manifest) == _MANIFEST_KEYS + (["diagnostics"] if ising else [])
    assert manifest["command"] == argv + ["--out", str(out)]
    assert manifest["outputs"][0]["path"] == str(out)
    assert set(manifest["phases"]) == phases
    assert all(value >= 0.0 for value in manifest["phases"].values())
    assert manifest["work"] == work


class TestHelp:
    def test_every_subcommand_documents_defaults(self, capsys):
        for name in _COMMANDS:
            assert dispatch([name, "--help"]) == 0
            text = capsys.readouterr().out
            assert name in text

    def test_flag_defaults_spelled_out(self, capsys):
        dispatch(["experiment", "--help"])
        text = capsys.readouterr().out
        for fragment in ("default: 1000", "default: 2,5,50", "default: 0.25"):
            assert fragment in text


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bktirt.cli", "stationary", "--p-learn", "0.4",
         "--p-forget", "0.4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lambda0": 0.5, "lambda1": 0.5}


# How each entry point reaches bktirt.cli.main(): the call the installed
# console script makes, and what ``python -m bktirt.cli`` runs.
_ENTRIES = {
    "console": "from bktirt.cli import main\nmain()",
    "module": "import runpy\nrunpy.run_module('bktirt.cli', run_name='__main__', alter_sys=True)",
}


def _run_main(entry: str, argv: list[str], setup: str = "") -> subprocess.CompletedProcess:
    """A fresh interpreter that runs ``setup``, then main() through ``entry``
    with ``argv`` as its arguments."""
    return subprocess.run(
        [sys.executable, "-c", setup + _ENTRIES[entry], *argv],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv", [["irf", "--points", "3"], ["stationary", "--p-learn", "0.3"]],
                         ids=["irf", "stationary"])
def test_dispatch_leaves_the_collector_as_it_found_it(capsys, argv, enabled):
    # Only main(), the process entry, switches the collector or freezes
    # objects; a caller of dispatch in the same process sees neither.
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert dispatch(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert capsys.readouterr().out


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize(
    "argv, call",
    [(["irf", "--points", "3"], "irf_4pl"),
     (["stationary", "--p-learn", "0.3"], "stationary_closed_form")],
    ids=["irf", "stationary"],
)
def test_main_runs_the_handler_with_the_loaded_objects_frozen(capsys, entry, argv, call):
    # The handler's library call is wrapped on the package, where the CLI
    # looks it up, and reports the collector's state while the run goes on.
    setup = (
        "import gc, importlib, sys, bktirt\n"
        "def probe(*args):\n"
        "    print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
        f"    module = importlib.import_module('bktirt.' + bktirt._EXPORTS[{call!r}])\n"
        f"    return getattr(module, {call!r})(*args)\n"
        f"bktirt.{call} = probe\n"
    )
    proc = _run_main(entry, argv, setup)
    assert (proc.returncode, proc.stderr) == (0, "True True\n")
    assert dispatch(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["--version"], 0),
        (["irf", "--points", "0"], 2),
        (["irf", "--c", "0.9", "--d", "0.1", "--points", "3"], 1),
        (["fit-bkt", "--panel", "{missing}", "--skill", "0"], 2),
    ],
    ids=["help", "version", "usage-error", "domain-error", "io-error"],
)
def test_main_prints_and_exits_as_dispatch_returns(tmp_path, capsys, entry, argv, code):
    argv = [arg.format(missing=tmp_path / "missing.csv") for arg in argv]
    assert dispatch(argv) == code
    want = capsys.readouterr()
    proc = _run_main(entry, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, want.out, want.err)


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Wraps ctypes.CDLL before main() runs, so that the libc handle the
# allocator policy opens reports each mallopt call on stderr.
_MALLOPT_PROBE = (
    "import ctypes, sys\n"
    "class _Probe:\n"
    "    def __init__(self, *args, **kwargs):\n"
    "        self.lib = _CDLL(*args, **kwargs)\n"
    "    def __getattr__(self, name):\n"
    "        return getattr(self.lib, name)\n"
    "    def mallopt(self, param, value):\n"
    "        print('mallopt', param, value, file=sys.stderr)\n"
    "        return self.lib.mallopt(param, value)\n"
    "_CDLL, ctypes.CDLL = ctypes.CDLL, _Probe\n"
)


def _long_panel(path, learners: int, length: int) -> None:
    """``learners`` sequences of ``length`` attempts on skill 0: long enough
    that the fit cuts each into segments."""
    rng = np.random.default_rng(31)
    path.write_text("person_id,item_id,skill_id,attempt,correct\n" + "".join(
        f"{person},0,0,{attempt},{correct}\n"
        for person in range(learners)
        for attempt, correct in enumerate(rng.integers(0, 2, length).tolist(), start=1)
    ))


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("command", ["fit-bkt", "ising", "experiment"])
def test_main_keeps_freed_pages_and_writes_the_bytes_dispatch_writes(tmp_path, entry, command):
    # main() raises glibc's mmap and trim thresholds for an array command
    # (and only for one); what the command writes cannot tell.
    from bktirt import cli

    _long_panel(panel := tmp_path / "panel.csv", 4, 400)
    argv = {
        "fit-bkt": ["fit-bkt", "--panel", str(panel), "--skill", "0", "--max-iters", "3",
                    "--out", "{out}/fit.json"],
        "ising": ["ising", "--net", str(_ising_net(tmp_path)), "--sweeps", "500", "--exact",
                  "--out", "{out}/ising.csv"],
        "experiment": ["experiment", "--desk", "--out", "{out}/curves.csv"],
    }[command]
    written = {}
    for how in ("dispatch", "main"):
        (out := tmp_path / how).mkdir()
        args = [arg.format(out=out) for arg in argv]
        if how == "dispatch":
            assert dispatch(args) == 0
        else:
            proc = _run_main(entry, args, _MALLOPT_PROBE)
            want = (f"mallopt {cli._M_MMAP_THRESHOLD} {cli._MMAP_THRESHOLD}\n"
                    f"mallopt {cli._M_TRIM_THRESHOLD} {cli._TRIM_THRESHOLD}\n")
            assert (proc.returncode, proc.stderr) == (0, want if _glibc() else "")
        written[how] = {path.name: path.read_bytes() for path in out.iterdir()
                        if not path.name.endswith(".manifest.json")}
        if command == "fit-bkt":
            assert json.loads((out / "fit.manifest.json").read_text())["work"]["cut_segments"] > 0
    assert written["main"] == written["dispatch"] != {}


def test_dispatch_keeps_the_allocator_as_it_is(monkeypatch, capsys):
    # Only main() opens libc for the allocator policy; a caller of dispatch
    # in the same process keeps its allocator as it was.
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: pytest.fail("libc opened"))
    assert dispatch(["irf", "--points", "3"]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize(
    "argv, code",
    [(["stationary", "--p-learn", "0.3"], 0),
     (["irf", "--theta-min", "-1e308", "--theta-max", "1e308"], 1),
     (["experiment", "--desk", "--people", "3", "--out", "x.csv"], 2)],
    ids=["stationary", "irf-span", "desk-check"],
)
def test_closed_forms_and_row_check_refusals_keep_the_allocator(entry, argv, code):
    proc = _run_main(entry, argv, _MALLOPT_PROBE)
    assert proc.returncode == code
    assert "mallopt" not in proc.stderr


@pytest.mark.skipif(not _glibc(), reason="the allocator policy acts only under glibc")
def test_main_takes_at_most_half_the_minor_faults_of_dispatch(tmp_path):
    # 16 sequences of 2,000 attempts, 10 EM iterations: each E-step's arrays
    # are 32,000 floats. Measured 6,874 minor faults through main() against
    # 22,207 through dispatch (a ratio of 0.31; the interpreter and numpy
    # alone take about 5,000).
    _long_panel(panel := tmp_path / "panel.csv", 16, 2000)
    argv = ["fit-bkt", "--panel", str(panel), "--skill", "0", "--tol", "1e-300",
            "--max-iters", "10"]
    faults = {}
    for how, code in (("main", _ENTRIES["console"]),
                      ("dispatch", "import sys\nfrom bktirt.cli import dispatch\n"
                                   "sys.exit(dispatch(sys.argv[1:]))")):
        out = tmp_path / f"{how}.json"
        proc = subprocess.Popen([sys.executable, "-c", code, *argv, "--out", str(out)],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        faults[how] = usage.ru_minflt
    assert (tmp_path / "main.json").read_bytes() == (tmp_path / "dispatch.json").read_bytes()
    assert faults["main"] <= faults["dispatch"] / 2, faults
