"""Command line driver."""

import argparse
import concurrent.futures
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SELECTOR_ONE, dispatch_pair_code, chained_call_code
from evmlift import cli
from evmlift.cli import main
from evmlift.lifter import parse_tac


@pytest.fixture()
def chained_file(tmp_path):
    path = tmp_path / "chained.hex"
    path.write_text(chained_call_code().hex())
    return path


@pytest.fixture()
def dispatch_file(tmp_path):
    path = tmp_path / "dispatch.hex"
    path.write_text("0x" + dispatch_pair_code().hex())
    return path


def test_lift_writes_default_outputs(dispatch_file, capsys):
    assert main(["lift", str(dispatch_file)]) == 0
    out = capsys.readouterr().out
    assert f"{dispatch_file}: fixpoint" in out
    tac_path = dispatch_file.parent / (dispatch_file.name + ".tac")
    metrics_path = dispatch_file.parent / (dispatch_file.name + ".metrics.json")
    parsed = parse_tac(tac_path.read_text())
    assert 0x38 in parsed.blocks
    metrics = json.loads(metrics_path.read_text())
    assert metrics["stop_condition"] == "fixpoint"


def test_bare_input_implies_lift(dispatch_file):
    assert main([str(dispatch_file)]) == 0
    assert (dispatch_file.parent / (dispatch_file.name + ".tac")).exists()


def test_explicit_output_paths(chained_file, tmp_path):
    tac_out = tmp_path / "out.tac"
    metrics_out = tmp_path / "out.json"
    code = main(
        [str(chained_file), "--tac-out", str(tac_out), "--metrics-out", str(metrics_out)]
    )
    assert code == 0
    assert tac_out.exists() and metrics_out.exists()
    assert not (chained_file.parent / (chained_file.name + ".tac")).exists()


def test_outputs_replace_existing_files_atomically(dispatch_file):
    tac_path = dispatch_file.parent / (dispatch_file.name + ".tac")
    tac_path.write_text("stale")
    assert main([str(dispatch_file)]) == 0
    assert "Begin block" in tac_path.read_text()
    leftovers = [p.name for p in dispatch_file.parent.iterdir() if ".tac." in p.name]
    assert leftovers == []


def test_outputs_get_the_mode_of_a_plainly_opened_file(dispatch_file):
    assert main([str(dispatch_file)]) == 0
    plain = dispatch_file.parent / "plain.txt"
    with open(plain, "w"):
        pass
    mode = stat.S_IMODE(plain.stat().st_mode)
    for suffix in (".tac", ".metrics.json"):
        output = dispatch_file.parent / (dispatch_file.name + suffix)
        assert stat.S_IMODE(output.stat().st_mode) == mode, suffix


def test_import_loads_no_dataclasses_and_no_process_pool():
    # -S keeps site's own imports out, so what is loaded is what the package loads
    probe = "import sys, evmlift, evmlift.cli; print(' '.join(sorted(sys.modules)))"
    src = Path(cli.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(out.stdout.split())
    assert "evmlift.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "concurrent.futures", "inspect"})


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text("0xzz")
    assert main([str(bad)]) == 1
    assert capsys.readouterr().err != ""
    assert main([str(tmp_path / "missing.hex")]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--bogus", "x"],
        ["lift", "--context-depth", "abc", "x"],
        ["lift", "x", "--max-stack-depth", "5"],  # the modeled depth is fixed
    ],
)
def test_usage_error_exits_one_not_the_timeout_code(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option",
    [
        ("lift", "--context-depth=-1"),
        ("lift", "--fact-limit=-1"),
        ("lift", "--timeout=-0.5"),
        ("lift", "--timeout=nan"),
        ("lift", "--jobs=0"),
        ("lift", "--jobs=-2"),
        ("trace", "--max-steps=-1"),
    ],
)
def test_negative_numeric_option_is_a_usage_error(chained_file, capsys, command, option):
    assert main([command, str(chained_file), option]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and option.split("=")[0] in err
    assert not (chained_file.parent / (chained_file.name + ".tac")).exists()


@pytest.mark.parametrize("flag", ["--context-depth", "--fact-limit"])
def test_zero_count_is_still_accepted(chained_file, capsys, flag):
    assert main([str(chained_file), flag, "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["{big}"], ["{big}", "--sweep"], ["lift", "--batch", "{dir}"], ["trace", "{big}"]],
    ids=["lift", "sweep", "batch", "trace"],
)
def test_code_over_the_size_limit_is_an_input_error(tmp_path, capsys, argv):
    big = tmp_path / "big.hex"
    big.write_text("00" * 24577)
    assert main([arg.format(big=big, dir=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert "code is 24577 bytes, above the 24576-byte deployment limit" in captured.out + captured.err
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["big.hex"]


def test_fact_limit_bounds_the_run(chained_file, capsys):
    assert main([str(chained_file), "--fact-limit", "5"]) == 0
    assert "fact-limit" in capsys.readouterr().out
    metrics_path = chained_file.parent / (chained_file.name + ".metrics.json")
    assert json.loads(metrics_path.read_text())["stop_condition"] == "fact-limit"
    # One limit bounds both passes; the pre-analysis no longer has its own.
    assert main([str(chained_file), "--preanalysis-limit", "5"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_timeout_exits_two(chained_file, capsys):
    assert main([str(chained_file), "--timeout", "0"]) == 2
    assert "timeout" in capsys.readouterr().out


def test_sweep_timeout_exits_two(chained_file, capsys):
    assert main([str(chained_file), "--sweep", "--timeout", "0"]) == 2
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 4 and all(row.split()[-1] == "timeout" for row in rows)


@pytest.mark.parametrize("mode", [[], ["--sweep"]], ids=["lift", "sweep"])
@pytest.mark.parametrize("jobs", ["1", "8"])
def test_jobs_is_refused_without_batch(chained_file, capsys, mode, jobs):
    before = sorted(p.name for p in chained_file.parent.iterdir())
    assert main([str(chained_file), *mode, "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert "--jobs" in captured.err and captured.out == ""
    assert sorted(p.name for p in chained_file.parent.iterdir()) == before


def test_flags_reach_the_pipeline(chained_file):
    assert main([str(chained_file), "--no-cloning", "--tac-out", str(chained_file) + ".nc"]) == 0
    uncloned = parse_tac((chained_file.parent / (chained_file.name + ".nc")).read_text())
    assert 0x1E0 not in uncloned.blocks
    assert main([str(chained_file), "--scheme", "transactional", "--context-depth", "3"]) == 0


def _make_batch_dir(tmp_path):
    batch = tmp_path / "corpus"
    batch.mkdir(parents=True)
    (batch / "a.hex").write_text(dispatch_pair_code().hex())
    (batch / "b.hex").write_text(chained_call_code().hex())
    (batch / "c.tac").write_text("not bytecode")
    (batch / "d.metrics.json").write_text("{}")
    (batch / ".hidden").write_text("ff")
    return batch


def test_batch_lifts_visible_bytecode_files_only(tmp_path, capsys):
    batch = _make_batch_dir(tmp_path)
    assert main(["lift", "--batch", str(batch)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert [line.split("/")[-1] for line in out] == ["a.hex: fixpoint", "b.hex: fixpoint"]
    names = sorted(p.name for p in batch.iterdir())
    assert "a.hex.tac" in names and "b.hex.metrics.json" in names
    assert "c.tac.tac" not in names and ".hidden.tac" not in names


def test_batch_parallel_matches_serial(tmp_path):
    serial = _make_batch_dir(tmp_path / "s")
    parallel = _make_batch_dir(tmp_path / "p")
    assert main(["lift", "--batch", str(serial)]) == 0
    assert main(["lift", "--batch", str(parallel), "--jobs", "2"]) == 0
    for name in ("a.hex.tac", "b.hex.tac", "a.hex.metrics.json", "b.hex.metrics.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


@pytest.mark.parametrize(("files", "workers"), [(2, [2]), (1, [])])
def test_batch_starts_no_more_workers_than_files(tmp_path, monkeypatch, files, workers):
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    batch = _make_batch_dir(tmp_path)
    if files == 1:
        (batch / "b.hex").unlink()
    assert main(["lift", "--batch", str(batch), "--jobs", "64"]) == 0
    assert started == workers


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_goes_on_past_an_unwritable_output(tmp_path, capsys, jobs):
    batch = _make_batch_dir(tmp_path)
    (batch / "a.hex.tac").mkdir()  # the TAC output of a.hex cannot replace a directory
    assert main(["lift", "--batch", str(batch), "--jobs", jobs]) == 1
    rows = [line.split(": ", 1) for line in capsys.readouterr().out.strip().split("\n")]
    assert [Path(path).name for path, _detail in rows] == ["a.hex", "b.hex"]
    assert "a.hex.tac" in rows[0][1]
    assert rows[1][1] == "fixpoint"
    assert (batch / "b.hex.tac").is_file() and (batch / "b.hex.metrics.json").is_file()


def test_batch_goes_on_past_an_unexpected_error(tmp_path, capsys, monkeypatch):
    batch = _make_batch_dir(tmp_path)
    bad = dispatch_pair_code()
    real = cli.run_pipeline

    def run_pipeline(code, config):
        if code == bad:
            raise RuntimeError("boom")
        return real(code, config)

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    assert main(["lift", "--batch", str(batch)]) == 3
    captured = capsys.readouterr()
    rows = [line.split(": ", 1) for line in captured.out.strip().split("\n")]
    assert [Path(path).name for path, _detail in rows] == ["a.hex", "b.hex"]
    assert rows[0][1] == "internal error: RuntimeError: boom"
    assert rows[1][1] == "fixpoint"
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err
    assert not (batch / "a.hex.tac").exists()
    assert (batch / "b.hex.tac").is_file() and (batch / "b.hex.metrics.json").is_file()


def test_batch_argument_validation(tmp_path, capsys, dispatch_file):
    assert main(["lift", "--batch", str(tmp_path / "nope")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["lift", "--batch", str(empty)]) == 1
    assert main(["lift", str(dispatch_file), "--batch", str(empty)]) == 1
    assert main(["lift"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--tac-out", "--metrics-out"])
def test_batch_and_sweep_refuse_an_output_path(tmp_path, capsys, chained_file, flag):
    batch = _make_batch_dir(tmp_path)
    out = tmp_path / "out"
    before = sorted(p.name for p in batch.iterdir())
    assert main(["lift", "--batch", str(batch), flag, str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in batch.iterdir()) == before
    assert main([str(chained_file), "--sweep", flag, str(out)]) == 1
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not out.exists()


def test_sweep_prints_config_table(chained_file, capsys):
    assert main([str(chained_file), "--sweep"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == [
        "config",
        "polymorphic",
        "unresolved",
        "unstructured",
        "missing-ir",
        "missing-cf",
        "stop",
    ]
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert set(rows) == {"default", "no-shrinking", "no-cloning", "no-preanalysis"}
    assert rows["default"][3] == "0"  # unstructured, cloned
    assert rows["no-cloning"][3] == "1"
    assert all(row[-1] == "fixpoint" for row in rows.values())


def test_trace_runs_the_interpreter(dispatch_file, capsys):
    selector = f"{SELECTOR_ONE:08x}" + "00" * 28
    assert main(["trace", str(dispatch_file), "--calldata", selector]) == 0
    out = capsys.readouterr().out
    assert "visits: 0x0 0x38" in out
    assert "halted: stop" in out

    # either case of the hex prefix, as a code file accepts
    for prefix in ("0x", "0X"):
        assert main(["trace", str(dispatch_file), "--calldata", prefix + selector]) == 0
        assert "visits: 0x0 0x38" in capsys.readouterr().out

    assert main(["trace", str(dispatch_file)]) == 0
    out = capsys.readouterr().out
    assert "halted: revert" in out


def test_trace_rejects_bad_calldata(dispatch_file, capsys):
    assert main(["trace", str(dispatch_file), "--calldata", "0xzz"]) == 1
    capsys.readouterr()


def test_help_lists_both_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{lift,trace}" in out
    assert "run the concrete interpreter" in out


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_section() -> str:
    text = README.read_text()
    start = text.index("\n## CLI\n")
    return text[start : text.index("\n## ", start + 1)]


def _long_options(command: str) -> set[str]:
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    return {opt for action in actions for opt in action.option_strings if opt.startswith("--")}


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_every_long_option_is_documented(command):
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_cli_section()))
    assert _long_options(command) - {"--help"} - mentioned == set()


def test_every_documented_lift_flag_is_accepted():
    rows = [line for line in _readme_cli_section().splitlines() if line.startswith("| `--")]
    documented = {flag for row in rows for flag in re.findall(r"--[a-z][a-z-]*", row)}
    assert documented and documented <= _long_options("lift")
