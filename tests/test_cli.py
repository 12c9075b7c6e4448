"""Command line driver."""

import json
from pathlib import Path

import pytest

from conftest import SELECTOR_ONE, dispatch_pair_code, chained_call_code
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


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text("0xzz")
    assert main([str(bad)]) == 1
    assert capsys.readouterr().err != ""
    assert main([str(tmp_path / "missing.hex")]) == 1


def test_timeout_exits_two(chained_file, capsys):
    assert main([str(chained_file), "--timeout", "0"]) == 2
    assert "timeout" in capsys.readouterr().out


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


def test_batch_argument_validation(tmp_path, capsys, dispatch_file):
    assert main(["lift", "--batch", str(tmp_path / "nope")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["lift", "--batch", str(empty)]) == 1
    assert main(["lift", str(dispatch_file), "--batch", str(empty)]) == 1
    assert main(["lift"]) == 1
    capsys.readouterr()


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
