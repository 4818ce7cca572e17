"""The command-line interface."""

import os
from pathlib import Path

import pytest

from repro.cli import main
from tests.conftest import SUM_SOURCE


@pytest.fixture
def source_file(tmp_path):
    f = tmp_path / "prog.c"
    f.write_text(SUM_SOURCE)
    return str(f)


def test_compile_reports_stats(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "guards" in out
    assert "signed" in out


def test_compile_emit_ir(source_file, capsys):
    main(["compile", source_file, "--emit-ir"])
    out = capsys.readouterr().out
    assert "define" in out
    assert "carat.guard" in out


def test_compile_no_guards(source_file, capsys):
    main(["compile", source_file, "--no-guards", "--emit-ir"])
    out = capsys.readouterr().out
    assert "carat.guard" not in out


def test_run_carat_mode(source_file, capsys):
    code = main(["run", source_file, "--mode", "carat", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == str(sum(range(64)))
    assert "guards" in captured.err


def test_run_trace_engine_reports_coverage(source_file, capsys):
    code = main(["run", source_file, "--engine", "trace", "--stats"])
    err = capsys.readouterr().err
    assert code == 0
    line = next(ln for ln in err.splitlines() if ln.startswith("-- traces"))
    assert "% of instructions in traces" in line
    assert "aborts: depth 0, length 0, reject 0" in line


def test_run_all_modes_agree(source_file, capsys):
    outputs = []
    for mode in ("carat", "baseline", "traditional"):
        main(["run", source_file, "--mode", mode])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_bench_command(capsys):
    assert main(["bench", "ep", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "carat" in out and "traditional" in out


def test_bench_without_name_lists_targets(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "hpccg" in out and "xz" in out and "behavior" in out


def test_policy_command(capsys):
    assert main(["policy", "ep", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "policy" in out
    assert "frag before" in out and "frag after" in out
    assert "tiering" in out  # tiered by default (--fast-kb 1024)


def test_policy_command_compaction_only(capsys):
    code = main(["policy", "ep", "--fast-kb", "0", "--scatter", "--no-tiering"])
    out = capsys.readouterr().out
    assert code == 0
    assert "compaction" in out
    assert "tiering" not in out


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "hpccg" in out and "xz" in out


def test_missing_file(capsys):
    assert main(["run", "/no/such/file.c"]) == 2
    err = capsys.readouterr().err
    assert err == "repro run: no such file: /no/such/file.c\n"


def test_run_name_matches_run_file(tmp_path, capsys):
    from repro.workloads import get_workload

    source = tmp_path / "ep.c"
    source.write_text(get_workload("ep", "tiny").source)
    assert main(["run", "ep"]) == 0
    by_name = capsys.readouterr().out
    assert main(["run", str(source)]) == 0
    assert capsys.readouterr().out == by_name
    assert by_name.strip()


def test_run_trace_out_writes_valid_jsonl(tmp_path, capsys):
    from repro.telemetry import validate_jsonl

    prefix = tmp_path / "ep"
    assert main(["run", "ep", "--trace-out", str(prefix)]) == 0
    assert "schema       : valid" in capsys.readouterr().err
    jsonl = tmp_path / "ep.jsonl"
    assert jsonl.read_text().strip()
    assert validate_jsonl(str(jsonl)) == []
    assert (tmp_path / "ep.chrome.json").exists()


def test_run_json_carries_reconciled_profile(tmp_path, capsys):
    import json

    out = tmp_path / "ep.json"
    assert main(["run", "ep", "--profile", "--json", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["schema"] == "carat.run.v1"
    assert document["config"]["name"] == "ep"
    profile = document["profile"]
    assert profile["schema"] == "carat.profile.v1"
    assert sum(profile["buckets"].values()) == document["interp"]["cycles"]


#: One argv per (subcommand, kind of bad input) the CLI must reject with
#: exit 2 and a single ``repro <cmd>: ...`` line instead of a traceback.
BAD_INPUT = {
    "run-unknown-workload": ["run", "nosuch"],
    "run-missing-file": ["run", "/no/such/file.c"],
    "run-bad-config": ["run", "ep", "--move-batch", "0"],
    "run-faults-need-carat": [
        "run", "ep", "--mode", "traditional", "--max-retries", "2",
    ],
    "bench-unknown-workload": ["bench", "nosuch"],
    "policy-unknown-workload": ["policy", "nosuch"],
    "policy-bad-config": ["policy", "ep", "--chunk-budget", "-1"],
    "smp-unknown-workload": ["smp", "nosuch"],
    "smp-missing-file": ["smp", "/no/such/file.c"],
    "smp-bad-config": ["smp", "ep", "--move-batch", "0"],
    "smp-unparsable-weights": ["smp", "ep", "--weights", "1,x"],
    "smp-zero-weight": ["smp", "ep", "--weights", "0"],
    "smp-zero-tenants": ["smp", "ep", "--tenants", "0"],
    "soak-zero-tenants": ["soak", "--tenants", "0"],
    "soak-bad-config": ["soak", "--requests", "0"],
    "compile-missing-file": ["compile", "/no/such/file.c"],
    "policy-zero-epoch": ["policy", "hpccg", "--epoch", "0"],
    "policy-negative-budget": ["policy", "hpccg", "--budget", "-1"],
    "run-negative-retries": ["run", "hpccg", "--max-retries", "-1"],
    "policy-zero-retries": ["policy", "hpccg", "--max-retries", "0"],
    "soak-negative-fast-tier": ["soak", "--fast-kb", "-5"],
    "smp-unaligned-fast-tier": ["smp", "hpccg", "--fast-kb", "7"],
    "smp-unaligned-memory": ["smp", "hpccg", "--memory-kb", "1"],
    "smp-fast-tier-fills-memory": [
        "smp", "ep", "--tenants", "2", "--fast-kb", "1048576",
    ],
    "policy-fast-tier-fills-memory": ["policy", "hpccg", "--fast-kb", "8192"],
    "run-zero-max-steps": ["run", "hpccg", "--max-steps", "0"],
    "run-negative-max-steps": ["run", "hpccg", "--max-steps", "-1"],
    "smp-zero-max-steps": ["smp", "hpccg", "--max-steps", "0"],
    "soak-negative-max-steps": ["soak", "--max-steps", "-1"],
    "compile-syntax-error": ["compile", "<syntax-error.c>"],
    "compile-undeclared-identifier": ["compile", "<undeclared.c>"],
    "run-syntax-error": ["run", "<syntax-error.c>"],
    "run-undeclared-identifier": ["run", "<undeclared.c>"],
    "smp-syntax-error": ["smp", "<syntax-error.c>"],
    "smp-undeclared-identifier": ["smp", "<undeclared.c>"],
    "compile-not-utf8": ["compile", "<not-utf8.c>"],
    "run-not-utf8": ["run", "<not-utf8.c>"],
    "smp-not-utf8": ["smp", "<not-utf8.c>"],
    "compile-directory": ["compile", "<directory>"],
    "run-directory": ["run", "<directory>"],
    "smp-directory": ["smp", "<directory>"],
    "compile-fifo": ["compile", "<fifo>"],
    "run-fifo": ["run", "<fifo>"],
    "smp-fifo": ["smp", "<fifo>"],
    "run-json-in-missing-dir": ["run", "ep", "--json", "/no/such/dir/x.json"],
    "run-trace-out-in-missing-dir": ["run", "ep", "--trace-out", "/no/such/dir/p"],
    "smp-json-in-missing-dir": ["smp", "ep", "--json", "/no/such/dir/x.json"],
    "soak-json-in-missing-dir": ["soak", "--json", "/no/such/dir/x.json"],
}

#: Mini-C sources the argvs above name by placeholder, and the located
#: message each must report.
BAD_SOURCES = {
    "<syntax-error.c>": (
        "int main() { return 0 }\n", "expected ';', found '}' at 1:23",
    ),
    "<undeclared.c>": (
        "int main() { return y; }\n", "undeclared identifier 'y' (at 1:21)",
    ),
}


#: Paths the argvs above name by placeholder that hold no Mini-C text,
#: and the message each must report ({} is the path).
BAD_PATHS = {
    "<not-utf8.c>": "{} is not UTF-8 text (invalid start byte at byte 0)",
    "<directory>": "{} is a directory, not a Mini-C source file",
    "<fifo>": "{} is not a regular file",
}


def _placeholders(tmp_path):
    """Create every placeholder path under ``tmp_path``; returns
    placeholder -> path."""
    paths = {p: str(tmp_path / p.strip("<>")) for p in [*BAD_SOURCES, *BAD_PATHS]}
    for placeholder, (text, _message) in BAD_SOURCES.items():
        Path(paths[placeholder]).write_text(text)
    Path(paths["<not-utf8.c>"]).write_bytes(b"\xff\xfe")
    Path(paths["<directory>"]).mkdir()
    os.mkfifo(paths["<fifo>"])
    return paths


@pytest.mark.parametrize("argv", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_bad_input_exits_2_with_one_line(argv, capsys, tmp_path):
    paths = _placeholders(tmp_path)
    argv = [paths.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"repro {argv[0]}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("placeholder", list(BAD_SOURCES))
def test_source_errors_report_their_location(placeholder, capsys, tmp_path):
    text, message = BAD_SOURCES[placeholder]
    path = tmp_path / "bad.c"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"repro run: {message}\n"


@pytest.mark.parametrize("placeholder", list(BAD_PATHS))
def test_unreadable_sources_name_the_problem(placeholder, capsys, tmp_path):
    path = _placeholders(tmp_path)[placeholder]
    assert main(["run", path]) == 2
    message = BAD_PATHS[placeholder].format(path)
    assert capsys.readouterr().err == f"repro run: {message}\n"


DIVIDE_BY_ZERO = """
long main() {
  long a = 10;
  long b = 0;
  print_long(a / b);
  return 0;
}
"""


@pytest.mark.parametrize("engine", ["reference", "fast", "trace"])
def test_guest_fault_prints_one_line(tmp_path, capsys, engine):
    source = tmp_path / "div.c"
    source.write_text(DIVIDE_BY_ZERO)
    assert main(["run", str(source), "--engine", engine]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "repro run: integer fault: sdiv 10, 0 "
        "(division by zero or invalid shift)\n"
    )


def test_exhausted_step_budget_prints_one_line(capsys):
    assert main(["run", "hpccg", "--max-steps", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "repro run: step budget exhausted after 41 instructions in @main\n"
    )
