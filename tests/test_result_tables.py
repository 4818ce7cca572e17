"""Every result artifact is accounted for in ``benchmarks/tables.txt``.

CI's ``tables`` job regenerates the artifacts that list marks ``pinned``
and fails on any ``git diff``.  An artifact that nobody lists would
escape that gate silently, so each ``benchmarks/results/*.txt`` table
and each repo-root ``BENCH_*.json`` document must be on the list:
pinned, host-time, or unpinned with a reason.
"""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
KINDS = ("pinned", "host", "unpinned")


def _entries():
    entries = {}
    for number, line in enumerate(
        (BENCHMARKS / "tables.txt").read_text().splitlines(), start=1
    ):
        fields, _, reason = line.partition("#")
        if not fields.strip():
            continue
        artifact, benchmark, kind, *scale = fields.split()
        assert artifact not in entries, f"line {number}: {artifact} listed twice"
        assert scale in ([], ["tiny"], ["small"], ["medium"]), f"line {number}: {scale}"
        entries[artifact] = (benchmark, kind, reason.strip())
    return entries


def test_every_result_table_is_listed():
    artifacts = {path.name for path in (BENCHMARKS / "results").glob("*.txt")}
    artifacts |= {path.name for path in BENCHMARKS.parent.glob("BENCH_*.json")}
    entries = _entries()
    assert sorted(artifacts - set(entries)) == [], "artifacts missing from the list"
    assert sorted(set(entries) - artifacts) == [], "listed artifacts that do not exist"


def test_list_entries_are_well_formed():
    for artifact, (benchmark, kind, reason) in _entries().items():
        assert kind in KINDS, f"{artifact}: unknown kind {kind!r}"
        source = BENCHMARKS / benchmark
        assert source.is_file(), f"{artifact}: no benchmark {benchmark}"
        text = source.read_text()
        stem = artifact.removeprefix("BENCH_").rsplit(".", 1)[0]
        writer = "emit_bench(" if artifact.startswith("BENCH_") else "emit_table("
        assert writer in text and f'"{stem}"' in text, (
            f"{artifact}: {benchmark} does not write it"
        )
        if kind == "unpinned":
            assert reason, f"{artifact}: an unpinned artifact needs a reason"
