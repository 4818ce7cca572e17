"""Every result table is accounted for in ``benchmarks/tables.txt``.

CI's ``tables`` job regenerates the tables that list marks ``pinned``
and fails on any ``git diff``.  A new table that nobody lists would
escape that gate silently, so each ``benchmarks/results/*.txt`` must be
on the list: pinned, host-time, or unpinned with a reason.
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
        table, benchmark, kind, *scale = fields.split()
        assert table not in entries, f"line {number}: {table} listed twice"
        assert scale in ([], ["tiny"], ["small"], ["medium"]), f"line {number}: {scale}"
        entries[table] = (benchmark, kind, reason.strip())
    return entries


def test_every_result_table_is_listed():
    tables = {path.name for path in (BENCHMARKS / "results").glob("*.txt")}
    entries = _entries()
    assert sorted(tables - set(entries)) == [], "tables missing from the list"
    assert sorted(set(entries) - tables) == [], "listed tables that do not exist"


def test_list_entries_are_well_formed():
    for table, (benchmark, kind, reason) in _entries().items():
        assert kind in KINDS, f"{table}: unknown kind {kind!r}"
        source = BENCHMARKS / benchmark
        assert source.is_file(), f"{table}: no benchmark {benchmark}"
        stem = table[: -len(".txt")]
        assert f'"{stem}"' in source.read_text(), (
            f"{table}: {benchmark} does not write it"
        )
        if kind == "unpinned":
            assert reason, f"{table}: an unpinned table needs a reason"
