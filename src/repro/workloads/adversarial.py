"""Adversarial memory-safety workloads — deliberately NOT registered.

Each program here contains exactly one planted memory-safety bug that
CARAT's ordinary guards *cannot* see: every access stays inside a
kernel-permitted region (the heap region covers freed blocks and free
space alike), so without ``--safety`` these programs run to completion
with deterministic output.  With safety on, the allocation-table
liveness check behind the guard catches the planted access and raises
:class:`~repro.errors.SafetyFault` — the detection matrix tests assert
100% of them fire, on all three engines.

They are kept out of the ``register()`` registry on purpose: the
full-suite zero-false-positive sweep, the sanitizer's whole-suite
audit, the benchmark harness, and the ``bench`` CLI iterate registered
workloads and must never
see a program whose *point* is to contain a bug.  Use
:func:`adversarial_workload` / :func:`adversarial_names`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.workloads.suite import SCALES, Workload, _tier

_ADVERSARIAL: Dict[str, Callable[[str], Workload]] = {}


def _adversarial(name: str):
    def wrap(fn: Callable[[str], Workload]) -> Callable[[str], Workload]:
        _ADVERSARIAL[name] = fn
        return fn

    return wrap


def adversarial_names() -> List[str]:
    return sorted(_ADVERSARIAL)


def adversarial_workload(name: str, scale: str = "tiny") -> Workload:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {SCALES}")
    try:
        generator = _ADVERSARIAL[name]
    except KeyError:
        raise KeyError(
            f"unknown adversarial workload {name!r}; "
            f"available: {adversarial_names()}"
        )
    return generator(scale)


#: name -> the SafetyViolation ``kind`` the planted bug must produce.
EXPECTED_KINDS = {
    "uafread": "use-after-free",
    "uafwrite": "use-after-free",
    "oobread": "out-of-bounds",
    "oobwrite": "out-of-bounds",
}


@_adversarial("uafread")
def uafread(scale: str) -> Workload:
    n = _tier(scale, 64, 256, 1024)
    source = f"""
// uafread: dangling-pointer load from a freed heap block.
long N = {n};

void main() {{
  long *p = (long*)malloc(sizeof(long) * N);
  long i;
  for (i = 0; i < N; i++) {{ p[i] = i * 3 + 1; }}
  long before = p[N / 2];
  free((char*)p);
  long after = p[N / 2];  // the planted bug: p is dead
  print_long(before + after);
}}
"""
    return Workload(
        name="uafread",
        suite="adversarial",
        description="load through a dangling heap pointer",
        behavior="use-after-free",
        source=source,
    )


@_adversarial("uafwrite")
def uafwrite(scale: str) -> Workload:
    n = _tier(scale, 64, 256, 1024)
    source = f"""
// uafwrite: dangling-pointer store into a freed heap block.
long N = {n};

void main() {{
  long *p = (long*)malloc(sizeof(long) * N);
  long i;
  for (i = 0; i < N; i++) {{ p[i] = i + 11; }}
  long keep = p[1];
  free((char*)p);
  p[1] = 999;  // the planted bug: store through a dead pointer
  print_long(keep + p[1]);
}}
"""
    return Workload(
        name="uafwrite",
        suite="adversarial",
        description="store through a dangling heap pointer",
        behavior="use-after-free",
        source=source,
    )


@_adversarial("oobread")
def oobread(scale: str) -> Workload:
    n = _tier(scale, 64, 256, 1024)
    source = f"""
// oobread: wild index far past a live buffer, into free heap space
// (region-legal, so only liveness can catch it).
long N = {n};

void main() {{
  long *a = (long*)malloc(sizeof(long) * N);
  long i;
  long acc = 0;
  for (i = 0; i < N; i++) {{ a[i] = i * 7 + 3; acc = acc + a[i]; }}
  long wild = a[N + 512];  // the planted bug: nobody owns those bytes
  print_long(acc + wild);
  free((char*)a);
}}
"""
    return Workload(
        name="oobread",
        suite="adversarial",
        description="load from free heap space past a live buffer",
        behavior="out-of-bounds",
        source=source,
    )


@_adversarial("oobwrite")
def oobwrite(scale: str) -> Workload:
    n = _tier(scale, 64, 256, 1024)
    source = f"""
// oobwrite: wild store past a live buffer, into free heap space.
long N = {n};

void main() {{
  long *a = (long*)malloc(sizeof(long) * N);
  long i;
  long acc = 0;
  for (i = 0; i < N; i++) {{ a[i] = i * 5 + 2; acc = acc + a[i]; }}
  a[N + 512] = 777;  // the planted bug: store to unowned heap space
  print_long(acc);
  free((char*)a);
}}
"""
    return Workload(
        name="oobwrite",
        suite="adversarial",
        description="store to free heap space past a live buffer",
        behavior="out-of-bounds",
        source=source,
    )
