"""Shared fixtures and IR-building helpers for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.carat import pipeline
from repro.ir import (
    Function,
    FunctionType,
    I64,
    IRBuilder,
    Module,
    ptr,
)
from repro.transform.pass_manager import optimize_module


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "boundary_verify: compile with the production default, which "
        "verifies only the optimizer's input and the final module",
    )


def verify_each_pass(monkeypatch) -> None:
    """Make every ``compile_carat`` verify the module after each
    optimization pass (LLVM's ``opt -verify-each``), so a pass that breaks
    the IR fails at that pass, named in the error."""
    monkeypatch.setattr(
        pipeline, "optimize_module", functools.partial(optimize_module, verify=True)
    )


@pytest.fixture(autouse=True)
def _verify_each_pass(request, monkeypatch):
    """Every compile in the suite verifies after each pass, unless the
    test is marked ``boundary_verify``.  Tests that run deliberately
    invalid IR compile it with ``optimize=False, verify=False``, so no
    pass runs and nothing verifies it."""
    if request.node.get_closest_marker("boundary_verify") is None:
        verify_each_pass(monkeypatch)


@pytest.fixture
def module():
    return Module("test")


def build_count_loop(module: Module, name: str = "count", bound=None):
    """A canonical counted loop::

        define i64 @count(i64* %arr, i64 %n) {
        entry:  br loop
        loop:   %i = phi [0, entry], [%i.next, body]
                %c = icmp slt %i, %n ; br %c, body, exit
        body:   %p = gep %arr, %i ; %v = load %p
                %i.next = add %i, 1 ; br loop
        exit:   ret %i
        }

    Returns (fn, dict of named values).
    """
    fn = Function(name, FunctionType(I64, [ptr(I64), I64]), module, ["arr", "n"])
    entry = fn.add_block("entry")
    loop = fn.add_block("loop")
    body = fn.add_block("body")
    exit_block = fn.add_block("exit")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I64, "i")
    n = bound if bound is not None else fn.args[1]
    cond = b.icmp("slt", i, n)
    b.cond_br(cond, body, exit_block)
    b.position_at_end(body)
    p = b.gep(fn.args[0], [i])
    v = b.load(p)
    i_next = b.add(i, b.i64(1))
    b.br(loop)
    b.position_at_end(exit_block)
    b.ret(i)
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(i_next, body)
    return fn, {
        "entry": entry,
        "loop": loop,
        "body": body,
        "exit": exit_block,
        "i": i,
        "cond": cond,
        "p": p,
        "v": v,
        "i_next": i_next,
    }


SUM_SOURCE = """
long N = 64;
long total;
long sum(long *a, long n) {
  long s = 0;
  long i;
  for (i = 0; i < n; i++) { s += a[i]; }
  return s;
}
void main() {
  long *a = (long*)malloc(sizeof(long) * N);
  long i;
  for (i = 0; i < N; i++) { a[i] = i; }
  total = sum(a, N);
  print_long(total);
  free((char*)a);
}
"""

LINKED_LIST_SOURCE = """
struct Node { long value; struct Node *next; };
struct Node *head;
void main() {
  long i;
  for (i = 0; i < 40; i++) {
    struct Node *node = (struct Node*)malloc(sizeof(struct Node));
    node->value = i;
    node->next = head;
    head = node;
  }
  long total = 0;
  struct Node *p = head;
  while (p != null) { total += p->value; p = p->next; }
  print_long(total);
}
"""


def machine_fingerprint(kernel, process):
    """Every piece of machine state a failed move must leave untouched:
    the byte image, regions, frame allocator, heap metadata, kernel-side
    maps, the allocation table, and the (flushed) escape map.  The
    rollback tests assert fingerprint equality across a faulted move."""
    runtime = process.runtime
    runtime.flush_escapes()
    layout = process.layout
    allocations = sorted(runtime.table, key=lambda a: a.address)
    return {
        "memory": bytes(kernel.memory._data),
        "regions": tuple(
            (r.base, r.length, r.perms) for r in process.regions
        ),
        "frames_free": kernel.frames.free_frames,
        "free_runs": tuple(kernel.frames.free_runs(None)),
        "heap": process.heap.snapshot_state() if process.heap else None,
        "globals": dict(process.globals_map),
        "layout": (
            layout.stack_base,
            layout.globals_base,
            layout.code_base,
            layout.heap_base,
        ),
        "table": tuple((a.address, a.size) for a in allocations),
        "escapes": tuple(
            (a.address, tuple(sorted(runtime.escapes.escapes_of(a))))
            for a in allocations
        ),
    }
