"""Shared test helpers: a compact ``run_*`` call shape over the session API.

Tests that want a positional program plus ``kernel=``/``setup=``/
``engine=`` keywords import these.  Each helper is an explicit veneer
over :class:`~repro.machine.session.CaratSession`, so every test
exercises the real run path.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.carat.pipeline import CaratBinary, CompileOptions
from repro.kernel.kernel import DEFAULT_HEAP, DEFAULT_STACK, Kernel
from repro.machine.executor import RunResult
from repro.machine.session import CaratSession, RunConfig
from repro.sanitizer import Sanitizer


def _run(
    mode: str,
    program: Union[str, CaratBinary],
    kernel: Optional[Kernel],
    options: Optional[CompileOptions],
    setup: Optional[Callable],
    sanitizer: Optional[Sanitizer],
    **config_fields,
) -> RunResult:
    config = RunConfig(mode=mode, **config_fields)
    session = CaratSession(
        config, kernel=kernel, sanitizer=sanitizer, setup=setup
    )
    return session.run(program, options=options)


def run_carat(
    program: Union[str, CaratBinary],
    kernel: Optional[Kernel] = None,
    guard_mechanism: str = "mpx",
    options: Optional[CompileOptions] = None,
    entry: str = "main",
    max_steps: int = 50_000_000,
    heap_size: int = DEFAULT_HEAP,
    stack_size: int = DEFAULT_STACK,
    name: str = "program",
    setup: Optional[Callable] = None,
    sanitize: bool = False,
    sanitizer: Optional[Sanitizer] = None,
    engine: str = "reference",
    safety: bool = False,
    agents: int = 0,
) -> RunResult:
    """Full CARAT treatment on physical addressing."""
    return _run(
        "carat", program, kernel, options, setup, sanitizer,
        guard_mechanism=guard_mechanism, entry=entry, max_steps=max_steps,
        heap_size=heap_size, stack_size=stack_size, name=name,
        sanitize=sanitize, engine=engine, safety=safety, agents=agents,
    )


def run_carat_baseline(
    program: Union[str, CaratBinary],
    kernel: Optional[Kernel] = None,
    entry: str = "main",
    max_steps: int = 50_000_000,
    heap_size: int = DEFAULT_HEAP,
    stack_size: int = DEFAULT_STACK,
    name: str = "program",
    sanitize: bool = False,
    sanitizer: Optional[Sanitizer] = None,
    engine: str = "reference",
) -> RunResult:
    """The uninstrumented program on physical addressing."""
    return _run(
        "baseline", program, kernel, None, None, sanitizer,
        entry=entry, max_steps=max_steps, heap_size=heap_size,
        stack_size=stack_size, name=name, sanitize=sanitize, engine=engine,
    )


def run_traditional(
    program: Union[str, CaratBinary],
    kernel: Optional[Kernel] = None,
    entry: str = "main",
    max_steps: int = 50_000_000,
    heap_size: int = DEFAULT_HEAP,
    stack_size: int = DEFAULT_STACK,
    name: str = "program",
    sanitize: bool = False,
    sanitizer: Optional[Sanitizer] = None,
    engine: str = "reference",
) -> RunResult:
    """The paging model: uninstrumented binary, MMU on every access."""
    return _run(
        "traditional", program, kernel, None, None, sanitizer,
        entry=entry, max_steps=max_steps, heap_size=heap_size,
        stack_size=stack_size, name=name, sanitize=sanitize, engine=engine,
    )
