"""The typed-slot oracle: every frame slot holds its IR type's Python type.

Both compiled tiers read a slot or global whose IR type already gives
the Python type a template needs without an ``int()``/``float()``
wrapper (:func:`repro.machine.codegen._convert`), which is sound only if
every slot write on every engine stores ``int`` for an integer or
pointer value and ``float`` for a float one.  This file runs programs
with a checking slot dict in every frame and fails on the first write
of another type: the workloads on three engines in both addressing
modes, the soak, the scattered policy run, a two-tenant ``smp`` run and
the differential suite's random Mini-C programs.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings

from repro.carat.pipeline import CompileOptions, compile_carat
from repro.cli import main
from repro.ir.types import FloatType, IntType, PointerType
from repro.machine.interp import Interpreter
from repro.machine.session import CaratSession, RunConfig
from repro.workloads import get_workload, workload_names
from tests.test_fastexec_differential import mini_c_programs

ENGINES = ("reference", "fast", "trace")


class SlotTypeError(BaseException):
    """A slot write of the wrong Python type.  A ``BaseException``, so no
    guest-fault handler (``except Exception``) can swallow it."""


_PY_TYPES = {IntType: int, PointerType: int, FloatType: float}
_TYPES = {}


def _slot_types(function):
    """Slot id -> the Python type its IR type requires, for ``function``."""
    owner, types = _TYPES.get(id(function), (None, None))
    if owner is not function:
        values = list(function.args) + list(function.instructions())
        types = {id(v): _PY_TYPES.get(type(v.type)) for v in values}
        _TYPES[id(function)] = function, types
    return types


class _TypedSlots(dict):
    """A frame's slot dict that checks every write."""

    __slots__ = ("types", "function")

    def __init__(self, function, slots) -> None:
        super().__init__()
        self.types = _slot_types(function)
        self.function = function
        for key, value in slots.items():
            self[key] = value

    def __setitem__(self, key, value) -> None:
        want = self.types.get(key)
        if type(value) is not want:
            raise SlotTypeError(
                f"@{self.function.name}: slot {key} of Python type "
                f"{want and want.__name__} written with {value!r}"
            )
        dict.__setitem__(self, key, value)


class _TypedFrames(list):
    """An interpreter's frame stack: every pushed frame gets a checking
    slot dict (its arguments are checked as they move in)."""

    def append(self, frame) -> None:
        frame.values = _TypedSlots(frame.function, frame.values)
        list.append(self, frame)


@pytest.fixture
def typed_slots(monkeypatch):
    """Every interpreter built while the fixture is active checks its
    slot writes; the function-type table is kept per test."""
    init = Interpreter.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.frames = _TypedFrames()

    monkeypatch.setattr(Interpreter, "__init__", checked)
    yield
    _TYPES.clear()


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.usefixtures("typed_slots")
class TestSlotTypes:
    @pytest.mark.parametrize("name", workload_names())
    def test_workloads_write_typed_slots(self, name):
        source = get_workload(name, "tiny").source
        for mode in ("carat", "traditional"):
            outputs = set()
            for engine in ENGINES:
                config = RunConfig(
                    mode=mode, engine=engine, name=name, trace_threshold=2
                )
                result = CaratSession(config).run(source)
                outputs.add(tuple(result.output))
            assert len(outputs) == 1

    def test_soak_policy_and_smp_write_typed_slots(self):
        code, _ = _cli(
            "soak", "--requests", "400", "--tenants", "2", "--chaos-rate", "2",
            "--seed", "7", "--engine", "trace",
        )
        assert code == 0
        for engine in ENGINES:
            code, out = _cli("policy", "cg", "--scatter", "--engine", engine)
            assert code == 0 and "frag before" in out
            code, _ = _cli("smp", "ep", "--tenants", "2", "--engine", engine)
            assert code == 0

    @given(mini_c_programs())
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_programs_write_typed_slots(self, source):
        binary = compile_carat(source, CompileOptions(), module_name="fuzz")
        for engine in ENGINES:
            config = RunConfig(engine=engine, trace_threshold=2)
            CaratSession(config).run(binary)


def test_float_undef_reads_as_a_float(typed_slots):
    # A loop-carried double with no initializer is an undef float phi
    # incoming value: it must read 0.0, and print the same everywhere.
    source = """
    void main() {
      double f;
      long i;
      for (i = 0; i < 40; i++) {
        if (i > 3) { f = f * 0.5 + (double)i; }
      }
      print_double(f);
    }
    """
    outputs = set()
    for engine in ENGINES:
        result = CaratSession(RunConfig(engine=engine, trace_threshold=2)).run(source)
        outputs.add(tuple(result.output))
    assert len(outputs) == 1
