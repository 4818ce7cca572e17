"""The compiler's output, pinned, and verified where it leaves the pipeline.

Every registered workload at ``tiny`` scale, compiled under each of the
five configurations the experiment harness builds, must give the module
text and metadata (the bytes ``sign_module`` signs) committed in
``benchmarks/golden/signed_modules.txt``: once verified at the pipeline's
boundaries only, as a production compile is, and once verified after
every pass.  A pass that breaks the IR must still stop a default
compile at the final check, before anything is signed.

Regenerate the golden file only when a change moves the compiler's
output on purpose, and say why in ``CHANGES.md``::

    PYTHONPATH=src python tests/test_compiler_output.py > benchmarks/golden/signed_modules.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from harness import _compile_options  # noqa: E402

from repro.carat import pipeline  # noqa: E402
from repro.carat.pipeline import compile_carat  # noqa: E402
from repro.carat.signing import _canonical_bytes  # noqa: E402
from repro.errors import VerificationError  # noqa: E402
from repro.ir.instructions import BinaryInst  # noqa: E402
from repro.transform import pass_manager  # noqa: E402
from repro.workloads import get_workload, workload_names  # noqa: E402

GOLDEN = BENCHMARKS / "golden" / "signed_modules.txt"

#: The harness's configurations with distinct compile options
#: (``traditional`` compiles as ``baseline`` does).
CONFIGS = ("baseline", "guards_general", "guards_carat", "tracking", "full")


def signed_module_digests() -> Dict[Tuple[str, str], str]:
    """(workload, configuration) -> sha256 of the signed bytes."""
    digests = {}
    for name in workload_names():
        source = get_workload(name, "tiny").source
        for config in CONFIGS:
            binary = compile_carat(source, _compile_options(config), module_name=name)
            assert binary.is_signed
            signed = _canonical_bytes(binary.module, binary.metadata)
            digests[name, config] = hashlib.sha256(signed).hexdigest()
    return digests


def _golden() -> Dict[Tuple[str, str], str]:
    digests = {}
    for line in GOLDEN.read_text().splitlines():
        name, config, digest = line.split()
        digests[name, config] = digest
    return digests


@pytest.mark.boundary_verify
def test_signed_modules_match_golden(monkeypatch):
    from tests.conftest import verify_each_pass  # not importable as a script

    boundary = signed_module_digests()
    verify_each_pass(monkeypatch)
    per_pass = signed_module_digests()
    assert [key for key in boundary if per_pass[key] != boundary[key]] == []
    golden = _golden()
    assert sorted(golden) == sorted(boundary)
    assert [key for key in golden if boundary[key] != golden[key]] == []


PROGRAM = """
long total;
void main() {
  long i;
  for (i = 0; i < 10; i++) { total = total + i * 3; }
  print_long(total);
}
"""


def _plant_undominated_use(module) -> int:
    """A broken pass: in ``@main``, it adds an instruction just before the
    first binary op's definition that uses that op's result."""
    fn = module.get_function("main")
    definition = next(i for i in fn.instructions() if isinstance(i, BinaryInst))
    use = BinaryInst("add", definition, definition, fn.unique_name("planted"))
    definition.parent.insert_before(definition, use)
    return 1


@pytest.fixture
def planted(monkeypatch):
    """Append the broken pass to the standard pipeline and record every
    call to ``sign_module``."""
    standard = pass_manager.standard_optimization_pipeline

    def with_planted_pass(*args, **kwargs):
        return standard(*args, **kwargs).add("planted", _plant_undominated_use)

    monkeypatch.setattr(
        pass_manager, "standard_optimization_pipeline", with_planted_pass
    )
    signed = []
    sign_module = pipeline.sign_module
    monkeypatch.setattr(
        pipeline, "sign_module", lambda *args: signed.append(args) or sign_module(*args)
    )
    return signed


@pytest.mark.boundary_verify
def test_a_default_compile_verifies_twice(monkeypatch):
    """Once where the IR enters the optimizer, in place of the frontend's
    own check, and once before signing."""
    from repro.frontend.lower import compile_source
    from repro.ir import verifier

    calls = []
    verify_module = verifier.verify_module

    def counted(where):
        return lambda module: calls.append(where) or verify_module(module)

    monkeypatch.setattr(verifier, "verify_module", counted("frontend"))
    monkeypatch.setattr(pass_manager, "verify_module", counted("optimizer"))
    monkeypatch.setattr(pipeline, "verify_module", counted("final"))
    compile_carat(PROGRAM)
    assert calls == ["optimizer", "final"]
    calls.clear()
    compile_source(PROGRAM)
    assert calls == ["frontend"]


@pytest.mark.boundary_verify
def test_the_optimizer_refuses_a_broken_input_module(monkeypatch):
    from repro.frontend.lower import compile_source
    from repro.transform import mem2reg

    module = compile_source(PROGRAM)
    _plant_undominated_use(module)
    passes = []
    monkeypatch.setattr(mem2reg, "run_on_module", passes.append)
    with pytest.raises(VerificationError, match="not dominated"):
        compile_carat(module)
    assert passes == []


@pytest.mark.boundary_verify
def test_planted_pass_bug_stops_the_default_compile(planted):
    with pytest.raises(VerificationError, match="not dominated") as error:
        compile_carat(PROGRAM)
    assert "after pass" not in str(error.value)  # the final check caught it
    assert planted == []


def test_planted_pass_bug_is_named_with_per_pass_checks(planted):
    with pytest.raises(VerificationError, match="after pass 'planted'"):
        compile_carat(PROGRAM)
    assert planted == []


if __name__ == "__main__":
    for (name, config), digest in signed_module_digests().items():
        print(name, config, digest)
