"""Binary signing (Section 4.1, third task).

The CARAT compiler signs its output so the kernel can verify *which
toolchain* produced a binary before trusting the guards inside it — the
same scheme as .NET CIL signing.  We sign the canonical textual form of
the module plus its metadata with HMAC-SHA256 under a toolchain key.

The kernel holds a set of trusted toolchain identities; at load time it
recomputes the MAC and refuses binaries whose signature fails or whose
toolchain it does not trust (see :meth:`repro.kernel.kernel.Kernel.load`).
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SigningError
from repro.ir.module import Module
from repro.ir.printer import print_module

#: The default toolchain identity of this compiler build.
DEFAULT_TOOLCHAIN = "repro-carat-llvm-9.0"

#: Built-in toolchain keys.  A production kernel would use public-key
#: signatures; HMAC keeps the trust handshake intact without a crypto
#: dependency.
_TOOLCHAIN_KEYS: Dict[str, bytes] = {
    DEFAULT_TOOLCHAIN: b"carat-toolchain-key-v1",
}


def toolchain_key(name: str) -> bytes:
    try:
        return _TOOLCHAIN_KEYS[name]
    except KeyError:
        raise SigningError(f"unknown toolchain {name!r}")


@dataclass
class Signature:
    """A toolchain identity plus the HMAC digest it produced."""

    toolchain: str
    digest: str  # hex HMAC-SHA256

    def to_json(self) -> str:
        return json.dumps({"toolchain": self.toolchain, "digest": self.digest})

    @classmethod
    def from_json(cls, text: str) -> "Signature":
        data = json.loads(text)
        return cls(toolchain=data["toolchain"], digest=data["digest"])


def _canonical_bytes(module: Module, metadata: Dict[str, object]) -> bytes:
    body = print_module(module)
    meta = json.dumps(metadata, sort_keys=True, default=str)
    return body.encode("utf-8") + b"\x00" + meta.encode("utf-8")


def sign_module(
    module: Module,
    metadata: Optional[Dict[str, object]] = None,
    toolchain: str = DEFAULT_TOOLCHAIN,
) -> Signature:
    key = toolchain_key(toolchain)
    digest = hmac.new(
        key, _canonical_bytes(module, metadata or {}), hashlib.sha256
    ).hexdigest()
    return Signature(toolchain=toolchain, digest=digest)


def verify_signature(
    module: Module,
    signature: Signature,
    metadata: Optional[Dict[str, object]] = None,
    trusted_toolchains: Optional[set] = None,
) -> bool:
    """True when the signature is authentic *and* the toolchain is trusted.

    Raises :class:`SigningError` for unknown toolchains (no key to check
    against); returns False for a wrong digest or an untrusted toolchain.
    """
    if trusted_toolchains is not None and signature.toolchain not in trusted_toolchains:
        return False
    key = toolchain_key(signature.toolchain)
    expected = hmac.new(
        key, _canonical_bytes(module, metadata or {}), hashlib.sha256
    ).hexdigest()
    return hmac.compare_digest(expected, signature.digest)
