"""repro.protocols — the protocol table.

Eight :class:`ProtocolSpec` rows (the paper's L/P/PI/C/Cx plus
mpcp/dpcp/fmlp) and :data:`REGISTRY`, their name/alias lookup;
everything else in the repo resolves protocols through it — config
validation, system builders, the model's solver sets and the
sanitizer's checker choice.  See DESIGN.md §12.
"""

from .registry import REGISTRY, TABLE, ProtocolSpec, UnknownProtocolError

__all__ = [
    "ProtocolSpec",
    "REGISTRY",
    "TABLE",
    "UnknownProtocolError",
]
