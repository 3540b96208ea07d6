"""DPCP: the distributed priority ceiling protocol.

Rajkumar/Sha's DPCP assigns every resource to a *synchronization
processor* and runs an independent priority-ceiling agent there; a job
needing a remote resource ships the request to the resource's agent
instead of to one global manager.  Surveyed in Brandenburg
(arXiv:1909.09600); evaluated for distributed real-time databases by
Yang et al. (arXiv:2007.00706).

The class below is the *per-agent* protocol: an ordinary priority
ceiling instance whose ceilings span only the resources routed to its
site.  The distributed behaviour lives in the table's placement
hooks (``placement="primary"`` in :mod:`repro.protocols.registry`):
under the global architecture :mod:`repro.dist.system` spawns one
agent per site and the transaction manager routes each lock request to
``catalog.primary_site(oid)`` — reusing the existing ceiling-manager
server loop, comms retries and cleanup couriers per agent.

On a single site (or in the fully replicated local mode, where every
site already runs its own manager over local resources) DPCP
degenerates to protocol C over the whole resource set; that
equivalence is pinned by a test rather than shared code paths being
assumed.
"""

from __future__ import annotations

from .priority_ceiling import PriorityCeiling


class DistributedPriorityCeiling(PriorityCeiling):
    """One DPCP synchronization-processor agent.

    Ceiling decisions consider only the transactions registered with
    *this* agent and the locks it manages — exactly the "all the
    information ... stored at the site" property the paper ascribes to
    its global manager, but replicated per resource partition.
    """

    name = "dpcp"

    def __init__(self, kernel):
        super().__init__(kernel, exclusive_only=False)
