"""The paper's protocols (Figs. 2-6) and their agreement substrates.

On the coin path, re-exported here (point-to-point model, Section 4,
``n >= 6t+1``):

* :mod:`repro.protocols.bit_gen` — Protocol Bit-Gen (Fig. 4)
* :mod:`repro.protocols.coin_gen` — Protocol Coin-Gen (Fig. 5)
* :mod:`repro.protocols.coin_expose` — Protocol Coin-Expose (Fig. 6)
* :mod:`repro.protocols.gradecast` — Feldman-Micali Grade-Cast
* :mod:`repro.protocols.ba` — deterministic Byzantine agreement (phase king)
* :mod:`repro.protocols.clique` — consistency graph + Gavril clique finding
* :mod:`repro.protocols.batch_vss` — Protocol Batch-VSS (Fig. 3, the
  broadcast-channel model of Section 3, ``n >= 3t+1``)
* :mod:`repro.protocols.async_coin` — shared-coin exposure under
  adversarial message-at-a-time delivery (guarded programs, see
  :mod:`repro.net.guards`)

The last two are not imported by the synchronous pipeline, so their
names resolve on first use rather than at ``import repro.protocols``.

Off the coin path, imported from their own modules (each names the
claims-table row or example that runs it): :mod:`repro.protocols.vss`
(Fig. 2), :mod:`repro.protocols.eig`, :mod:`repro.protocols.broadcast`,
:mod:`repro.protocols.refresh`, :mod:`repro.protocols.recovery`.
"""

from importlib import import_module

from repro.protocols.context import ProtocolContext, as_context
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.gradecast import parallel_gradecast
from repro.protocols.ba import phase_king
from repro.protocols.clique import gavril_clique, mutual_graph
from repro.protocols.bit_gen import run_bit_gen, BitGenOutput
from repro.protocols.coin_gen import run_coin_gen, coin_gen_program, CoinGenOutput

#: public name -> the submodule that defines it, imported on first access
_LAZY = {
    "run_batch_vss": "batch_vss",
    "batch_vss_program": "batch_vss",
    "async_coin_program": "async_coin",
    "run_async_coin": "async_coin",
    "async_coin_bit": "async_coin",
}

__all__ = [
    "ProtocolContext",
    "as_context",
    "CoinShare",
    "coin_expose",
    "make_dealer_coin",
    "parallel_gradecast",
    "phase_king",
    "gavril_clique",
    "mutual_graph",
    "run_bit_gen",
    "BitGenOutput",
    "run_coin_gen",
    "coin_gen_program",
    "CoinGenOutput",
    *_LAZY,
]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(f"{__name__}.{module}"), name)
