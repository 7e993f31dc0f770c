"""RNS substrate: bases, CRT, polynomials, and fast basis conversion."""

from repro.rns.basis import RNSBasis
from repro.rns.bconv import BasisConverter, get_converter
from repro.rns.crt import CRTEngine, get_engine
from repro.rns.poly import Domain, RNSPoly, get_ntt_context

__all__ = [
    "BasisConverter",
    "CRTEngine",
    "Domain",
    "RNSBasis",
    "RNSPoly",
    "get_converter",
    "get_engine",
    "get_ntt_context",
]
