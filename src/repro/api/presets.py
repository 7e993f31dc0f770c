"""Named CKKS parameter presets for one-line session creation.

Choosing CKKS parameters requires balancing ring degree, chain length,
digit count and prime sizes — exactly the knobs a newcomer should not have
to learn before encrypting their first vector.  Each preset is a vetted
:class:`~repro.ckks.context.CKKSParams` instance; ``FHESession.create``
accepts a preset name (optionally with per-field overrides) so the
quickstart collapses to a single call.

The functional layer runs at small ring degrees (``2**8 .. 2**12``);
performance modelling of the paper's ``2**16``/``2**17`` benchmarks goes
through :mod:`repro.api.backends` and never instantiates these rings.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.ckks.context import CKKSParams
from repro.errors import ParameterError

#: Vetted parameter sets, smallest first.  ``n10_fast`` mirrors the
#: original quickstart; ``tiny_ci`` is the N=256 world the test suite uses.
PRESETS: Dict[str, CKKSParams] = {
    "tiny_ci": CKKSParams(n=256, num_levels=6, num_aux=2, dnum=3,
                          q_bits=28, p_bits=29, scale_bits=26),
    "n10_fast": CKKSParams(n=1 << 10, num_levels=6, num_aux=2, dnum=3,
                           q_bits=28, p_bits=29, scale_bits=26),
    # The two larger worlds use a chain whose primes match the scale, so
    # every rescale preserves it and the whole chain is usable depth (a
    # prime two bits above the scale loses those bits again per level),
    # under a 30-bit base prime for level-0 headroom — all within the
    # functional kernels' 30-bit modulus limit.
    "n11_balanced": CKKSParams(n=1 << 11, num_levels=8, num_aux=3, dnum=4,
                               q_bits=28, p_bits=30, scale_bits=28,
                               q0_bits=30),
    "n12_deep": CKKSParams(n=1 << 12, num_levels=10, num_aux=3, dnum=5,
                           q_bits=28, p_bits=30, scale_bits=28,
                           q0_bits=30),
    # Bootstrappable world: a 16-level chain whose primes match the scale
    # (so the Chebyshev ladder's rescales preserve it), a wide base prime
    # (q_0/Delta = 16 gives EvalMod's sine approximation headroom) and a
    # sparse secret bounding the ModRaise overflow.  Small ring: a
    # bootstrap is ~100 hybrid key switches, and the performance story
    # lives in the BOOT workload, not here.
    "n7_boot": CKKSParams(n=1 << 7, num_levels=16, num_aux=5, dnum=4,
                          q_bits=26, p_bits=29, scale_bits=26,
                          q0_bits=30, hamming_weight=8),
    "n8_boot": CKKSParams(n=1 << 8, num_levels=16, num_aux=5, dnum=4,
                          q_bits=26, p_bits=29, scale_bits=26,
                          q0_bits=30, hamming_weight=12),
}

DEFAULT_PRESET = "n10_fast"


def get_preset(name: str, **overrides: object) -> CKKSParams:
    """Look up a preset by name, optionally overriding individual fields."""
    key = name.lower()
    if key not in PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    params = PRESETS[key]
    return replace(params, **overrides) if overrides else params


def list_presets() -> List[str]:
    return list(PRESETS)
