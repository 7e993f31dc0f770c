"""One-object FHE sessions: context, keys, codecs and estimation in one place.

The seed quickstart hand-wired six objects (params -> context -> keygen /
encoder / encryptor / decryptor / evaluator) and threaded every evk by
hand.  ``FHESession`` owns that whole constellation:

* ``FHESession.create("n10_fast")`` builds everything from a named preset
  (:mod:`repro.api.presets`);
* relinearization, conjugation and per-step rotation keys are generated
  lazily on first use and cached — repeated rotations by the same step
  reuse one Galois key, mirroring how accelerator runtimes stage evks;
* ``encrypt`` returns fluent :class:`~repro.api.cipher.CipherVector`
  handles; ``encrypt_many`` / ``rotate_many`` batch the common fan-out
  patterns (``rotate_many`` routes through the hoisting path so all
  rotations of one ciphertext share a single ModUp);
* ``estimate`` forwards to the backend registry
  (:mod:`repro.api.backends`), so the same session object also answers
  performance questions about the paper's accelerator-scale benchmarks.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.api.backends import (
    EstimateOptions,
    RunReport,
    Workload,
    estimate as _estimate,
)
from repro.api.cipher import CipherBatch, CipherVector
from repro.api.plan import Plan, build_plan
from repro.api.presets import DEFAULT_PRESET, get_preset
from repro.ckks.batch import is_batched
from repro.ckks.bootstrap import BootstrapConfig, BootstrapKeys, Bootstrapper
from repro.ckks.context import CKKSContext, CKKSParams
from repro.ckks.encoding import Encoder
from repro.ckks.encrypt import Ciphertext, Decryptor, Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator, KeySwitchKey, rotation_galois_element
from repro.ckks.noise import NoiseEstimate, NoiseModel
from repro.errors import NoiseBudgetError, NoiseBudgetWarning, ParameterError
from repro.rns.poly import RNSPoly

#: What :meth:`FHESession.check_noise` does when the tracked budget hits
#: zero: raise, warn (default), or skip tracking entirely.
NOISE_POLICIES = ("strict", "warn", "off")


class FHESession:
    """A complete CKKS working set behind one handle."""

    def __init__(self, params: CKKSParams, *, seed: Optional[int] = 0,
                 noise_policy: str = "warn"):
        if noise_policy not in NOISE_POLICIES:
            raise ParameterError(
                f"unknown noise policy {noise_policy!r}; "
                f"expected one of {NOISE_POLICIES}"
            )
        #: ``"strict"`` raises :class:`NoiseBudgetError` at decryption
        #: when the tracked budget is gone, ``"warn"`` (default) emits a
        #: :class:`NoiseBudgetWarning`, ``"off"`` disables tracking.
        self.noise_policy = noise_policy
        self.params = params
        self.context = CKKSContext(params)
        self.keygen = KeyGenerator(self.context, seed=seed)
        self.encoder = Encoder(self.context)
        enc_seed = None if seed is None else seed + 1
        self.encryptor = Encryptor(self.context, self.keygen.public_key(),
                                   seed=enc_seed)
        self.decryptor = Decryptor(self.context, self.keygen.secret_key)
        self.evaluator = Evaluator(self.context)
        self._relin_key: Optional[KeySwitchKey] = None
        self._conj_key: Optional[KeySwitchKey] = None
        #: Galois keys cached by Galois element (steps that differ by a
        #: multiple of the slot count share one key).
        self._galois_keys: Dict[int, KeySwitchKey] = {}
        self._bootstrapper: Optional[Bootstrapper] = None
        self._bootstrap_keys: Optional[BootstrapKeys] = None
        self._noise_model: Optional[NoiseModel] = None

    @classmethod
    def create(cls, preset: Union[str, CKKSParams] = DEFAULT_PRESET, *,
               seed: Optional[int] = 0, noise_policy: str = "warn",
               **overrides: Any) -> "FHESession":
        """Build a session from a preset name (or explicit params).

        Keyword overrides patch individual preset fields, e.g.
        ``FHESession.create("n10_fast", num_levels=8)``.
        """
        if isinstance(preset, CKKSParams):
            if overrides:
                raise ParameterError(
                    "pass field overrides only with a preset name; "
                    "use dataclasses.replace on explicit CKKSParams"
                )
            return cls(preset, seed=seed, noise_policy=noise_policy)
        return cls(get_preset(preset, **overrides), seed=seed,
                   noise_policy=noise_policy)

    @classmethod
    def from_params(cls, params: CKKSParams, *, seed: Optional[int] = 0,
                    noise_policy: str = "warn") -> "FHESession":
        return cls(params, seed=seed, noise_policy=noise_policy)

    # -- metadata ----------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return self.encoder.num_slots

    @property
    def max_level(self) -> int:
        return self.params.max_level

    def __repr__(self) -> str:
        return (
            f"FHESession(N={self.params.n}, slots={self.num_slots}, "
            f"levels={self.params.num_levels}, dnum={self.params.dnum}, "
            f"cached_keys={self.key_cache_info()})"
        )

    # -- noise tracking ----------------------------------------------------------

    @property
    def noise_model(self) -> NoiseModel:
        """The session's heuristic noise tracker (built on first use)."""
        if self._noise_model is None:
            self._noise_model = NoiseModel(self.context)
        return self._noise_model

    def _fresh_noise(self, ct: Ciphertext) -> Optional[NoiseEstimate]:
        """Encryption-noise estimate pinned to ``ct``'s level and scale
        (``None`` when the session's policy disables tracking)."""
        if self.noise_policy == "off":
            return None
        fresh = self.noise_model.fresh()
        if fresh.level == ct.level and fresh.scale == ct.scale:
            return fresh
        return NoiseEstimate(fresh.log2_noise, ct.level, ct.scale)

    def check_noise(self, noise: Optional[NoiseEstimate]) -> None:
        """Enforce the session's noise policy against a tracked bound.

        Called by :meth:`decrypt` (and :meth:`CipherBatch.decrypt <
        repro.api.cipher.CipherBatch.decrypt>`) with the ciphertext's
        tracked :class:`~repro.ckks.noise.NoiseEstimate`.  A non-positive
        :meth:`~repro.ckks.noise.NoiseEstimate.budget_bits` means the
        heuristic bound has reached ``Q_level / 2`` — the decode is
        unreliable.  Policy ``"strict"`` raises
        :class:`~repro.errors.NoiseBudgetError`, ``"warn"`` (default)
        emits a :class:`~repro.errors.NoiseBudgetWarning`, ``"off"``
        (or an untracked ciphertext) is a no-op.
        """
        if noise is None or self.noise_policy == "off":
            return
        budget = noise.budget_bits(self.context)
        if budget > 0.0:
            return
        message = (
            f"noise budget exhausted: {budget:.1f} bits remaining at "
            f"level {noise.level} (tracked bound 2^{noise.log2_noise:.1f}"
            f" vs Q/2) — decryption is unreliable; bootstrap earlier or "
            f"use a preset with more levels"
        )
        if self.noise_policy == "strict":
            raise NoiseBudgetError(message)
        warnings.warn(message, NoiseBudgetWarning, stacklevel=3)

    # -- lazy key material -------------------------------------------------------

    @property
    def relin_key(self) -> KeySwitchKey:
        """The relinearization evk (generated on first multiply)."""
        if self._relin_key is None:
            self._relin_key = self.keygen.relinearization_key()
        return self._relin_key

    @property
    def conjugation_key(self) -> KeySwitchKey:
        if self._conj_key is None:
            self._conj_key = self.keygen.conjugation_key()
        return self._conj_key

    def galois_key(self, galois_element: int) -> KeySwitchKey:
        """Cached Galois evk for an explicit automorphism element."""
        key = self._galois_keys.get(galois_element)
        if key is None:
            key = self.keygen.galois_key(galois_element)
            self._galois_keys[galois_element] = key
        return key

    def rotation_key(self, steps: int) -> KeySwitchKey:
        """Cached Galois evk for a slot rotation by ``steps``."""
        return self.galois_key(rotation_galois_element(steps, self.params.n))

    def key_cache_info(self) -> Dict[str, int]:
        """How many evks this session has generated so far."""
        return {
            "relin": int(self._relin_key is not None),
            "conjugation": int(self._conj_key is not None),
            "galois": len(self._galois_keys),
        }

    def missing_evks(self, workload: Workload) -> Dict[str, int]:
        """Evk kinds a workload needs that this session has not generated.

        The static-analysis prevalidation hook: the analyzer's
        :func:`~repro.analysis.required_evks` derives the evk demand of a
        workload program (relin keys from multiplies, Galois keys from
        rotations), and this method subtracts what :meth:`key_cache_info`
        says is already cached.  Returns ``{kind: max_level}`` for each
        kind still missing — empty means every first-use generation cost
        has already been paid.
        """
        from repro.analysis import required_evks
        from repro.workloads import resolve_workload

        resolved = resolve_workload(workload)
        needed = required_evks(resolved)
        have = self.key_cache_info()
        return {
            kind: level for kind, level in needed.items()
            if not have.get(kind, 0)
        }

    # -- bootstrapping ------------------------------------------------------------

    def bootstrapper(self, config: Optional[BootstrapConfig] = None) -> Bootstrapper:
        """The session's bootstrap circuit (built on first use).

        Pass a :class:`BootstrapConfig` on the *first* call to shape the
        pipeline (DFT factor count, sine degree); later calls must not
        contradict the circuit already built, since its rotation keys may
        already be cached.
        """
        if self._bootstrapper is None:
            self._bootstrapper = Bootstrapper(self.context, config)
        elif config is not None and config != self._bootstrapper.config:
            raise ParameterError(
                "bootstrapper already built with a different config; "
                "create a fresh session to change the bootstrap shape"
            )
        return self._bootstrapper

    def bootstrap_keys(self) -> BootstrapKeys:
        """Evks the bootstrap circuit needs, served from the lazy caches.

        Like :attr:`relin_key`, generation happens on first use: the
        relinearization and conjugation keys plus one rotation key per
        distinct DFT step (all shared with ordinary rotations by the same
        amounts).
        """
        bs = self.bootstrapper()
        if self._bootstrap_keys is None:
            self._bootstrap_keys = BootstrapKeys(
                relin=self.relin_key,
                conjugation=self.conjugation_key,
                rotations={
                    s: self.rotation_key(s)
                    for s in bs.required_rotation_steps()
                },
            )
        return self._bootstrap_keys

    def bootstrap(self, ct: Union[CipherVector, Ciphertext]) -> CipherVector:
        """Refresh a ciphertext: same message, level budget restored.

        A :class:`CipherBatch` (or raw batched ciphertext) runs the whole
        pipeline as one stacked circuit for all B members, amortizing
        every hybrid key switch, and comes back as a :class:`CipherBatch`.
        """
        raw = ct.ciphertext if isinstance(ct, CipherVector) else ct
        out = self.bootstrapper().bootstrap(self.evaluator, raw,
                                            self.bootstrap_keys())
        # A refreshed ciphertext restarts its noise budget at fresh-
        # encryption levels (pinned to the pipeline's output level).
        if is_batched(out):
            return CipherBatch(self, out, noise=self._fresh_noise(out))
        return CipherVector(self, out, noise=self._fresh_noise(out))

    # -- encode / encrypt / decrypt ----------------------------------------------

    def encode(self, values: Any, *, level: Optional[int] = None,
               scale: Optional[float] = None) -> RNSPoly:
        return self.encoder.encode(values, level=level, scale=scale)

    def decode(self, poly: RNSPoly, *, scale: Optional[float] = None) -> np.ndarray:
        return self.encoder.decode(poly, scale=scale)

    def encrypt(self, values: Any, *, level: Optional[int] = None,
                scale: Optional[float] = None) -> CipherVector:
        """Encode + encrypt a slot vector (or scalar broadcast)."""
        pt = self.encoder.encode(values, level=level, scale=scale)
        ct = self.encryptor.encrypt(pt, level=level, scale=scale)
        return CipherVector(self, ct, noise=self._fresh_noise(ct))

    def encrypt_many(self, vectors: Iterable[Any], *,
                     level: Optional[int] = None,
                     scale: Optional[float] = None) -> List[CipherVector]:
        """Encrypt a batch of slot vectors in one call."""
        return [self.encrypt(v, level=level, scale=scale) for v in vectors]

    def encrypt_batch(self, vectors: Iterable[Any], *,
                      level: Optional[int] = None,
                      scale: Optional[float] = None) -> CipherBatch:
        """Encrypt B slot vectors into one stacked :class:`CipherBatch`.

        Members are encrypted one at a time (the encryptor's rng draws
        stay in the same order as :meth:`encrypt_many`, so each member is
        bit-identical to its standalone encryption) and stacked into a
        ``(B, L, N)`` batched ciphertext whose every subsequent operation
        runs as one kernel pass for all B users.
        """
        return CipherBatch.from_vectors(
            self.encrypt_many(vectors, level=level, scale=scale)
        )

    def decrypt(self, ct: Union[CipherVector, Ciphertext],
                *, scale: Optional[float] = None) -> np.ndarray:
        """Decrypt back to the complex slot vector (scale read from the ct).

        A :class:`CipherVector` with a tracked noise bound is checked
        against the session's :attr:`noise_policy` first (see
        :meth:`check_noise`).
        """
        if isinstance(ct, CipherVector):
            self.check_noise(ct.noise)
        raw = ct.ciphertext if isinstance(ct, CipherVector) else ct
        return self.encoder.decode(
            self.decryptor.decrypt(raw), scale=scale or raw.scale
        )

    # -- batched rotations ---------------------------------------------------------

    def rotate_many(self, ct: Union[CipherVector, Ciphertext],
                    steps: Sequence[int]) -> Dict[int, CipherVector]:
        """Rotate one ciphertext by many steps with a single shared ModUp.

        Routes through :func:`repro.ckks.hoisting.hoisted_rotations`, the
        Halevi-Shoup optimization accelerator runtimes use: the expensive
        ModUp of ``c1`` is paid once and every rotation reuses it.  Keys
        come from (and populate) the session cache.  Returns a mapping
        from step to result, bit-identical to one-at-a-time rotation;
        steps that normalize to 0 need no key switch and map to a copy.
        A batched ciphertext shares one ModUp across *all* B members as
        well as all steps.
        """
        raw = ct.ciphertext if isinstance(ct, CipherVector) else ct
        normalized: Dict[int, int] = {s: s % self.num_slots for s in steps}
        nonzero = {n for n in normalized.values() if n != 0}
        keys = {n: self.rotation_key(n) for n in nonzero}
        rotated = self.evaluator.hoisted_rotations(raw, keys) if keys else {}
        wrap = CipherBatch if is_batched(raw) else CipherVector
        base = ct.noise if isinstance(ct, CipherVector) else None
        turned = None
        if base is not None and self.noise_policy != "off":
            turned = self.noise_model.rotate(
                NoiseEstimate(base.log2_noise, raw.level, raw.scale)
            )
        return {
            s: wrap(self, rotated[n], noise=turned) if n
            else wrap(self, raw.copy(), noise=base)
            for s, n in normalized.items()
        }

    # -- performance estimation ----------------------------------------------------

    def plan(self, workload: Workload, *, backend: str = "rpu",
             schedule: str = "OC",
             options: Optional[EstimateOptions] = None,
             **option_fields: Any) -> Plan:
        """Resolve an estimate request into a typed, executable :class:`Plan`.

        The plan/execute split of :meth:`estimate`: the workload name,
        backend, schedule and options are validated and frozen once, and
        the returned :class:`~repro.api.plan.Plan` is hashable,
        JSON-serializable and content-addressed (``plan.digest``) — the
        unit the serving layer (:mod:`repro.serve`) batches, dedups and
        caches.  ``plan(...).run()`` is bit-identical to
        ``estimate(...)`` with the same arguments.
        """
        return build_plan(workload, backend=backend, schedule=schedule,
                          options=options, **option_fields)

    def estimate(self, workload: Workload, *, backend: str = "rpu",
                 schedule: Union[str, Sequence[str]] = "OC",
                 **options: Any) -> Union[RunReport, List[RunReport]]:
        """Estimate an accelerator-scale workload via the backend registry.

        ``workload`` is a paper Table III benchmark name or spec, or a
        phase-structured workload program (``"BOOT"``, ``"RESNET_BOOT"``,
        ``"HELR"`` or any :class:`~repro.workloads.ir.WorkloadProgram`) —
        programs are priced phase by phase at descending chain levels,
        with the breakdown on ``report.phases``.  See
        :func:`repro.api.backends.estimate` for schedules and options.
        The session's functional parameters are independent of the
        performance model, so any session can answer these queries.

        Back-compat wrapper: each (workload, schedule) point builds a
        :meth:`plan` and executes it, so results match ``plan().run()``
        bit for bit.
        """
        return _estimate(workload, backend=backend, schedule=schedule, **options)
