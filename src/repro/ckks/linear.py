"""Encrypted linear transforms via diagonal decomposition + BSGS.

Computes ``W @ z`` for an encrypted slot vector ``z`` using the classic
diagonal method: ``W @ z = sum_d diag_d(W) * rot(z, d)``, organized
baby-step/giant-step so only ``O(sqrt(D))`` distinct rotations are needed.
This is how fully-connected layers and convolutions run under CKKS — the
workload whose thousands of rotations make hybrid key switching the
bottleneck the paper attacks (ResNet-20: 3,306 rotations, ~70% HKS time).

The baby steps are computed with *hoisting* (one shared ModUp), composing
the two classical optimizations this library implements; the giant-step
rotations, independent of each other, share one stacked key switch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.ckks.encoding import Encoder
from repro.ckks.encrypt import Ciphertext
from repro.ckks.evaluator import Evaluator, member_groups
from repro.ckks.keys import KeyGenerator, KeySwitchKey
from repro.errors import EncodingError, ParameterError


class LinearTransform:
    """A plaintext matrix prepared for encrypted evaluation.

    Parameters
    ----------
    encoder:
        Encoder bound to the evaluation context.
    matrix:
        Real/complex square matrix of size ``<= num_slots``; it acts on
        the first ``dim`` slots (cyclically within that block requires
        ``dim`` to divide the slot count).
    """

    def __init__(self, encoder: Encoder, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError("linear transform needs a square matrix")
        dim = matrix.shape[0]
        slots = encoder.num_slots
        if dim > slots or slots % dim != 0:
            raise ParameterError(
                f"matrix dim {dim} must divide the slot count {slots}"
            )
        self.encoder = encoder
        self.dim = dim
        self.matrix = matrix
        self.baby = int(math.ceil(math.sqrt(dim)))
        self.giant = int(math.ceil(dim / self.baby))
        #: encoded, pre-rotated diagonals keyed by (giant i, baby j).
        self._diagonals: Dict[tuple, Optional[np.ndarray]] = {}
        #: plaintext encodings of the diagonals keyed by (i, j, level) — a
        #: transform evaluated repeatedly at one level (every bootstrap
        #: call, every BSGS giant step) encodes each diagonal only once.
        self._encoded: Dict[tuple, "object"] = {}
        self._prepare()

    def _diagonal(self, d: int) -> np.ndarray:
        """Generalized diagonal d of the matrix, tiled across all slots."""
        idx = np.arange(self.dim)
        diag = self.matrix[idx, (idx + d) % self.dim]
        reps = self.encoder.num_slots // self.dim
        return np.tile(diag, reps)

    def _prepare(self) -> None:
        for i in range(self.giant):
            for j in range(self.baby):
                d = i * self.baby + j
                if d >= self.dim:
                    continue
                diag = self._diagonal(d)
                if not np.any(diag):
                    self._diagonals[(i, j)] = None  # skip zero diagonals
                    continue
                # BSGS pre-rotation: giant step i rotates by baby*i after
                # the plaintext product, so the diagonal is pre-rotated back.
                self._diagonals[(i, j)] = np.roll(diag, self.baby * i)

    def _encoded_diagonal(self, i: int, j: int, level: int):
        """Cached encoding of diagonal ``(i, j)`` at ``level`` (scale Delta)."""
        key = (i, j, level)
        pt = self._encoded.get(key)
        if pt is None:
            pt = self.encoder.encode(self._diagonals[(i, j)], level=level)
            self._encoded[key] = pt
        return pt

    def required_rotations(self) -> Dict[str, List[int]]:
        """Baby and giant rotation steps actually used by non-zero diagonals.

        Baby steps a zero diagonal would have used are pruned — for sparse
        matrices (e.g. the factored DFT stages of bootstrapping, three
        diagonals each) this is the difference between ``O(sqrt(D))`` and
        ``O(1)`` rotations per stage.
        """
        baby = sorted({
            j
            for (i, j), diag in self._diagonals.items()
            if diag is not None and j > 0
        })
        giant = [
            self.baby * i
            for i in range(1, self.giant)
            if any(self._diagonals.get((i, j)) is not None for j in range(self.baby))
        ]
        return {"baby": baby, "giant": giant}

    def evaluate(
        self,
        evaluator: Evaluator,
        ct: Ciphertext,
        baby_keys: Dict[int, KeySwitchKey],
        giant_keys: Dict[int, KeySwitchKey],
        hoist: bool = True,
    ) -> Ciphertext:
        """Encrypted ``W @ z``; one rescale is applied at the end.

        Each giant row's ``sum_j diag_ij * rot(z, j)`` is one fused
        multiply-accumulate (:meth:`Evaluator.dot_plain`), and the rows
        ``i > 0`` rotate by ``baby * i`` together through
        :meth:`Evaluator.rotate_each`, one key switch per group of at
        most :data:`~repro.ckks.evaluator.MAX_STACK_MEMBERS` members.
        Bit-identical to one multiply, add and rotation at a time.
        """
        needed = self.required_rotations()
        missing = [s for s in needed["baby"] if s not in baby_keys]
        missing += [s for s in needed["giant"] if s not in giant_keys]
        if missing:
            raise ParameterError(f"missing rotation keys for steps {missing}")

        # Baby steps: rot(z, j) for j in [0, baby); hoisting shares ModUp.
        baby_cts: Dict[int, Ciphertext] = {0: ct}
        steps = [j for j in needed["baby"]]
        if steps:
            if hoist:
                baby_cts.update(
                    evaluator.hoisted_rotations(
                        ct, {j: baby_keys[j] for j in steps}
                    )
                )
            else:
                baby_cts.update(zip(steps, self._rotate_all(
                    evaluator, [ct] * len(steps), steps, baby_keys)))

        # Giant rows: inner_i = sum_j diag_ij * rot_j, one fused pass each.
        rows: List[int] = []
        inners: List[Ciphertext] = []
        for i in range(self.giant):
            js = [j for j in range(self.baby)
                  if self._diagonals.get((i, j)) is not None]
            if not js:
                continue
            rows.append(i)
            inners.append(evaluator.dot_plain(
                [baby_cts[j] for j in js],
                [self._encoded_diagonal(i, j, ct.level) for j in js],
            ))
        if not rows:
            raise EncodingError("matrix is identically zero")
        # Rotate rows i > 0 by baby*i in stacked key switches, then sum.
        start = 1 if rows[0] == 0 else 0
        rotated = inners[:start] + self._rotate_all(
            evaluator, inners[start:], [self.baby * i for i in rows[start:]],
            giant_keys)
        total = rotated[0]
        for inner in rotated[1:]:
            total = evaluator.add(total, inner)
        return evaluator.rescale(total)

    @staticmethod
    def _rotate_all(evaluator: Evaluator, cts: List[Ciphertext],
                    steps: List[int],
                    keys: Dict[int, KeySwitchKey]) -> List[Ciphertext]:
        """``cts[i]`` rotated by ``steps[i]``, through one
        :meth:`Evaluator.rotate_each` per member group."""
        out: List[Ciphertext] = []
        for run in member_groups(cts):
            out += evaluator.rotate_each(
                [cts[i] for i in run], [steps[i] for i in run],
                [keys.get(steps[i]) for i in run],
            )
        return out


def generate_bsgs_keys(
    keygen: KeyGenerator, transform: LinearTransform
) -> tuple:
    """Convenience: rotation keys for all required baby and giant steps."""
    needed = transform.required_rotations()
    baby = {j: keygen.rotation_key(j) for j in needed["baby"]}
    giant = {s: keygen.rotation_key(s) for s in needed["giant"]}
    return baby, giant
