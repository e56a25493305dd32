"""The pluggable kernel family: SpMSpM, SpMM, SpMV and SDDMM workloads.

The paper evaluates a single kernel — the Gram SpMSpM ``A × Aᵀ`` — but the
overbooking/Tailors traffic model only needs a *stationary* operand (tiled in
row blocks, possibly overbooking its buffer) and a *streaming* operand (scanned
once per stationary tile).  This module generalizes the workload layer into a
small kernel family behind one uniform interface:

* **SpMSpM** — ``Z[m,n] = A[m,k] * B[k,n]`` with two distinct sparse operands
  (:class:`~repro.tensor.einsum.MatmulWorkload`; the Gram case ``B = Aᵀ`` is
  its :meth:`~repro.tensor.einsum.MatmulWorkload.gram` constructor).
* **SpMM** — sparse × dense: ``A`` sparse, ``B`` a dense ``k × f`` factor
  (:class:`SpMMWorkload`), the shape of graph-neural-network aggregation.
* **SpMV** — sparse matrix × dense vector (:class:`SpMVWorkload`), the
  iterative-solver / PageRank primitive.
* **SDDMM** — sampled dense-dense matmul ``Z = S ⊙ (D₁ @ D₂)``
  (:class:`SDDMMWorkload`), the attention / factorization primitive whose
  output pattern is the sparse sampler ``S``.

Every workload exposes the same surface the model layer consumes:

``kernel``
    Kernel-family name (``"spmspm"``, ``"spmm"``, ``"spmv"``, ``"sddmm"``).
``einsum``
    The :class:`~repro.tensor.einsum.EinsumSpec` it instantiates.
``stationary_operand`` / ``streaming_operand``
    The two tiled operands of the stationary/streaming dataflow.  A dense
    streaming factor is a :class:`~repro.tensor.sparse.DenseOperand`: its
    shape alone, whose tile occupancies are their areas (the dense worst case
    ExTensor-N provisions for).  The tilers and engines read it exactly as
    they read a :class:`SparseMatrix`; no matrix is built for it.
``b_dense`` / ``x`` / ``d1``, ``d2``
    The dense factor values.  They matter only to ``reference_dense()``, so a
    workload built by :func:`build_kernel_workload` draws them from its own
    generator on first access, never on the evaluation path.
``operation_counts()``
    Exact effectual multiplies, *symbolic* output occupancy (no product is
    materialized) and the dense-engine work, as :class:`OperationCounts`.
``reference_dense()``
    A dense NumPy reference result used to validate the counts and semantics.

:data:`KERNELS` is the registry the suite/model/experiment layers use to
resolve kernels by name; :func:`build_kernel_workload` is the one constructor
the pipeline calls.

Public surface
--------------
:func:`kernel_names` / :func:`kernel_spec` (registry lookup; ``kernel_spec``
is the fail-fast validator every layer calls on its ``kernel`` argument),
:func:`build_kernel_workload` (suite + name + kernel → workload object), and
the workload classes themselves (:class:`SpMMWorkload`,
:class:`SpMVWorkload`, :class:`SDDMMWorkload`, plus
:class:`~repro.tensor.einsum.MatmulWorkload` for the SpMSpM pair).  The
kernel *name* is part of the evaluation identity — it appears in report memo
keys, scheduler requests, and the persistent report store's content
addresses (see ``docs/ARCHITECTURE.md``), so renaming a kernel invalidates
its cached evaluations by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.tensor.einsum import (
    EinsumSpec,
    MatmulWorkload,
    OperationCounts,
)
from repro.tensor.sparse import DenseOperand, SparseMatrix

#: Default inner rank of the dense factors of SpMM / SDDMM workloads.
DEFAULT_FEATURE_DIM = 32

#: The einsums of the new kernels (parsed once; ``spmv``/``sddmm`` are
#: deliberately *not* plain matmuls and are exercised by the EinsumSpec tests).
SPMM_EINSUM = EinsumSpec.parse("Z[m,f] = A[m,k] * B[k,f]")
SPMV_EINSUM = EinsumSpec.parse("z[m] = A[m,k] * x[k]")
SDDMM_EINSUM = EinsumSpec.parse("Z[m,n] = S[m,n] * P[m,n]")


@runtime_checkable
class KernelWorkload(Protocol):
    """Structural type every kernel workload satisfies (see module docstring)."""

    name: str

    @property
    def kernel(self) -> str: ...

    @property
    def einsum(self) -> EinsumSpec: ...

    @property
    def stationary_operand(self) -> SparseMatrix: ...

    @property
    def streaming_operand(self) -> SparseMatrix | DenseOperand: ...

    def operation_counts(self) -> OperationCounts: ...

    def reference_dense(self) -> np.ndarray: ...


def dense_operand(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A deterministic dense factor with no zero entries.

    Values are drawn uniformly from ``[0.5, 1.5)``, so every point of the
    factor is occupied, exactly as its :class:`DenseOperand` describes it, and
    dot products of positive values cannot cancel, keeping the symbolic
    output-occupancy counts exact.  Only :meth:`reference_dense` and callers
    that ask for a factor's values draw it; the model never does.
    """
    return rng.uniform(0.5, 1.5, size=(rows, cols))


def _nonzero_row_count(matrix: SparseMatrix) -> int:
    """Rows of ``matrix`` holding at least one nonzero (symbolic, O(rows))."""
    return int(np.count_nonzero(matrix.row_occupancies()))


class _DenseFactorWorkload:
    """Dense factors given as arrays, or drawn from a generator when first read.

    A workload handed a generator owns it: the first access to any factor
    draws all of them, in :meth:`_draw`'s order, and drops the generator.  No
    other code may draw from it, or the factors would change.
    """

    def _own_factors(self, factors: Optional[tuple],
                     rng: Optional[np.random.Generator]) -> None:
        if (factors is None) == (rng is None):
            raise ValueError("pass either the dense factors or the rng to draw "
                             "them from")
        self._factors = factors
        self._rng = rng

    def _factor_values(self) -> tuple:
        if self._factors is None:
            self._factors = self._draw(self._rng)
            self._rng = None
        return self._factors

    def _draw(self, rng: np.random.Generator) -> tuple:  # pragma: no cover
        raise NotImplementedError


class SpMMWorkload(_DenseFactorWorkload):
    """Sparse × dense: ``Z[m,f] = A[m,k] * B[k,f]`` with a dense factor ``B``.

    Pass ``b_dense``, or an ``rng`` (and ``feature_dim``) to draw the
    ``k × f`` factor from on first access.  Operation counting is exact and
    symbolic: every stored nonzero of ``A`` meets every one of the ``f``
    columns of ``B`` exactly once, and an output row is nonzero iff the
    corresponding row of ``A`` is (positive dense values cannot cancel).
    """

    kernel = "spmm"

    def __init__(self, a: SparseMatrix, b_dense: np.ndarray | None = None,
                 name: str | None = None, *,
                 rng: np.random.Generator | None = None,
                 feature_dim: int = DEFAULT_FEATURE_DIM):
        factors = None
        if b_dense is not None:
            b_dense = np.asarray(b_dense, dtype=np.float64)
            if b_dense.ndim != 2:
                raise ValueError(f"B must be a 2-D dense factor, got shape "
                                 f"{b_dense.shape}")
            if a.num_cols != b_dense.shape[0]:
                raise ValueError(
                    f"inner dimensions do not match: {a.num_cols} vs "
                    f"{b_dense.shape[0]}")
            factors = (b_dense,)
            feature_dim = b_dense.shape[1]
        self._own_factors(factors, rng)
        self.a = a
        self.feature_dim = int(feature_dim)
        self.name = name or f"{a.name} x dense[{self.feature_dim}]"
        self._streaming = DenseOperand(a.num_cols, self.feature_dim,
                                       name=f"{self.name}.B")

    def _draw(self, rng: np.random.Generator) -> tuple:
        return (dense_operand(rng, self.a.num_cols, self.feature_dim),)

    @property
    def b_dense(self) -> np.ndarray:
        """The ``k × f`` dense factor ``B``."""
        return self._factor_values()[0]

    @property
    def einsum(self) -> EinsumSpec:
        return SPMM_EINSUM

    @property
    def stationary_operand(self) -> SparseMatrix:
        return self.a

    @property
    def streaming_operand(self) -> DenseOperand:
        return self._streaming

    def operation_counts(self) -> OperationCounts:
        f = self.feature_dim
        return OperationCounts(
            effectual_multiplies=self.a.nnz * f,
            output_nonzeros=_nonzero_row_count(self.a) * f,
            dense_multiplies=self.a.num_rows * self.a.num_cols * f,
        )

    def reference_dense(self) -> np.ndarray:
        return self.a.to_dense() @ self.b_dense


class SpMVWorkload(_DenseFactorWorkload):
    """Sparse matrix × dense vector: ``z[m] = A[m,k] * x[k]``.

    The degenerate SpMM (``f = 1``): one effectual multiply per stored nonzero
    of ``A``, one output element per nonzero row.  Pass ``x``, or an ``rng``
    to draw it from on first access.
    """

    kernel = "spmv"

    def __init__(self, a: SparseMatrix, x: np.ndarray | None = None,
                 name: str | None = None, *,
                 rng: np.random.Generator | None = None):
        factors = None
        if x is not None:
            x = np.asarray(x, dtype=np.float64).reshape(-1)
            if a.num_cols != x.shape[0]:
                raise ValueError(
                    f"inner dimensions do not match: {a.num_cols} vs "
                    f"{x.shape[0]}")
            factors = (x,)
        self._own_factors(factors, rng)
        self.a = a
        self.name = name or f"{a.name} x vector"
        self._streaming = DenseOperand(a.num_cols, 1, name=f"{self.name}.x")

    def _draw(self, rng: np.random.Generator) -> tuple:
        return (dense_operand(rng, self.a.num_cols, 1).reshape(-1),)

    @property
    def x(self) -> np.ndarray:
        """The length-``k`` dense vector."""
        return self._factor_values()[0]

    @property
    def einsum(self) -> EinsumSpec:
        return SPMV_EINSUM

    @property
    def stationary_operand(self) -> SparseMatrix:
        return self.a

    @property
    def streaming_operand(self) -> DenseOperand:
        return self._streaming

    def operation_counts(self) -> OperationCounts:
        return OperationCounts(
            effectual_multiplies=self.a.nnz,
            output_nonzeros=_nonzero_row_count(self.a),
            dense_multiplies=self.a.num_rows * self.a.num_cols,
        )

    def reference_dense(self) -> np.ndarray:
        return self.a.to_dense() @ self.x


class SDDMMWorkload(_DenseFactorWorkload):
    """Sampled dense-dense matmul: ``Z = S ⊙ (D₁ @ D₂)``.

    ``S`` (sparse, ``m × n``) samples the dense product of ``D₁`` (``m × f``)
    and ``D₂`` (``f × n``): every stored nonzero of ``S`` requires one
    ``f``-long dot product plus the sampling scale, so the effectual work is
    ``nnz(S) · (f + 1)`` multiplies and the output pattern is exactly ``S``'s.
    For the traffic model the sampler ``S`` is the stationary (tiled) operand
    and the dense factor ``D₂`` streams; ``D₁`` rows ride along with their
    ``S`` row tiles.  Pass ``d1`` and ``d2``, or an ``rng`` (and
    ``feature_dim``) to draw them from on first access, ``D₁`` first.
    """

    kernel = "sddmm"

    def __init__(self, s: SparseMatrix, d1: np.ndarray | None = None,
                 d2: np.ndarray | None = None, name: str | None = None, *,
                 rng: np.random.Generator | None = None,
                 feature_dim: int = DEFAULT_FEATURE_DIM):
        factors = None
        if d1 is not None or d2 is not None:
            d1 = np.asarray(d1, dtype=np.float64)
            d2 = np.asarray(d2, dtype=np.float64)
            if d1.ndim != 2 or d2.ndim != 2:
                raise ValueError("D1 and D2 must be 2-D dense factors")
            if d1.shape[1] != d2.shape[0]:
                raise ValueError(
                    f"inner dimensions do not match: {d1.shape[1]} vs "
                    f"{d2.shape[0]}")
            if (s.num_rows, s.num_cols) != (d1.shape[0], d2.shape[1]):
                raise ValueError(
                    f"sampler shape {s.csr.shape} does not match dense "
                    f"product shape {(d1.shape[0], d2.shape[1])}")
            factors = (d1, d2)
            feature_dim = d1.shape[1]
        self._own_factors(factors, rng)
        self.s = s
        self.feature_dim = int(feature_dim)
        self.name = name or f"{s.name} sddmm[{self.feature_dim}]"
        self._streaming = DenseOperand(self.feature_dim, s.num_cols,
                                       name=f"{self.name}.D2")

    def _draw(self, rng: np.random.Generator) -> tuple:
        d1 = dense_operand(rng, self.s.num_rows, self.feature_dim)
        d2 = dense_operand(rng, self.s.num_cols, self.feature_dim).T
        return d1, d2

    @property
    def d1(self) -> np.ndarray:
        """The ``m × f`` dense factor ``D₁``."""
        return self._factor_values()[0]

    @property
    def d2(self) -> np.ndarray:
        """The ``f × n`` dense factor ``D₂``."""
        return self._factor_values()[1]

    @property
    def einsum(self) -> EinsumSpec:
        return SDDMM_EINSUM

    @property
    def stationary_operand(self) -> SparseMatrix:
        return self.s

    @property
    def streaming_operand(self) -> DenseOperand:
        return self._streaming

    def operation_counts(self) -> OperationCounts:
        f = self.feature_dim
        m, n = self.s.num_rows, self.s.num_cols
        return OperationCounts(
            effectual_multiplies=self.s.nnz * (f + 1),
            output_nonzeros=self.s.nnz,
            dense_multiplies=m * n * f + m * n,
        )

    def reference_dense(self) -> np.ndarray:
        return self.s.to_dense() * (self.d1 @ self.d2)


# --------------------------------------------------------------------- #
# Kernel registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelSpec:
    """Registry entry describing one kernel of the family.

    Attributes
    ----------
    name:
        Kernel name used across the pipeline (CLI ``--kernel``, memo keys,
        scheduler requests, sweep grids).
    einsum:
        The einsum expression the kernel instantiates.
    title:
        One-line description for reports and ``python -m repro list``.
    needs_paired_operand:
        Whether the kernel consumes a second *sparse* operand (general
        SpMSpM); the suite derives it deterministically when the workload
        spec carries no explicit ``b_builder``.
    needs_dense_operand:
        Whether the kernel consumes deterministic dense factors (SpMM / SpMV
        / SDDMM) and therefore a random stream.
    stream_salt:
        Stable per-kernel salt mixed into the dense-operand random stream so
        different kernels on the same workload draw independent factors.
        (A literal constant, not ``hash(name)`` — ``hash`` of strings is
        process-randomized and the streams must match across scheduler
        workers.)
    """

    name: str
    einsum: str
    title: str
    needs_paired_operand: bool = False
    needs_dense_operand: bool = False
    stream_salt: int = 0


#: The kernel family, keyed by name.  ``"gram"`` is the paper's kernel; the
#: rest are the scenario extensions this refactor unlocks.
KERNELS: Dict[str, KernelSpec] = {
    spec.name: spec for spec in (
        KernelSpec(
            name="gram",
            einsum="Z[m,n] = A[m,k] * A^T[k,n]",
            title="Gram SpMSpM A x A^T (the paper's kernel)",
        ),
        KernelSpec(
            name="spmspm",
            einsum="Z[m,n] = A[m,k] * B[k,n]",
            title="general SpMSpM with two distinct sparse operands",
            needs_paired_operand=True,
        ),
        KernelSpec(
            name="spmm",
            einsum="Z[m,f] = A[m,k] * B[k,f]",
            title="SpMM: sparse x dense feature factor",
            needs_dense_operand=True,
            stream_salt=101,
        ),
        KernelSpec(
            name="spmv",
            einsum="z[m] = A[m,k] * x[k]",
            title="SpMV: sparse matrix x dense vector",
            needs_dense_operand=True,
            stream_salt=211,
        ),
        KernelSpec(
            name="sddmm",
            einsum="Z[m,n] = S[m,n] * (D1 @ D2)[m,n]",
            title="SDDMM: dense product sampled by the sparse pattern",
            needs_dense_operand=True,
            stream_salt=307,
        ),
    )
}


def kernel_names() -> Tuple[str, ...]:
    """The registered kernel names, Gram first."""
    return tuple(KERNELS)


def kernel_spec(name: str) -> KernelSpec:
    """The :class:`KernelSpec` registered as ``name`` (KeyError with hint)."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; "
                       f"known: {list(KERNELS)}") from None


def build_kernel_workload(kernel: str, matrix: SparseMatrix, *,
                          name: str | None = None,
                          paired_matrix: SparseMatrix | None = None,
                          rng: np.random.Generator | None = None,
                          feature_dim: int = DEFAULT_FEATURE_DIM):
    """Instantiate the ``kernel`` workload for ``matrix``.

    Parameters
    ----------
    kernel:
        A name from :data:`KERNELS`.
    matrix:
        The primary sparse operand (``A``, or the sampler ``S`` for SDDMM).
    name:
        Workload name for reports (defaults to the kernel's own naming).
    paired_matrix:
        Second sparse operand, required by ``"spmspm"``.
    rng:
        Generator for the deterministic dense factors, required by
        ``"spmm"`` / ``"spmv"`` / ``"sddmm"``.  The workload takes ownership
        of it and draws its factors from it only when they are first read
        (``reference_dense()``, or a test reading ``b_dense``/``x``/``d1``/
        ``d2``); the caller must not draw from it afterwards.
    feature_dim:
        Inner rank ``f`` of the dense factors of SpMM and SDDMM.
    """
    spec = kernel_spec(kernel)
    if spec.needs_paired_operand and paired_matrix is None:
        raise ValueError(f"kernel {kernel!r} requires a paired sparse operand")
    if spec.needs_dense_operand and rng is None:
        raise ValueError(f"kernel {kernel!r} requires an rng for its dense "
                         "factors")
    if kernel == "gram":
        return MatmulWorkload.gram(matrix, name=name)
    if kernel == "spmspm":
        return MatmulWorkload(a=matrix, b=paired_matrix,
                              name=name or f"{matrix.name} x B")
    if kernel == "spmm":
        return SpMMWorkload(matrix, name=name, rng=rng,
                            feature_dim=feature_dim)
    if kernel == "spmv":
        return SpMVWorkload(matrix, name=name, rng=rng)
    if kernel == "sddmm":
        return SDDMMWorkload(matrix, name=name, rng=rng,
                             feature_dim=feature_dim)
    raise KeyError(f"unknown kernel {kernel!r}")  # pragma: no cover
