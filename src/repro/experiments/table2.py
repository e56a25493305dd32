"""Table 2: characteristics of the evaluated workloads.

The paper's Table 2 lists the dimensions and sparsity of each SuiteSparse
matrix.  The reproduction lists the same columns for the synthetic stand-ins —
both the original (paper) values and the realized values of the synthetic
workload, so the scaling factor is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.registry import register
from repro.experiments.runner import ExperimentContext
from repro.utils.text import format_table


@dataclass(frozen=True)
class Table2Row:
    """One workload's characteristics."""

    name: str
    category: str
    paper_rows: int
    paper_sparsity: float
    rows: int
    cols: int
    nnz: int
    sparsity: float


@dataclass(frozen=True)
class Table2Result:
    rows: List[Table2Row]


@register(name="table2", artifact="Table 2",
          title="workload characteristics", kernels=("gram",))
def run(context: ExperimentContext) -> Table2Result:
    """Collect the workload characteristics of every suite entry."""
    rows = []
    for spec in context.suite:
        matrix = context.matrix(spec.name)
        rows.append(Table2Row(
            name=spec.name,
            category=spec.category,
            paper_rows=spec.paper_rows,
            paper_sparsity=spec.paper_sparsity,
            rows=matrix.num_rows,
            cols=matrix.num_cols,
            nnz=matrix.nnz,
            sparsity=matrix.sparsity,
        ))
    return Table2Result(rows=rows)


def format_result(result: Table2Result) -> str:
    """Render the table in the paper's layout (plus synthetic columns)."""
    return format_table(
        ["Tensor", "Class", "Paper dims", "Paper sparsity",
         "Synthetic dims", "Synthetic nnz", "Synthetic sparsity"],
        [
            (r.name, r.category, f"{r.paper_rows}x{r.paper_rows}",
             f"{r.paper_sparsity:.6%}", f"{r.rows}x{r.cols}", r.nnz,
             f"{r.sparsity:.4%}")
            for r in result.rows
        ],
        title="Table 2: characteristics of the evaluated tensors",
    )
