"""Execution layer: the pruning flow's scan sets → Spark DataFrames.

``exec_ops.execute`` plans a query in Spark over the scan sets that
``repro.core.flow.run_pruning_flow`` chose; ``filtered_scan``,
``topk_execute`` and ``pruned_hash_join`` are one-shape entry points
over the flow and ``execute``.  ``datasource`` registers the
``lakescan`` Python DataSource whose ``pushFilters`` hook performs
manifest min/max pruning inside Catalyst's pushdown phase.
"""
