"""Lake table: write/read micro-partitioned Parquet + manifest.

Writing is pure Arrow, and the manifest is recorded as the partitions
are written — as Snowflake records a micro-partition's metadata when it
creates the partition (§3), and as Iceberg computes its manifest column
metrics at commit time:

* clustered layout  — stable-sort by the cluster key (ascending, nulls
  first, as Spark's range partitioning orders them), cut at the exact
  quantiles ``i·n/N``, and move each cut forward to the next key change
  so equal keys stay in one partition, as ``repartitionByRange`` keeps
  them.  Each file then covers a narrow value range, like Snowflake's
  clustered micro-partitions;
* random layout     — a seeded permutation cut into equal slices,
  modelling arrival-order ingestion with no useful value locality.

Each slice becomes one ``data/part-NNNNN.parquet`` file, dictionary-
encoded where Spark's own writer would be (see :func:`_dictionary_pays`),
and its per-column min/max/null-count statistics come from the in-memory
slice with Spark's aggregate semantics (see :func:`_col_stats`).  Spark
reads them through temp views over one cached relation per table
(:meth:`LakeTable.scan`).
"""
from __future__ import annotations

import json
import math
import shutil
import uuid
from functools import cached_property
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyspark.sql import SparkSession
from pyspark.sql import types as T
from pyspark.sql.pandas.types import from_arrow_schema

from repro.core.expr import Expr, columns as expr_columns, to_arrow
from repro.core.stats import ColStats, PartitionStats
from .manifest import Manifest, PartitionMeta

_TYPE_TAGS = {
    T.ByteType: "int",
    T.ShortType: "int",
    T.IntegerType: "int",
    T.LongType: "int",
    T.FloatType: "float",
    T.DoubleType: "float",
    T.StringType: "str",
    T.DateType: "date",
    T.TimestampType: "datetime",
    T.BooleanType: "bool",
}


def _type_tag(dt: T.DataType) -> str:
    for klass, tag in _TYPE_TAGS.items():
        if isinstance(dt, klass):
            return tag
    return "other"


def _spark_ascending_order(table: pa.Table, cluster_by: Sequence[str]) -> pa.Array:
    """Stable sort indices in Spark's ascending order: nulls first, NaN
    after every number (Arrow alone would put NaN right after nulls)."""
    keys = []
    for c in cluster_by:
        if pa.types.is_floating(table.schema.field(c).type):
            keys.append(pc.is_nan(table.column(c)))  # null, False, then True
        keys.append(table.column(c))
    keys = pa.table(keys, names=[str(i) for i in range(len(keys))])
    return pc.sort_indices(
        keys, sort_keys=[(n, "ascending") for n in keys.column_names],
        null_placement="at_start",
    )


def _cuts(table: pa.Table, n_partitions: int, cluster_by: Optional[Sequence[str]]) -> List[int]:
    """Slice boundaries ``[0, c1, …, n]`` of ``table`` (already in layout
    order), with empty slices dropped."""
    n = table.num_rows
    cuts = [i * n // n_partitions for i in range(n_partitions + 1)]
    if cluster_by and n > 1:
        # Positions where the cluster key differs from the previous row;
        # a cut may only sit on one of these (or at the end).
        change = np.zeros(n - 1, dtype=bool)
        for c in cluster_by:
            a, b = table.column(c).slice(1), table.column(c).slice(0, n - 1)
            same = pc.or_kleene(pc.equal(a, b), pc.and_(pc.is_null(a), pc.is_null(b)))
            if pa.types.is_floating(a.type):  # Spark groups NaN as one value
                same = pc.or_kleene(same, pc.and_kleene(pc.is_nan(a), pc.is_nan(b)))
            change |= ~pc.fill_null(same, False).to_numpy()
        allowed = np.append(np.flatnonzero(change) + 1, n)
        cuts = [0] + allowed[np.searchsorted(allowed, cuts[1:])].tolist()
    return sorted(set(cuts))


def _dictionary_pays(col: pa.ChunkedArray) -> bool:
    """Spark's Parquet writer (parquet-mr) keeps a column's dictionary
    only when dictionary plus indices are smaller than the plain values;
    Arrow would dictionary-encode every column.  A dictionary over
    near-unique values makes readers decode it, and Spark's dictionary
    filter scan it, for nothing — so apply parquet-mr's rule."""
    n, d = len(col), pc.count_distinct(col).as_py()
    try:
        width = col.type.bit_width / 8
    except ValueError:  # strings and binaries: length prefix + bytes
        width = (pc.sum(pc.binary_length(col)).as_py() or 0) / n + 4
    return d * width + n * max(1, (d - 1).bit_length()) / 8 < n * width


def _col_stats(arr: pa.ChunkedArray) -> ColStats:
    """min/max/null count of one column with Spark's ``min``/``max``
    semantics: NaN is the greatest double, so ``max`` is NaN when any
    NaN is present and ``min`` is NaN when every non-null value is NaN
    (Arrow's ``min_max`` skips NaN).  Timestamps are naive datetimes in
    the local time zone, as Spark's ``collect()`` returns them."""
    nulls = arr.null_count
    if nulls == len(arr):
        return ColStats(None, None, nulls)
    if pa.types.is_timestamp(arr.type):
        per_s = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}[arr.type.unit]
        mm = pc.min_max(arr.cast(pa.int64()))
        lo, hi = (
            T.TimestampType().fromInternal(mm[k].as_py() * 10**6 // per_s)
            for k in ("min", "max")
        )
        return ColStats(lo, hi, nulls)
    mm = pc.min_max(arr)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if pa.types.is_floating(arr.type):
        nans = pc.sum(pc.is_nan(arr)).as_py()
        if nans == len(arr) - nulls:
            lo = hi = math.nan
        elif nans:
            hi = math.nan
    return ColStats(lo, hi, nulls)


class LakeTable:
    """A micro-partitioned table: data directory + in-memory manifest."""

    def __init__(self, path: str | Path, manifest: Manifest):
        self.path = Path(path)
        self.manifest = manifest
        self._views: Optional[Tuple[SparkSession, str, str]] = None  # see scan

    # -- construction ------------------------------------------------------

    @staticmethod
    def write(
        table: pa.Table,
        path: str | Path,
        *,
        n_partitions: int,
        cluster_by: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        seed: int = 0,
    ) -> "LakeTable":
        """Partition ``table`` into at most ``n_partitions`` micro-partitions
        and persist data + manifest under ``path``, replacing any data
        already there.  Fewer partitions result when a cluster-key value
        spans a cut or the table has fewer rows than ``n_partitions``.
        """
        path = Path(path).absolute()
        data_dir = path / "data"
        table = table.replace_schema_metadata(None)
        if cluster_by:
            order = _spark_ascending_order(table, cluster_by)
        else:
            order = np.random.default_rng(seed).permutation(table.num_rows)
        table = table.take(order)

        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.mkdir(parents=True)
        cuts = _cuts(table, n_partitions, cluster_by)
        partitions: List[PartitionMeta] = []
        for pid, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            part = table.slice(lo, hi - lo)
            file = data_dir / f"part-{pid:05d}.parquet"
            dictionary = [c for c in part.column_names if _dictionary_pays(part.column(c))]
            pq.write_table(part, file, use_dictionary=dictionary)
            stats = PartitionStats(
                row_count=part.num_rows,
                columns={c: _col_stats(part.column(c)) for c in part.column_names},
            )
            partitions.append(PartitionMeta(pid=pid, path=str(file), stats=stats))

        schema = from_arrow_schema(table.schema)
        manifest = Manifest(
            name=name or path.name,
            schema_json=schema.json(),
            column_types={f.name: _type_tag(f.dataType) for f in schema.fields},
            partitions=partitions,
        )
        manifest.save(path / "manifest.json")
        return LakeTable(path, manifest)

    @staticmethod
    def load(path: str | Path) -> "LakeTable":
        path = Path(path)
        return LakeTable(path, Manifest.load(path / "manifest.json"))

    # -- reading -----------------------------------------------------------

    @cached_property
    def schema(self) -> T.StructType:
        return T.StructType.fromJson(json.loads(self.manifest.schema_json))

    @cached_property
    def _file_column(self) -> str:
        """Name under which the file-name view shows ``_metadata.file_name``;
        no data column has it (Spark resolves names case-insensitively)."""
        taken = {n.lower() for n in self.schema.names}
        name = "_file_name"
        while name in taken:
            name = "_" + name
        return name

    def scan(self, spark: SparkSession, metas: Iterable[PartitionMeta]) -> str:
        """Spark SQL relation over exactly the scan set ``metas`` (a subset
        of this table's partitions), as ``(SELECT * EXCEPT (<file>) FROM
        <view> WHERE <file> IN (…))``.

        The views are registered once per instance and session over the
        table's one relation on ``data/``, so a query lists no files.  A
        temp view hides ``_metadata``, so one view selects
        ``_metadata.file_name`` as :attr:`_file_column`; Spark applies the
        ``IN`` to the listed files when it plans the scan, and the scan
        opens exactly the scan set.  A scan set holding every partition
        is the plain view itself, with no filter: over all files the
        filter costs 2× native, and any scan of a view that selects
        ``_metadata`` reads every metadata field and a row index, even
        when the file name is dropped.  An empty scan set gets
        ``WHERE false``, planned as a scan of no file.  The writer's
        ``part-NNNNN.parquet`` names need no quoting.
        """
        if self._views is None or self._views[0] is not spark:
            relation = spark.read.schema(self.schema).parquet(str(self.path / "data"))
            plain, named = (f"lake_{uuid.uuid4().hex}" for _ in range(2))
            relation.createTempView(plain)
            relation.selectExpr(
                "*", f"_metadata.file_name AS {self._file_column}"
            ).createTempView(named)
            self._views = (spark, plain, named)
        _, plain, named = self._views
        names = [Path(m.path).name for m in metas]
        if len(names) == self.manifest.n_partitions:
            return plain
        file = self._file_column
        listed = ", ".join(f"'{n}'" for n in names)
        where = f"{file} IN ({listed})" if names else "false"
        return f"(SELECT * EXCEPT ({file}) FROM {named} WHERE {where})"

    def read_partition_pandas(
        self,
        meta: PartitionMeta,
        columns: Optional[List[str]] = None,
        filter: Optional[Expr] = None,
    ) -> pd.DataFrame:
        """Single-partition read on the simulated warehouse-worker path.

        Returns the rows where predicate ``filter`` is TRUE (``None``
        keeps every row), with only ``columns`` (``None``: all).  The
        filter's own columns are read too and it runs in memory through
        `repro.core.expr.to_arrow`, not inside the Parquet read: Arrow's
        writer leaves NaN out of a file's min/max, so a filter pushed
        into the read may skip a row group whose NaN rows are TRUE in
        Spark's order.  Dates arrive as ``datetime.date``, the type of
        the manifest stats.  The file is read on the calling thread
        through ``ParquetFile``: for one small file that is ≈10× faster
        than ``pq.read_table``, which plans a dataset scan.
        """
        read = columns
        if filter is not None and columns is not None:
            read = [*columns, *sorted(expr_columns(filter) - set(columns))]
        with pq.ParquetFile(meta.path) as f:
            rows = f.read(columns=read, use_threads=False)
        if filter is not None:
            rows = rows.filter(to_arrow(filter))
            if columns is not None:
                rows = rows.select(columns)
        return rows.to_pandas()
