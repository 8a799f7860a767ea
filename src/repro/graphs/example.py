"""The Figure-1 running-example financial graph, reconstructed.

The paper's Figure 1 is an image; its exact edge list is not in the
text.  This module reconstructs a graph that satisfies **every fact the
text states** about the figure (asserted in ``tests/test_example_graph``):

* Customer ``v7`` is named ``Alice`` and Owns account ``v1`` (Examples
  1, 3, 5); ``v8`` is a second customer.
* Accounts ``v1..v6`` carry ``city`` and ``acc`` (account-type)
  properties; transfers carry ``amt``, ``currency``, ``date`` and have
  label ``W`` (Wire) or ``DD`` (Dir-Deposit).
* ``t_i.date < t_j.date`` iff ``i < j`` (stated under Figure 1).
* ``t13`` goes from ``v2`` to ``v5`` (Example 4).
* ``v2``'s incoming transfers are ``{t5, t6, t17}`` and its outgoing
  transfers are ``{t7, t8, t13, t15}`` (Section 2.2.2).
* ``dst(t17) = v2`` and both ``t1`` and ``t16`` end at ``src(t17)=v4``,
  so ``t17`` appears in the MoneyFlow edge-bound lists of both ``t1``
  and ``t16`` (Figure 2b discussion).
* The MoneyFlow edge-bound list of ``t13`` (forward edges of ``v5``
  with a later date and smaller amount) is exactly ``{t19}``
  (Example 8).

Vertex ids: accounts 1..6, customers 7..8.  Edge ids: transfers 1..19
(= their ``t`` index), Owns edges 20..21.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.schema import PropertyGraph

# (eid, src, dst, elabel, amt, currency)
_TRANSFERS = [
    (1, 1, 4, "W", 1000.0, "USD"),
    (2, 1, 3, "W", 1200.0, "EUR"),
    (3, 5, 1, "DD", 650.0, "USD"),
    (4, 5, 3, "W", 980.0, "USD"),
    (5, 3, 2, "W", 720.0, "USD"),
    (6, 6, 2, "DD", 450.0, "CAD"),
    (7, 2, 1, "W", 810.0, "USD"),
    (8, 2, 6, "DD", 300.0, "EUR"),
    (9, 4, 6, "W", 530.0, "USD"),
    (10, 3, 4, "DD", 300.0, "USD"),
    (11, 6, 1, "W", 860.0, "EUR"),
    (12, 4, 5, "W", 910.0, "USD"),
    (13, 2, 5, "W", 500.0, "USD"),
    (14, 3, 6, "W", 640.0, "USD"),
    (15, 2, 3, "DD", 480.0, "USD"),
    (16, 6, 4, "DD", 700.0, "USD"),
    (17, 4, 2, "W", 600.0, "EUR"),
    (18, 5, 6, "DD", 800.0, "USD"),
    (19, 5, 4, "W", 450.0, "USD"),
]

_OWNS = [(20, 7, 1), (21, 8, 2)]

# (vid, vlabel, name, city, acc)
_VERTICES = [
    (1, "Account", None, "Waterloo", "CQ"),
    (2, "Account", None, "Toronto", "CQ"),
    (3, "Account", None, "Waterloo", "SV"),
    (4, "Account", None, "Toronto", "CQ"),
    (5, "Account", None, "Kitchener", "CQ"),
    (6, "Account", None, "Toronto", "SV"),
    (7, "Customer", "Alice", None, None),
    (8, "Customer", "Bob", None, None),
]


def example_graph(spark: SparkSession) -> PropertyGraph:
    """Build the running-example graph as a :class:`PropertyGraph`.

    Transfer dates are ``2020-01-01 + i`` days so the date order equals
    the ``t_i`` index order, as stated in the paper.
    """
    vdf = pd.DataFrame(
        _VERTICES, columns=["vid", "vlabel", "name", "city", "acc"]
    )
    base = pd.Timestamp("2020-01-01")
    edf = pd.DataFrame(
        _TRANSFERS, columns=["eid", "src", "dst", "elabel", "amt", "currency"]
    )
    edf["date"] = [base + pd.Timedelta(days=int(i)) for i in edf["eid"]]
    owns = pd.DataFrame(
        [(e, s, d, "Owns", float("nan"), None, pd.NaT) for e, s, d in _OWNS],
        columns=["eid", "src", "dst", "elabel", "amt", "currency", "date"],
    )
    edf = pd.concat([edf, owns[edf.columns]], ignore_index=True)
    return PropertyGraph("example", spark, vdf, edf)
