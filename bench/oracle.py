"""Exact marginals by sum-product in log space, independent of fglift.inference.

The synthetic hub-and-cohort graphs are trees (individuals meet only at
``hub``), so one upward pass of messages towards the query variable gives
its exact marginal. Messages are kept as natural logarithms and combined
with log-sum-exp, so no product of potentials can overflow or underflow
float64, whatever the graph's size. The oracle reads only the graph's
public structure (``rvs``, ``factors``, ``factors_of``, table arrays).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class OracleMarginal:
    rv: str
    values: tuple[str, ...]
    probabilities: tuple[float, ...]
    log_z: float  # log partition function of the query's component under evidence

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.log_z)) and all(
            np.isfinite(p) for p in self.probabilities
        )


def _logsumexp_except(arr: np.ndarray, keep_axis: int) -> np.ndarray:
    """log(sum(exp(arr))) over every axis but ``keep_axis``."""
    moved = np.moveaxis(arr, keep_axis, 0).reshape(arr.shape[keep_axis], -1)
    peak = moved.max(axis=1)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(moved - safe[:, None]).sum(axis=1)) + safe
    return np.where(np.isneginf(peak), -np.inf, out)


def tree_marginal(
    fg, query: str, evidence: Mapping[str, str] | None = None
) -> OracleMarginal:
    """Posterior marginal of ``query`` on a tree-structured factor graph.

    Evidence stored on the graph's RVs is merged with ``evidence``. Raises
    ValueError when the query's component contains a cycle.
    """
    ev = {rv.id: rv.evidence for rv in fg.rvs if rv.evidence is not None}
    ev.update(evidence or {})
    root = ("v", query)
    parent: dict[tuple[str, str], tuple[str, str] | None] = {root: None}
    children: dict[tuple[str, str], list[tuple[str, str]]] = {}
    order = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        order.append(node)
        kind, nid = node
        if kind == "v":
            nbrs = [("f", fid) for fid in fg.factors_of(nid)]
        else:
            nbrs = [("v", arg) for arg in fg.factor(nid).args]
        kids = []
        for nb in nbrs:
            if nb == parent[node]:
                continue
            if nb in parent:
                raise ValueError(f"factor graph has a cycle through {nb[1]!r}")
            parent[nb] = node
            kids.append(nb)
            queue.append(nb)
        children[node] = kids

    # Upward pass: each node's log message to its parent (a vector over the
    # parent variable for factors, over the node itself for variables).
    msg: dict[tuple[str, str], np.ndarray] = {}
    for node in reversed(order):
        kind, nid = node
        if kind == "v":
            rv = fg.rv(nid)
            out = np.zeros(len(rv.range))
            if nid in ev:
                out[:] = -np.inf
                out[rv.range.index(ev[nid])] = 0.0
            for child in children[node]:
                out = out + msg[child]
            msg[node] = out
        else:
            f = fg.factor(nid)
            if f.table is None:
                raise ValueError(f"factor {nid!r} has no table")
            logt = np.log(np.asarray(f.table.array, dtype=np.float64))
            keep = f.args.index(parent[node][1])
            for axis, arg in enumerate(f.args):
                if axis == keep:
                    continue
                shape = [1] * logt.ndim
                shape[axis] = logt.shape[axis]
                logt = logt + msg[("v", arg)].reshape(shape)
            msg[node] = _logsumexp_except(logt, keep)

    belief = msg[root]
    log_z = float(np.logaddexp.reduce(belief))
    probs = np.exp(belief - log_z) if np.isfinite(log_z) else np.full(belief.shape, np.nan)
    rv = fg.rv(query)
    return OracleMarginal(query, rv.range.values, tuple(float(p) for p in probs), log_z)


def enumerated_marginal(
    fg, query: str, evidence: Mapping[str, str] | None = None
) -> tuple[float, ...]:
    """Reference marginal from ``fglift.model.joint_distribution``, conditioned by indexing."""
    from fglift.model import joint_distribution

    ev = {rv.id: rv.evidence for rv in fg.rvs if rv.evidence is not None}
    ev.update(evidence or {})
    joint = joint_distribution(fg)
    index = []
    for rv in fg.rvs:
        index.append(rv.range.index(ev[rv.id]) if rv.id in ev and rv.id != query else slice(None))
    cond = joint[tuple(index)]
    kept = [rv.id for rv in fg.rvs if rv.id not in ev or rv.id == query]
    axis = kept.index(query)
    other = tuple(i for i in range(cond.ndim) if i != axis)
    vec = cond.sum(axis=other) if other else cond
    if query in ev:
        mask = np.zeros_like(vec)
        mask[fg.rv(query).range.index(ev[query])] = 1.0
        vec = vec * mask
    return tuple(float(x) for x in vec / vec.sum())


def overflow_safe(fg) -> bool:
    """True when no variable-elimination message on ``fg`` can leave float64's range.

    Every message is a sum of products of table entries, so its entries lie
    between the product of all tables' minima and the product of all
    tables' maxima times the joint state count. Both bounds are checked in
    log10 against +-300, well inside float64's +-308.
    """
    upper = sum(float(np.log10(np.max(f.table.array))) for f in fg.factors)
    upper += sum(float(np.log10(len(rv.range))) for rv in fg.rvs)
    lower = sum(float(np.log10(np.min(f.table.array))) for f in fg.factors)
    return upper < 300.0 and lower > -300.0


def self_test() -> int:
    """Check ``tree_marginal`` against enumeration on tiny generated instances.

    Every RV of every instance (d <= 4) is queried without evidence and with
    evidence on two other RVs. Returns the number of marginals compared;
    raises RuntimeError on the first disagreement beyond 1e-12.
    """
    from fglift import ExperimentConfig, generate_instance

    checked = 0
    for d in (2, 3, 4):
        for seed in range(3):
            cfg = ExperimentConfig(d=d, p=0.5, unknown_fraction=0.1, cohorts=3,
                                   queries_per_instance=3, theta=0.0, seed=seed)
            fg = generate_instance(cfg).truth
            rng = np.random.default_rng([d, seed])
            for q in fg.rv_ids:
                others = [v for v in fg.rv_ids if v != q]
                observed = (str(v) for v in rng.choice(others, 2, replace=False))
                evidence = {v: fg.rv(v).range.values[int(rng.integers(len(fg.rv(v).range)))] for v in observed}
                for ev in (None, evidence):
                    got = tree_marginal(fg, q, ev).probabilities
                    want = enumerated_marginal(fg, q, ev)
                    if max(abs(a - b) for a, b in zip(got, want)) > 1e-12:
                        raise RuntimeError(f"oracle disagrees with enumeration on d={d} seed={seed} {q} {ev}")
                    checked += 1
    return checked
